"""run()'s block engine against the per-step loop it replaced, and the
seed-stacked run_ensemble against run().

run_reference is that loop: it draws each agent's observation, evaluates
the drift and computes theta_bar, R, S, the lemma-3 slack and the records
one step at a time. The block engine must give the same trajectory, and
every run of a stack the trajectory of its scenario run alone.
"""

import copy
import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsa import _build, operators
from dcsa.config import ScenarioConfig
from dcsa.core import (CoreError, MetricsRecord, MetricsTrajectory,
                       RateConstants, Scenario, StepSchedule, _BLOCK,
                       lemma3_residual, lyapunov, run, run_ensemble, tau_k)
from dcsa.experiments import build_gridworld_scenario, build_scenario
from dcsa.graphs import lazy_metropolis, line_graph
from dcsa.operators import LocalOperator, qlearning_operator
from dcsa.rng import derive_stream
from dcsa.sources import _SHORT_ROW, parse_maze

from strategies import mazes


def run_reference(sc, collect_theta_bar=False):
    """The per-step run() loop: every agent draws one observation with its
    source's sample and evaluates its operator's eval at every step."""
    n, d = sc.n_agents, sc.dim
    rngs = [derive_stream(sc.seed, i, "sample") for i in range(n)]
    sources = [copy.copy(src) for src in sc.sources]
    Theta = sc.theta0.copy()

    horizon = sc.horizon
    R_hist = np.full(horizon + 1, math.nan)
    S_hist = np.full(horizon + 1, math.nan)
    tb_hist = np.zeros((horizon + 1, d)) if collect_theta_bar else None
    theta_star = None if sc.theta_star is None else np.asarray(sc.theta_star)
    check_lemma3 = sc.constants is not None and theta_star is not None
    min_slack = math.inf if check_lemma3 else math.nan

    records = []
    aborted = False
    reason = ""

    def log_record(k, Theta, slack=math.nan):
        t = tau_k(sc.beta, sc.step.value(k))
        r_val = R_hist[k]
        s_val = S_hist[k]
        s_del = S_hist[max(0, k - t)]
        td = math.nan
        if sc.eval_batches is not None:
            td = reference_td_error(sc, Theta)
        records.append(MetricsRecord(
            k=k, eps_k=sc.step.value(k), tau_k=t, R=r_val, S=s_val,
            S_delayed=s_del, V=lyapunov(r_val, s_val, s_del),
            td_error=td, lemma3_slack=slack))

    ops_eval = [op.eval for op in sc.ops]
    prev_slack = math.nan
    for k in range(horizon + 1):
        theta_bar = Theta.mean(axis=0)
        if theta_star is not None:
            diff = theta_bar - theta_star
            R_hist[k] = float(diff @ diff)
        dev = Theta - theta_bar
        S_hist[k] = float(np.sum(dev * dev))
        if collect_theta_bar:
            tb_hist[k] = theta_bar
        if check_lemma3 and k >= 1:
            prev_slack = lemma3_residual(
                S_hist[k], S_hist[k - 1], R_hist[k - 1],
                sc.step.value(k - 1), sc.constants, n, sc.sigma2)
            min_slack = min(min_slack, prev_slack)
        if k % sc.stride == 0 or k == horizon:
            log_record(k, Theta, prev_slack)
        if k == horizon:
            break
        eps = sc.step.value(k)
        drift = np.empty_like(Theta)
        for i in range(n):
            drift[i] = ops_eval[i](sources[i].sample(rngs[i]), Theta[i])
        Theta = sc.weights[k % len(sc.weights)].entries @ Theta + eps * drift
        if not np.all(np.isfinite(Theta)):
            aborted = True
            reason = f"non-finite iterate at k={k + 1}"
            break

    return MetricsTrajectory(
        records=records, R_hist=R_hist, S_hist=S_hist,
        theta_final=Theta.copy(), aborted=aborted, abort_reason=reason,
        min_lemma3_slack=(min_slack if check_lemma3 else math.nan),
        theta_bar_hist=tb_hist)


def reference_td_error(sc, Theta):
    """Mean |Bellman residual| over the agents' eval batches, each residual
    r + gamma max_a' Q(s', a') - Q(s, a) formed one transition at a time in
    Python floats (the max taken in action order, as td_error does); each
    agent's |residuals| are summed with one .sum(), as td_error sums them."""
    total = 0.0
    count = 0
    for i, (batch, op) in enumerate(zip(sc.eval_batches, sc.ops)):
        features, gamma = op.params["features"], op.params["gamma"]
        q = Theta[i].reshape(features.n_states, features.n_actions).tolist()
        res = [r + gamma * max(q[int(s_next)]) - q[int(s)][int(a)]
               for s, a, r, s_next in np.asarray(batch, dtype=float).tolist()]
        if res:
            total += float(np.abs(np.array(res)).sum())
            count += len(res)
    return total / count


def assert_same_trajectory(new, ref):
    close = dict(rtol=1e-12, atol=0)
    for name in ("R_hist", "S_hist", "theta_final"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   **close, err_msg=name)
    assert (new.theta_bar_hist is None) == (ref.theta_bar_hist is None)
    if ref.theta_bar_hist is not None:
        np.testing.assert_allclose(new.theta_bar_hist, ref.theta_bar_hist,
                                   **close)
    assert (new.aborted, new.abort_reason) == (ref.aborted, ref.abort_reason)
    np.testing.assert_allclose(new.min_lemma3_slack, ref.min_lemma3_slack,
                               **close)
    assert len(new.records) == len(ref.records)
    for field in dataclasses.fields(MetricsRecord):
        np.testing.assert_allclose(new.column(field.name),
                                   ref.column(field.name), **close,
                                   err_msg=field.name)


def assert_identical(new, ref):
    """Equal bit for bit: the histories, the final iterate, the abort
    fields, the least lemma-3 slack and every field of every record."""
    for name in ("R_hist", "S_hist", "theta_final"):
        assert (getattr(new, name).tobytes()
                == getattr(ref, name).tobytes()), name
    assert (new.theta_bar_hist is None) == (ref.theta_bar_hist is None)
    if ref.theta_bar_hist is not None:
        assert new.theta_bar_hist.tobytes() == ref.theta_bar_hist.tobytes()
    assert (new.aborted, new.abort_reason) == (ref.aborted, ref.abort_reason)
    assert (np.float64(new.min_lemma3_slack).tobytes()
            == np.float64(ref.min_lemma3_slack).tobytes())

    def table(traj):
        return np.array([dataclasses.astuple(r) for r in traj.records],
                        dtype=float).tobytes()

    assert table(new) == table(ref)


def alternating_frames(n):
    """Two frames of disjoint neighbour pairs whose union is the path."""
    even = [[i, i + 1] for i in range(0, n - 1, 2)]
    odd = [[i, i + 1] for i in range(1, n - 1, 2)]
    return f"edges:{json.dumps(even)};edges:{json.dumps(odd)}"


# horizons that end a block exactly, or one step before or after
HORIZONS = st.one_of(
    st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK]),
    st.integers(0, 600))


@given(n=st.integers(1, 6), d=st.integers(1, 5), horizon=HORIZONS,
       stride=st.integers(1, 300),
       step=st.sampled_from([("constant", 0.03), ("constant", 0.3),
                             ("diminishing", 0.03), ("diminishing", 1.0)]),
       time_varying=st.booleans(), constants=st.booleans(),
       collect_theta_bar=st.booleans(), batched=st.booleans(),
       seed=st.integers(0, 2**31 - 1), negative_zeros=st.booleans())
# d = 1: measure keeps numpy's pairwise mean over the contiguous agent axis,
# which differs from adding agent slices from n = 8 on
@example(n=3, d=1, horizon=300, stride=7, step=("constant", 0.3),
         time_varying=False, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=False)
@example(n=8, d=1, horizon=300, stride=7, step=("diminishing", 1.0),
         time_varying=True, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=False)
# N*d = 7, 7 and 8: measure sums a row of N*d terms by a chain of row adds
# below 8 terms, where numpy's sum is one, and keeps numpy's pairwise sum
# from 8 on; a theta0 of -0.0 shows whether theta_bar starts from +0.0,
# and N, d >= 2 whether S adds its terms in (agent, coordinate) order
@example(n=7, d=1, horizon=300, stride=7, step=("constant", 0.3),
         time_varying=False, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=False)
@example(n=1, d=7, horizon=300, stride=7, step=("diminishing", 1.0),
         time_varying=False, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=False)
@example(n=4, d=2, horizon=300, stride=7, step=("constant", 0.3),
         time_varying=True, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=False)
@example(n=3, d=2, horizon=300, stride=7, step=("constant", 0.3),
         time_varying=False, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=True)
# N = 9, d >= 2: theta_bar adds the agents' slices across a strided axis,
# which numpy chains at any N, on both drift paths
@example(n=9, d=2, horizon=300, stride=7, step=("diminishing", 1.0),
         time_varying=True, constants=True, collect_theta_bar=True,
         batched=True, seed=5, negative_zeros=True)
@example(n=9, d=3, horizon=300, stride=7, step=("constant", 0.03),
         time_varying=False, constants=True, collect_theta_bar=True,
         batched=False, seed=5, negative_zeros=False)
@settings(max_examples=60, deadline=None)
def test_run_matches_reference_loop(n, d, horizon, stride, step, time_varying,
                                    constants, collect_theta_bar, batched,
                                    seed, negative_zeros):
    """run() equals the per-step reference loop bit for bit, on the batched
    and the per-agent drift path, from a theta0 of +0.0 or -0.0."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=n, dim=d, seed=seed,
                         horizon=horizon, stride=stride, step_kind=step[0],
                         step_eps=step[1],
                         frames=alternating_frames(n) if time_varying else "",
                         period_b=2)
    sc = build_scenario(cfg)
    if negative_zeros:
        sc.theta0 = np.full((n, d), -0.0)
    if constants:
        # fixed constants: the builder's need a horizon longer than tau_k
        sc.constants = RateConstants.from_problem(
            B=2.0, L=1.5, alpha=0.8, sigma2=sc.sigma2, n_agents=n,
            theta_star_norm=1.0, c_tau=0.5)
    if not batched:   # a custom-kind operator takes the per-agent loop
        sc.ops[0] = dataclasses.replace(sc.ops[0], kind="custom")
    assert_identical(run(sc, collect_theta_bar),
                     run_reference(sc, collect_theta_bar))


def three_frames(n):
    """Three frames of the path's neighbour pairs (i, i + 1), grouped by
    i mod 3: a 128-step block is not a whole number of their cycles."""
    groups = [[[i, i + 1] for i in range(r, n - 1, 3)] for r in range(3)]
    return ";".join(f"edges:{json.dumps(g)}" for g in groups)


@pytest.mark.parametrize("horizon", [2 * _BLOCK + 1, 300, 3 * _BLOCK])
def test_three_frames_keep_their_order_across_blocks(horizon):
    """Step k mixes with frame k mod 3 at every block start too, where
    k = 128 and k = 256 are not multiples of 3: run(), and every run of a
    stacked run_ensemble, give the per-step loop's trajectory bit for bit
    over two block boundaries."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=6, dim=3,
                         horizon=horizon, stride=7, frames=three_frames(6),
                         period_b=3, compute_constants=True)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in (2, 7)]
    assert len(scs[0].weights) == 3
    refs = [run_reference(sc, collect_theta_bar=True) for sc in scs]
    assert_identical(run(scs[0], collect_theta_bar=True), refs[0])
    for new, ref in zip(run_ensemble(scs, collect_theta_bar=True), refs):
        assert_identical(new, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_matches_reference_on_divergence():
    """A batched system-id run whose iterates overflow aborts where the
    per-step loop does."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=3,
                         horizon=600, stride=7, step_kind="constant",
                         step_eps=5.0, compute_constants=True)
    sc = build_scenario(cfg)
    ref = run_reference(sc, collect_theta_bar=True)
    assert ref.aborted
    assert_same_trajectory(run(sc, collect_theta_bar=True), ref)


class StepCounter:
    """Observes the index of the step it is drawn for."""

    def __init__(self):
        self.k = -1

    def sample(self, rng):
        self.k += 1
        return self.k


@pytest.mark.parametrize("bad_step, stacked", [
    pytest.param(bad_step, stacked, id=f"{bad_step}-stacked" if stacked
                 else str(bad_step))
    for stacked in (False, True)
    for bad_step in [0, 1, 100, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                     2 * _BLOCK - 1]])
def test_run_aborts_at_the_exact_step(bad_step, stacked):
    """The first non-finite iterate ends the run at its k, whether it falls
    on the first, a middle or the last step of a block; nothing after it is
    measured or logged. Stacked, it is the second run of a run_ensemble
    stack whose first run never blows up and steps on to the horizon."""
    n, d = 3, 2

    def blowup_at(x, theta):
        return np.full(d, np.inf) if x == bad_step else 1.0 - theta

    w = lazy_metropolis(line_graph(n))
    rc = RateConstants.from_problem(B=2.0, L=1.5, alpha=0.8, sigma2=w.sigma2,
                                    n_agents=n, theta_star_norm=1.0, c_tau=0.5)
    scs = [Scenario(sources=[StepCounter() for _ in range(n)],
                    ops=[LocalOperator(dim=d, eval=op_eval)] * n,
                    step=StepSchedule(kind="constant", eps=0.1), horizon=300,
                    seed=0, stride=7, weights=(w,),
                    theta0=np.arange(n * d, dtype=float).reshape(n, d),
                    theta_star=np.ones(d), constants=rc, sigma2=w.sigma2)
           for op_eval in [lambda x, theta: 1.0 - theta, blowup_at]]
    if stacked:
        trajs = run_ensemble(scs, collect_theta_bar=True)
        assert not trajs[0].aborted
    else:
        scs = scs[1:]
        trajs = [run(scs[0], collect_theta_bar=True)]
    new = trajs[-1]
    assert new.abort_reason == f"non-finite iterate at k={bad_step + 1}"
    assert np.isnan(new.S_hist[bad_step + 1:]).all()
    assert not np.isnan(new.S_hist[:bad_step + 1]).any()
    assert new.records[-1].k == bad_step // 7 * 7
    for sc, traj in zip(scs, trajs):
        assert_same_trajectory(traj, run_reference(sc, collect_theta_bar=True))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_per_agent_eval_never_sees_a_non_finite_iterate():
    """A custom eval that asserts a finite iterate is never handed the
    overflowed iterate of a diverging run, nor any after it in its block:
    the run aborts where the per-step loop does, bit for bit. In a stack
    whose runs 1 and 3 abort in the first block, every run does."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=3,
                         horizon=600, stride=7, step_kind="constant",
                         step_eps=5.0, compute_constants=True)
    sc = build_scenario(cfg)
    scs = system_id_stack(**ABORTING_STACK)

    def finite_only(op_eval):
        def eval_(x, theta):
            assert np.isfinite(theta).all()
            return op_eval(x, theta)
        return eval_

    for s in [sc] + scs:
        s.ops = [dataclasses.replace(op, kind="custom",
                                     eval=finite_only(op.eval))
                 for op in s.ops]
    new = run(sc, collect_theta_bar=True)
    assert new.aborted and not np.isfinite(new.theta_final).all()
    assert_identical(new, run_reference(sc, collect_theta_bar=True))
    stacked = run_ensemble(scs, collect_theta_bar=True)
    assert [t.aborted for t in stacked] == [False, True, False, True]
    for s, new in zip(scs, stacked):
        assert_identical(new, run_reference(s, collect_theta_bar=True))


MAZES = ["S....\n.....\n..#..\n.....\n....G\n",
         "S....\n...#.\n.....\n.#...\n....G\n",
         "S....\n.....\n.#.#.\n.....\n....G\n"]


@pytest.mark.parametrize("stride", [1, 50])
def test_run_matches_reference_gridworld(stride):
    """The per-agent path with TD-error records on every maze."""
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=4,
                         horizon=300, stride=stride, maze_files="unused",
                         eval_batch_size=20, step_kind="constant",
                         step_eps=0.05)
    sc = build_gridworld_scenario(cfg, mazes=[parse_maze(m) for m in MAZES])
    new = run(sc)
    assert np.isfinite(new.column("td_error")).all()
    assert_same_trajectory(new, run_reference(sc))


@st.composite
def gridworld_ensembles(draw, max_runs=6):
    """Built GridWorld scenarios of one config, one per seed for 1 to
    max_runs seeds: 1 to 4 agents, each on its own random maze of one
    shared shape, with small eval batches."""
    n = draw(st.integers(1, 4))
    shape = (draw(st.integers(3, 5)), draw(st.integers(3, 4)))
    kind, eps = draw(st.sampled_from([("constant", 0.05), ("constant", 0.9),
                                      ("diminishing", 0.5),
                                      ("diminishing", 3.0)]))
    cfg = ScenarioConfig(scenario="gridworld", n_agents=n,
                         dim=shape[0] * shape[1] * 4,
                         horizon=draw(HORIZONS),
                         stride=draw(st.integers(1, 300)),
                         maze_files="unused",
                         eval_batch_size=draw(st.integers(1, 5)),
                         step_kind=kind, step_eps=eps,
                         gamma=draw(st.sampled_from([0.5, 0.9])))
    maze_list = [draw(mazes(shape)) for _ in range(n)]
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1,
                          max_size=max_runs))
    return [build_gridworld_scenario(dataclasses.replace(cfg, seed=seed),
                                     mazes=maze_list)
            for seed in seeds]


def gridworld_scenarios():
    """A built GridWorld scenario, as gridworld_ensembles draws them."""
    return gridworld_ensembles(max_runs=1).map(lambda scs: scs[0])


def test_run_gridworld_negative_zero_theta0():
    """A theta0 of -0.0 gives the per-step loop's bytes: the batched step
    adds only to the visited slots of W @ Theta, which holds +0.0 where
    the loop's W @ Theta + eps * drift does."""
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=4,
                         horizon=300, stride=30, maze_files="unused",
                         eval_batch_size=20, step_kind="constant",
                         step_eps=0.05)
    sc = build_gridworld_scenario(cfg, mazes=[parse_maze(m) for m in MAZES])
    sc.theta0 = np.full((3, 100), -0.0)
    new = run(sc, collect_theta_bar=True)
    assert (new.theta_final == 0.0).any()
    assert_identical(new, run_reference(sc, collect_theta_bar=True))


@given(gridworld_scenarios())
@settings(max_examples=40, deadline=None)
def test_run_matches_reference_gridworld_blocks(sc):
    """The batched Q-learning blocks give the per-agent loop's trajectory
    on random mazes, horizons and strides, and its iterates bit for bit."""
    new, ref = run(sc), run_reference(sc)
    assert_same_trajectory(new, ref)
    assert new.theta_final.tobytes() == ref.theta_final.tobytes()
    assert new.S_hist.tobytes() == ref.S_hist.tobytes()


@pytest.mark.parametrize("first_op", ["qlearning", "custom", "other-gamma"])
def test_gridworld_path_choice(first_op):
    """Built-in Q-learning operators with one features and gamma take the
    block path, which calls no operator's eval. A custom-kind operator, or
    one with another gamma, sends the run down the per-agent sample and
    eval loop. Every path matches the reference."""
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=5,
                         horizon=300, stride=30, maze_files="unused",
                         step_kind="constant", step_eps=0.05, gamma=0.5)
    sc = build_gridworld_scenario(cfg, mazes=[parse_maze(m) for m in MAZES])
    if first_op == "other-gamma":
        sc.ops[0] = qlearning_operator(sc.ops[0].params["features"], 0.9)
    calls = []

    def counted(op_eval):
        def eval_(x, theta):
            calls.append(x)
            return op_eval(x, theta)
        return eval_

    sc.ops = [dataclasses.replace(op, eval=counted(op.eval)) for op in sc.ops]
    if first_op == "custom":
        sc.ops[0] = dataclasses.replace(sc.ops[0], kind="custom")
        sc.eval_batches = None   # td_error takes Q-learning operators only
    new = run(sc)
    assert len(calls) == (0 if first_op == "qlearning" else 3 * 300)
    assert_same_trajectory(new, run_reference(sc))


@pytest.mark.parametrize("first_op", ["quadratic", "custom"])
def test_system_id_path_choice(first_op):
    """Built-in quadratic-gradient operators over ARSources take the block
    path, which calls no operator's eval; a custom-kind operator sends the
    run down the per-agent sample and eval loop. Both match the reference,
    and their iterates are equal bit for bit."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=6,
                         horizon=300, stride=30, compute_constants=True)
    sc = build_scenario(cfg)
    calls = []

    def counted(op_eval):
        def eval_(x, theta):
            calls.append(x)
            return op_eval(x, theta)
        return eval_

    batched = run(sc)
    sc.ops = [dataclasses.replace(op, eval=counted(op.eval)) for op in sc.ops]
    if first_op == "custom":
        sc.ops[0] = dataclasses.replace(sc.ops[0], kind="custom")
    new = run(sc)
    assert len(calls) == (0 if first_op == "quadratic" else 4 * 300)
    assert_same_trajectory(new, run_reference(sc))
    for name in ("theta_final", "R_hist", "S_hist"):
        assert getattr(new, name).tobytes() == getattr(batched, name).tobytes()


@dataclasses.dataclass
class Unbatched:
    """A source behind a class with no block_sampler."""

    source: object

    def sample(self, rng):
        return self.source.sample(rng)

    def __copy__(self):
        return Unbatched(copy.copy(self.source))


def test_batched_drift_builders_are_made_once_per_run(monkeypatch):
    """Each batched drift's builder, with its per-run buffers, is made once
    per run, not once per block: a three-block run of each kind calls it
    once. A run that falls back to the per-agent loop calls none."""
    import dcsa.core

    calls = []
    for name in ("quadratic_block_drift", "qlearning_block_drift"):
        def counting(*args, name=name, plain=getattr(dcsa.core, name)):
            calls.append(name)
            return plain(*args)

        monkeypatch.setattr(dcsa.core, name, counting)
    horizon = 3 * _BLOCK
    sc = build_scenario(ScenarioConfig(scenario="system_id", n_agents=3,
                                       dim=2, horizon=horizon, stride=100))
    batched = run(sc)
    assert calls == ["quadratic_block_drift"]
    run(build_gridworld_scenario(
        ScenarioConfig(scenario="gridworld", n_agents=3, dim=100,
                       horizon=horizon, stride=100, maze_files="unused"),
        mazes=[parse_maze(m) for m in MAZES]))
    assert calls == ["quadratic_block_drift", "qlearning_block_drift"]
    # sources of a class without a block_sampler take the per-agent loop,
    # and no builder is made for it
    calls.clear()
    sc.sources = [Unbatched(src) for src in sc.sources]
    assert_identical(run(sc), batched)
    assert calls == []


def counting_step(calls):
    """A stand-in for the compiled step module: each call of its
    quadratic_steps, qlearning_steps or deviations appends that name to
    calls and is passed on to operators.STEP where the step loaded."""
    compiled = operators.STEP

    def counted(name):
        def call(*args):
            calls.append(name)
            if compiled is not None:
                getattr(compiled, name)(*args)
        return call

    return types.SimpleNamespace(**{
        name: counted(name)
        for name in ("quadratic_steps", "qlearning_steps", "deviations")})


def test_block_drift_picks_the_compiled_step(monkeypatch):
    """_block_drift hands operators.STEP, as it is at the run, to the
    batched builders: a run, or a stack of runs, makes one call per block,
    ceil(horizon / _BLOCK) in all, of quadratic_steps for d < _SHORT_ROW
    and of qlearning_steps for Q-learning, and none for d >= _SHORT_ROW,
    whose rows numpy sums pairwise, or for sources stepped agent by agent.
    With STEP None, it makes none. Each trajectory's compiled_step is true
    exactly for the runs whose steps called it. Every run here, of d > 1,
    is measured by one deviations call per block and one for k = 0,
    whichever its drift path."""
    calls = []
    monkeypatch.setattr(operators, "STEP", counting_step(calls))
    horizon = _BLOCK + 22
    blocks = math.ceil(horizon / _BLOCK)
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=5,
                         horizon=horizon, stride=50)
    gridworld = build_gridworld_scenario(
        ScenarioConfig(scenario="gridworld", n_agents=3, dim=100,
                       horizon=horizon, stride=50, maze_files="unused"),
        mazes=[parse_maze(m) for m in MAZES])
    unbatched = build_scenario(cfg)
    unbatched.sources = [Unbatched(src) for src in unbatched.sources]
    runs = [(lambda: [run(build_scenario(cfg))],
             ["quadratic_steps"] * blocks),
            (lambda: run_ensemble([build_scenario(dataclasses.replace(
                cfg, seed=seed)) for seed in (1, 2)]),
             ["quadratic_steps"] * blocks),
            (lambda: [run(build_scenario(dataclasses.replace(cfg, dim=8)))],
             []),
            (lambda: [run(gridworld)], ["qlearning_steps"] * blocks),
            (lambda: [run(unbatched)], [])]
    for run_it, expected in runs:
        calls.clear()
        trajs = run_it()
        assert [name for name in calls if name != "deviations"] == expected
        assert calls.count("deviations") == blocks + 1
        assert all(traj.compiled_step is bool(expected) for traj in trajs)
    monkeypatch.setattr(operators, "STEP", None)
    for run_it, _ in runs:
        calls.clear()
        assert not any(traj.compiled_step for traj in run_it())
        assert calls == []


def test_compiled_step_fallback_gives_the_same_bytes(monkeypatch, tmp_path):
    """Where the step cannot be built, with no compiler and an empty cache,
    the loader returns None, and runs stepped and measured with numpy
    equal those stepped and measured by operators.STEP bit for bit at
    every block edge: single system-id runs of horizon 2 * _BLOCK + 44 and
    below one block, one on three weight frames, whose later blocks start
    their frame cycle at k0 mod 3 = 2 and 1, a single GridWorld run
    (d = 100), a 3-run GridWorld stack, a system-id stack whose runs abort
    on non-finite iterates, a lemma-4-shaped stack of N = 3, d = 2, whose
    short rows deviations sums, a d = 100 system-id run, which steps with
    numpy and is measured compiled, and a d = 1, N = _SHORT_ROW run, which
    keeps numpy's pairwise mean."""
    fallback = _build.load_step(cc=[str(tmp_path / "no-such-cc")],
                                cache_dir=str(tmp_path / "cache"))
    assert fallback is None
    horizon = 2 * _BLOCK + 44
    cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5,
                         horizon=horizon, stride=7, compute_constants=True)
    short = dataclasses.replace(cfg, horizon=_BLOCK - 28, stride=3)
    frames = ScenarioConfig(scenario="system_id", n_agents=6, dim=3,
                            horizon=horizon, stride=7,
                            frames=three_frames(6), period_b=3,
                            compute_constants=True)
    lemma4 = ScenarioConfig(scenario="system_id", n_agents=3, dim=2,
                            horizon=horizon, stride=7, step_kind="constant",
                            step_eps=1e-4, compute_constants=True)
    wide = dataclasses.replace(cfg, n_agents=2, dim=100, stride=30,
                               compute_constants=False)
    scalar = dataclasses.replace(cfg, n_agents=_SHORT_ROW, dim=1)
    grid_cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100,
                              horizon=horizon, stride=30,
                              maze_files="unused")
    mazes = [parse_maze(m) for m in MAZES]
    grids = [build_gridworld_scenario(dataclasses.replace(grid_cfg,
                                                          seed=seed), mazes)
             for seed in (1, 2, 3)]
    stack = system_id_stack(**ABORTING_STACK)

    def runs():
        return [run(build_scenario(cfg), collect_theta_bar=True),
                run(build_scenario(short), collect_theta_bar=True),
                run(build_scenario(frames), collect_theta_bar=True),
                run(build_scenario(scalar), collect_theta_bar=True),
                run(grids[0]), *run_ensemble(grids), *run_ensemble(stack),
                *run_ensemble([build_scenario(dataclasses.replace(
                    lemma4, seed=seed)) for seed in range(1, 6)]),
                run(build_scenario(wide), collect_theta_bar=True)]

    assert len(build_scenario(frames).weights) == 3 and _BLOCK % 3 == 2
    compiled = runs()
    assert all(traj.compiled_step for traj in compiled[:-1])
    assert not compiled[-1].compiled_step   # d >= _SHORT_ROW steps with numpy
    monkeypatch.setattr(operators, "STEP", fallback)
    for new, ref in zip(runs(), compiled, strict=True):
        assert not new.compiled_step
        assert_identical(new, ref)
    assert [traj.aborted for traj in compiled[8:12]] == [False, True, False,
                                                         True]
    assert not any(traj.aborted for traj in compiled[12:])
    assert all(math.isfinite(traj.min_lemma3_slack)
               for traj in compiled[12:17])


# runs 1 and 3 start far out and abort at k = 12 and k = 118, in the first
# of three blocks; runs 0 and 2 step on through all three
ABORTING_STACK = dict(seeds=[2, 1, 3, 4], n=3, d=2, horizon=300, stride=7,
                      step=("constant", 1.0), time_varying=False,
                      constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                      negative_zeros=False, blowups={1: 1e306, 3: -1e290})


@given(seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6),
       n=st.integers(1, 10), d=st.integers(1, 5), horizon=HORIZONS,
       stride=st.integers(1, 300),
       step=st.sampled_from([("constant", 0.03), ("constant", 0.3),
                             ("diminishing", 0.03), ("diminishing", 1.0)]),
       time_varying=st.booleans(),
       constants=st.none() | st.lists(st.floats(0.5, 500.0), min_size=6,
                                      max_size=6),
       collect_theta_bar=st.booleans(), negative_zeros=st.booleans(),
       blowups=st.dictionaries(st.integers(0, 5),
                               st.sampled_from([1e306, -1e290])))
# d = 1: see test_run_matches_reference_loop
@example(seeds=[3, 1, 4], n=3, d=1, horizon=300, stride=7,
         step=("constant", 0.3), time_varying=False,
         constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], collect_theta_bar=True,
         negative_zeros=False, blowups={})
@example(seeds=[3, 1, 4], n=8, d=1, horizon=300, stride=7,
         step=("diminishing", 1.0), time_varying=True, constants=None,
         collect_theta_bar=True, negative_zeros=False, blowups={})
# one (N, N) x (N, S*d) gemm for the whole stack rounds otherwise than the
# per-run products under some BLAS kernels: under OpenBLAS's Nehalem ones
# these two stacks tell them apart, where the stacks above do not
@example(seeds=[3, 1, 4, 1, 5, 9], n=5, d=5, horizon=300, stride=7,
         step=("constant", 0.3), time_varying=False, constants=None,
         collect_theta_bar=False, negative_zeros=False, blowups={})
@example(seeds=[2, 7, 1, 8, 2, 8], n=10, d=5, horizon=300, stride=7,
         step=("diminishing", 1.0), time_varying=False,
         constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], collect_theta_bar=True,
         negative_zeros=False, blowups={})
# N*d = 7, 7 and 8, and a theta0 of -0.0: see test_run_matches_reference_loop
@example(seeds=[3, 1, 4, 1, 5], n=7, d=1, horizon=300, stride=7,
         step=("constant", 0.3), time_varying=False,
         constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], collect_theta_bar=True,
         negative_zeros=False, blowups={})
@example(seeds=[3, 1, 4, 1, 5], n=1, d=7, horizon=300, stride=7,
         step=("diminishing", 1.0), time_varying=False,
         constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], collect_theta_bar=True,
         negative_zeros=False, blowups={})
@example(seeds=[3, 1, 4, 1, 5], n=4, d=2, horizon=300, stride=7,
         step=("constant", 0.3), time_varying=True,
         constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], collect_theta_bar=True,
         negative_zeros=False, blowups={})
@example(seeds=[2, 7, 1, 8, 2, 8], n=3, d=2, horizon=300, stride=7,
         step=("constant", 0.3), time_varying=False,
         constants=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], collect_theta_bar=True,
         negative_zeros=True, blowups={})
@example(collect_theta_bar=True, **ABORTING_STACK)
@settings(max_examples=40, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_ensemble_matches_single_runs(seeds, n, d, horizon, stride, step,
                                          time_varying, constants,
                                          collect_theta_bar, negative_zeros,
                                          blowups):
    """Every run of a stacked system-id ensemble of 1 to 6 seeds equals
    run() and the per-step reference loop of its scenario alone, bit for
    bit, an abort included; with constants, each seed has its own B, hence
    its own C0. See system_id_stack for theta0. The stacked pass warns of
    no overflow."""
    scs = system_id_stack(seeds, n, d, horizon, stride, step, time_varying,
                          constants, negative_zeros, blowups)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = run_ensemble(scs, collect_theta_bar)
    assert len(stacked) == len(scs)
    for sc, new in zip(scs, stacked):
        assert_identical(new, run(sc, collect_theta_bar))
        assert_identical(new, run_reference(sc, collect_theta_bar))


def system_id_stack(seeds, n, d, horizon, stride, step, time_varying,
                    constants, negative_zeros, blowups):
    """System-id scenarios of one config, one per seed. Every run starts
    from a theta0 of +0.0 or, with negative_zeros, -0.0, but run i of
    blowups from blowups[i] in every entry, far enough out to diverge."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=n, dim=d,
                         horizon=horizon, stride=stride, step_kind=step[0],
                         step_eps=step[1],
                         frames=alternating_frames(n) if time_varying else "",
                         period_b=2)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in seeds]
    for i, sc in enumerate(scs):
        if negative_zeros:
            sc.theta0 = np.full((n, d), -0.0)
        if i in blowups:
            sc.theta0 = np.full((n, d), blowups[i])
    if constants is not None:
        for sc, B in zip(scs, constants):
            sc.constants = RateConstants.from_problem(
                B=B, L=0.5, alpha=0.8, sigma2=sc.sigma2, n_agents=n,
                theta_star_norm=1.0, c_tau=0.5)
    return scs


@given(gridworld_ensembles())
@settings(max_examples=30, deadline=None)
def test_run_ensemble_matches_single_runs_gridworld(scs):
    """Every run of a stacked GridWorld ensemble, TD-error records
    included, equals run() and the reference loop of its scenario alone."""
    for sc, new in zip(scs, run_ensemble(scs)):
        assert_identical(new, run(sc))
        assert_identical(new, run_reference(sc))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_ensemble_aborts_each_run_on_its_own():
    """At eps = 2.2 seed 1 overflows at k = 593 and seeds 2 and 3 do not:
    the ensemble gives every seed the run it has alone, abort included."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2,
                         horizon=600, stride=7, step_kind="constant",
                         step_eps=2.2, compute_constants=True)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in (2, 1, 3)]
    stacked = run_ensemble(scs, collect_theta_bar=True)
    assert [t.abort_reason for t in stacked] == [
        "", "non-finite iterate at k=593", ""]
    for sc, new in zip(scs, stacked):
        assert_identical(new, run(sc, collect_theta_bar=True))
        assert_identical(new, run_reference(sc, collect_theta_bar=True))


def test_run_ensemble_warns_of_no_overflow():
    """Seed 184 at eps = 3 has a record whose finite R and S overflow in V:
    its stacked run logs it, after the pass, without a warning (which the
    suite turns into an error)."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2,
                         horizon=300, stride=1, step_kind="constant",
                         step_eps=3.0)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in (2, 184)]
    stacked = run_ensemble(scs)
    assert any(math.isinf(r.V) and np.isfinite([r.R, r.S, r.S_delayed]).all()
               for r in stacked[1].records)


def test_run_ensemble_of_nothing():
    assert run_ensemble([]) == []


def test_run_ensemble_logs_each_scenario_in_its_run(monkeypatch):
    """Every scenario of a stack gets one run() call, and each of its
    records' V is computed inside that call."""
    import dcsa.core

    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2,
                         horizon=300, stride=100, compute_constants=True)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in (1, 2, 3)]
    inside, logged = [], []
    plain_run, plain_lyapunov = dcsa.core.run, dcsa.core.lyapunov

    def counting_run(sc, *args, **kwargs):
        inside.append(sc)
        try:
            return plain_run(sc, *args, **kwargs)
        finally:
            inside.pop()

    def counting_lyapunov(*args):
        logged.append(inside[-1] if inside else None)
        return plain_lyapunov(*args)

    monkeypatch.setattr(dcsa.core, "run", counting_run)
    monkeypatch.setattr(dcsa.core, "lyapunov", counting_lyapunov)
    stacked = run_ensemble(scs)
    assert logged == [sc for sc in scs for _ in range(4)]
    assert [len(t.records) for t in stacked] == [4, 4, 4]


def _mismatch(sc, what):
    """sc changed in one thing a stack must share."""
    if what == "frames":
        sc.weights = (lazy_metropolis(line_graph(sc.n_agents)),) * 2
    elif what == "frame entries":
        w = sc.weights[0]
        sc.weights = (dataclasses.replace(w, entries=np.eye(sc.n_agents)),)
    elif what == "step":
        sc.step = StepSchedule(kind=sc.step.kind, eps=2 * sc.step.eps)
    elif what == "dims":
        sc.ops = sc.ops[:-1]
        sc.sources = sc.sources[:-1]
        sc.weights = (lazy_metropolis(line_graph(sc.n_agents)),)
        sc.theta0 = sc.theta0[:-1]
    elif what == "kinds":
        sc.ops[0] = dataclasses.replace(sc.ops[0], kind="custom")
    elif what in ("theta_star", "constants"):
        setattr(sc, what, None)
    else:
        setattr(sc, what, getattr(sc, what) + 1)
    return sc


@pytest.mark.parametrize("what", [
    "frames", "frame entries", "step", "horizon", "stride", "beta", "sigma2",
    "dims", "kinds", "theta_star", "constants"])
def test_run_ensemble_rejects_mismatched_scenarios(what):
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2,
                         horizon=300, compute_constants=True)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in (1, 2)]
    run_ensemble(scs)
    scs[1] = _mismatch(scs[1], what)
    with pytest.raises(CoreError, match="stacked scenarios"):
        run_ensemble(scs)


def test_run_ensemble_rejects_mismatched_eval_batches():
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100,
                         horizon=50, maze_files="unused", eval_batch_size=5)
    scs = [build_gridworld_scenario(dataclasses.replace(cfg, seed=seed),
                                    mazes=[parse_maze(m) for m in MAZES])
           for seed in (1, 2)]
    run_ensemble(scs)
    scs[0].eval_batches = None
    with pytest.raises(CoreError, match="stacked scenarios"):
        run_ensemble(scs)
