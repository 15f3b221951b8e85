"""run()'s block engine against the per-step loop it replaced.

run_reference is that loop: it draws each agent's observation, evaluates
the drift and computes theta_bar, R, S, the lemma-3 slack and the records
one step at a time. The block engine must give the same trajectory.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsa.config import ScenarioConfig
from dcsa.core import (MetricsRecord, MetricsTrajectory, RateConstants,
                       Scenario, StepSchedule, _BLOCK, lemma3_residual,
                       lyapunov, run, tau_k, td_error)
from dcsa.experiments import build_gridworld_scenario, build_scenario
from dcsa.graphs import lazy_metropolis, line_graph
from dcsa.operators import LocalOperator
from dcsa.rng import derive_stream
from dcsa.sources import parse_maze


def _system_id_step_drift(sources):
    """One step of the fused system-id sampler: drift(Theta, rngs, X)
    advances the stacked AR states X by one step of every agent."""
    A_stack = np.stack([s.A for s in sources])
    u = sources[0].u
    clip = sources[0].noise_clip
    n = A_stack.shape[0]

    def drift(Theta, rngs, X):
        noise = np.empty((n, 2))
        for i in range(n):
            noise[i] = rngs[i].standard_normal(2)
        np.clip(noise, -clip, clip, out=noise)
        x1 = np.einsum("nij,nj->ni", A_stack, X)
        x1[:, 0] += noise[:, 0]
        x2 = x1 @ u + noise[:, 1]
        X[:] = x1
        resid = np.einsum("ni,ni->n", Theta, x1) - x2
        return -2.0 * resid[:, None] * x1

    return drift


def run_reference(sc, collect_theta_bar=False):
    """The per-step run() loop; a scenario with a vector_drift is taken to
    be a system-id one and stepped by _system_id_step_drift."""
    n, d = sc.n_agents, sc.dim
    rngs = [derive_stream(sc.seed, i, "sample") for i in range(n)]
    step_drift = None
    if sc.vector_drift is not None:
        step_drift = _system_id_step_drift(sc.sources)
        X = np.array([src.state for src in sc.sources], dtype=float)
    else:
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
        t = tau_k(sc.beta, sc.step.value(k), sc.rho)
        r_val = R_hist[k]
        s_val = S_hist[k]
        s_del = S_hist[max(0, k - t)]
        td = math.nan
        if sc.eval_batches is not None:
            td = td_error(Theta, sc.eval_batches, sc.ops)
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
        if step_drift is not None:
            drift = step_drift(Theta, rngs, X)
        else:
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
       collect_theta_bar=st.booleans(), fused=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_run_matches_reference_loop(n, d, horizon, stride, step, time_varying,
                                    constants, collect_theta_bar, fused, seed):
    cfg = ScenarioConfig(scenario="system_id", n_agents=n, dim=d, seed=seed,
                         horizon=horizon, stride=stride, step_kind=step[0],
                         step_eps=step[1],
                         frames=alternating_frames(n) if time_varying else "",
                         period_b=2)
    sc = build_scenario(cfg)
    if constants:
        # fixed constants: the builder's need a horizon longer than tau_k
        sc.constants = RateConstants.from_problem(
            B=2.0, L=1.5, alpha=0.8, sigma2=sc.sigma2, n_agents=n,
            theta_star_norm=1.0, c_tau=0.5)
    if not fused:
        sc.vector_drift = None
    assert_same_trajectory(run(sc, collect_theta_bar),
                           run_reference(sc, collect_theta_bar))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_matches_reference_on_divergence():
    """A fused system-id run whose iterates overflow aborts where the
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


@pytest.mark.parametrize("bad_step", [0, 1, 100, _BLOCK - 1, _BLOCK,
                                      _BLOCK + 1, 2 * _BLOCK - 1])
def test_run_aborts_at_the_exact_step(bad_step):
    """The first non-finite iterate ends the run at its k, whether it falls
    on the first, a middle or the last step of a block; nothing after it is
    measured or logged."""
    n, d = 3, 2

    def blowup_at(x, theta):
        return np.full(d, np.inf) if x == bad_step else 1.0 - theta

    w = lazy_metropolis(line_graph(n))
    theta_star = np.ones(d)
    rc = RateConstants.from_problem(B=2.0, L=1.5, alpha=0.8, sigma2=w.sigma2,
                                    n_agents=n, theta_star_norm=1.0, c_tau=0.5)
    sc = Scenario(sources=[StepCounter() for _ in range(n)],
                  ops=[LocalOperator(dim=d, eval=blowup_at)] * n,
                  step=StepSchedule(kind="constant", eps=0.1), horizon=300,
                  seed=0, stride=7, weights=(w,),
                  theta0=np.arange(n * d, dtype=float).reshape(n, d),
                  theta_star=theta_star, constants=rc, sigma2=w.sigma2)
    new = run(sc, collect_theta_bar=True)
    assert new.abort_reason == f"non-finite iterate at k={bad_step + 1}"
    assert np.isnan(new.S_hist[bad_step + 1:]).all()
    assert not np.isnan(new.S_hist[:bad_step + 1]).any()
    assert new.records[-1].k == bad_step // 7 * 7
    assert_same_trajectory(new, run_reference(sc, collect_theta_bar=True))


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
