import copy
import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsa import experiments
from dcsa.config import ScenarioConfig
from dcsa.core import (CoreError, MetricsTrajectory, eval_columns, run,
                       td_error)
from dcsa.experiments import (ScenarioError, build_gridworld_scenario,
                              build_scenario, build_system_id_scenario,
                              fit_rate, fit_rate_series, greedy_policy_rollout,
                              plateau_level, run_seed_ensemble)
from dcsa.operators import quadratic_grad_operator, value_iteration_q
from dcsa.rng import derive_stream
from dcsa.sources import ARSource, MDPSource, parse_maze, row_dots


def synthetic_traj(values):
    values = np.asarray(values, dtype=float)
    return MetricsTrajectory(records=[], R_hist=values, S_hist=values,
                             theta_final=np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_power_law():
    ks = np.arange(1, 2001)
    fit = fit_rate_series(ks, 1.0 / ks)
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_log_squared_over_k():
    ks = np.arange(1000, 100_001)
    vals = np.log(ks) ** 2 / ks
    fit = fit_rate_series(ks, vals)
    assert -1.0 < fit.slope < -0.7


def test_fit_rate_constant_sequence():
    fit = fit_rate_series(np.arange(1, 101), np.full(100, 3.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_window_validation():
    traj = synthetic_traj(1.0 / np.arange(1, 1001))
    with pytest.raises(CoreError):
        fit_rate(traj, "R", (100, 500))  # less than a decade
    with pytest.raises(CoreError):
        fit_rate(traj, "Q", (10, 500))


def test_fit_rate_rejects_nonpositive():
    with pytest.raises(CoreError):
        fit_rate_series(np.arange(1, 50), np.zeros(49))


def polyfit_rate(ks, values):
    """The degree-1 np.polyfit line that fit_rate_series replaced, with r2
    from its residuals, over the points with k >= 1."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = ks >= 1
    x, y = np.log(ks[keep]), np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot


@st.composite
def noisy_power_laws(draw):
    """(c, slope, noise, seed, length, window): a history of length values
    c k^slope exp(noise z) for k = 0, 1, ... with z standard normal, and a
    fit window of at least one decade that ends up to 50 points inside the
    history or past its end. The history covers at least a decade of the
    window, and may span up to five of the fit's 8192-point blocks."""
    k_min = draw(st.integers(1, 300))
    length = (k_min + draw(st.integers(9 * k_min + 1, 9 * k_min + 2000))
              + 8192 * draw(st.sampled_from([0, 1, 2, 4])))
    k_max = max(10 * k_min, length - 1 + draw(st.integers(-50, 50)))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return (draw(st.floats(1e-6, 1e6)),
            sign * draw(st.floats(0.25, 3.0)), draw(st.floats(0.0, 0.05)),
            draw(st.integers(0, 2**32 - 1)), length, (k_min, k_max))


def power_law_history(c, slope, noise, seed, length):
    k = np.arange(length, dtype=float)
    z = np.random.default_rng(seed).standard_normal(length)
    return c * np.maximum(k, 1.0) ** slope * np.exp(noise * z)


@given(noisy_power_laws(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_fit_rate_series_matches_polyfit(law, below_one):
    """The closed-form line equals np.polyfit's on noisy power laws, with
    points at k < 1 in front of the series dropped."""
    c, slope, noise, seed, length, (k_min, k_max) = law
    vals = power_law_history(c, slope, noise, seed, length)[k_min:k_max + 1]
    ks = np.arange(k_min, k_min + len(vals), dtype=float)
    ks = np.concatenate([[0.0, 0.25, 0.5][:below_one], ks])
    vals = np.concatenate([[7.0, 8.0, 9.0][:below_one], vals])
    fit = fit_rate_series(ks, vals)
    ref_slope, ref_r2 = polyfit_rate(ks, vals)
    assert fit.n_points == len(ks) - below_one
    np.testing.assert_allclose(fit.slope, ref_slope, rtol=1e-12, atol=0)
    assert abs(fit.r2 - ref_r2) <= 1e-12


@given(noisy_power_laws())
@settings(max_examples=100, deadline=None)
def test_fit_rate_window_is_the_mask_selection(law):
    """fit_rate's slice of R_hist and S_hist holds the points that the mask
    (k_min <= k <= k_max) over k = 0 .. len - 1 selects, and gives their
    fit, slope and r2 bit for bit."""
    c, slope, noise, seed, length, window = law
    traj = synthetic_traj(power_law_history(c, slope, noise, seed, length))
    ks = np.arange(length)
    keep = (ks >= window[0]) & (ks <= window[1])
    for metric in ("R", "S"):
        fit = fit_rate(traj, metric, window)
        masked = fit_rate_series(ks[keep], traj.R_hist[keep])
        assert fit.n_points == masked.n_points == int(keep.sum())
        assert fit.slope == masked.slope and fit.r2 == masked.r2
        ref_slope, _ = polyfit_rate(ks[keep], traj.R_hist[keep])
        np.testing.assert_allclose(fit.slope, ref_slope, rtol=1e-12, atol=0)


@pytest.mark.parametrize("ks, values, match", [
    ([5.0], [1.0], "at least two points"),
    ([0.0, 0.5, 3.0], [1.0, 2.0, 3.0], "at least two points"),
    ([4.0, 4.0, 4.0], [1.0, 2.0, 3.0], "two distinct k"),
    ([0.0, 7.0, 7.0], [1.0, 2.0, 3.0], "two distinct k"),
    ([1e16, 1e16 + 2.0], [1.0, 2.0], "two distinct k"),   # equal logs
    ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0], "positive finite"),
    ([1.0, 2.0, 3.0], [1.0, -2.0, 3.0], "positive finite"),
    ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0], "positive finite"),
    ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0], "positive finite"),
    ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0], "finite k"),
])
def test_fit_rate_series_rejects(ks, values, match):
    with pytest.raises(CoreError, match=match):
        fit_rate_series(ks, values)


def test_fit_rate_on_trajectory_window():
    vals = np.concatenate([[np.nan], 1.0 / np.arange(1, 1000)])
    traj = synthetic_traj(vals)
    traj.R_hist[0] = 5.0
    fit = fit_rate(traj, "R", (10, 900))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# plateau


def test_plateau_constant_sequence():
    traj = synthetic_traj(np.full(100, 2.5))
    assert plateau_level(traj, "R", 1.0) == pytest.approx(2.5)


def test_plateau_converged_zero_noise():
    vals = np.concatenate([np.linspace(1, 0, 50), np.zeros(50)])
    traj = synthetic_traj(vals)
    assert plateau_level(traj, "R", 0.25) == 0.0


def test_plateau_skips_non_finite_values():
    """The median of the tail's finite values: 75..98 without 80 and 85."""
    vals = np.arange(100.0)
    vals[[80, 85, 99]] = [np.nan, np.inf, np.nan]
    assert plateau_level(synthetic_traj(vals), "R", 0.25) == 87.5


def test_plateau_short_horizon_rejected():
    traj = synthetic_traj(np.full(5, 1.0))
    with pytest.raises(CoreError):
        plateau_level(traj, "R", 0.5)
    with pytest.raises(CoreError):
        plateau_level(synthetic_traj(np.full(100, 1.0)), "R", 0.0)


# ---------------------------------------------------------------------------
# system-id scenario builder


def test_system_id_builder_shapes_and_structure():
    cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1,
                         horizon=100)
    sc = build_system_id_scenario(cfg)
    assert sc.n_agents == 10 and sc.dim == 5
    assert np.linalg.norm(sc.theta_star) <= 1.0
    for src in sc.sources:
        assert src.gains.shape == (4,)
        assert np.all((0.8 <= src.gains) & (src.gains <= 0.99))


def test_system_id_builder_deterministic():
    cfg = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=9,
                         horizon=10)
    a = build_system_id_scenario(cfg)
    b = build_system_id_scenario(cfg)
    np.testing.assert_array_equal(a.theta_star, b.theta_star)
    for sa, sb in zip(a.sources, b.sources):
        np.testing.assert_array_equal(sa.gains, sb.gains)


def test_system_id_seed_changes_parameters():
    cfg1 = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=1)
    cfg2 = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=2)
    a = build_system_id_scenario(cfg1)
    b = build_system_id_scenario(cfg2)
    assert not np.array_equal(a.theta_star, b.theta_star)


def test_system_id_root_condition_monte_carlo():
    """The aggregate mean field at theta* is statistically zero over
    stationary samples (zero-mean observation noise)."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=5)
    sc = build_system_id_scenario(cfg)
    rng = derive_stream(5, 0, "probe")
    n = 100_000
    acc = np.zeros(sc.dim)
    acc2 = np.zeros(sc.dim)
    for src in sc.sources:
        src.sample_block(rng, 200)  # burn-in to stationarity (A is nilpotent)
        x1, x2 = src.sample_block(rng, n)
        # the quadratic-gradient map at theta*, one row per sample
        v = 2.0 * (x2 - (x1 * sc.theta_star).sum(axis=1))[:, None] * x1
        acc += v.sum(axis=0)
        acc2 += (v * v).sum(axis=0)
    mean = acc / (n * sc.n_agents)
    stderr = np.sqrt(np.clip(acc2 / (n * sc.n_agents) - mean**2, 0, None)
                     / (n * sc.n_agents))
    assert np.all(np.abs(mean) <= 5 * stderr)


def alternating_frames(n):
    """Two frames of disjoint neighbour pairs whose union is the path."""
    even = [[i, i + 1] for i in range(0, n - 1, 2)]
    odd = [[i, i + 1] for i in range(1, n - 1, 2)]
    return f"edges:{json.dumps(even)};edges:{json.dumps(odd)}"


@given(n=st.integers(1, 6), d=st.integers(1, 5),
       step_kind=st.sampled_from(["constant", "diminishing"]),
       time_varying=st.booleans(), seed=st.integers(0, 2**31 - 1),
       horizon=st.sampled_from([127, 128, 129, 300, 500]))
@settings(max_examples=25, deadline=None)
def test_system_id_batched_drift_matches_slow_path(n, d, step_kind,
                                                   time_varying, seed,
                                                   horizon):
    """The batched quadratic drift and the per-agent fallback give the same
    trajectory bit for bit, at horizons that end before, at and after a
    block's edge, with constant and diminishing steps."""
    frames = alternating_frames(n) if time_varying else ""
    cfg = ScenarioConfig(scenario="system_id", n_agents=n, dim=d, seed=seed,
                         horizon=horizon, stride=100, step_kind=step_kind,
                         frames=frames, period_b=2)
    fast = run(build_scenario(cfg), collect_theta_bar=True)
    slow_sc = build_scenario(cfg)
    # a custom-kind operator sends the run down the per-agent loop
    slow_sc.ops[0] = dataclasses.replace(slow_sc.ops[0], kind="custom")
    slow = run(slow_sc, collect_theta_bar=True)
    # identical noise streams, and drift rows that round alike
    for name in ("theta_final", "R_hist", "S_hist", "theta_bar_hist"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()


def reuse_scenarios():
    sysid = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=2,
                           horizon=300, stride=50)
    slow = build_scenario(sysid)
    slow.ops[0] = dataclasses.replace(slow.ops[0], kind="custom")
    grid = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=1,
                          horizon=300, stride=50, maze_files="unused",
                          eval_batch_size=20, step_kind="constant",
                          step_eps=0.05)
    return {"system_id": build_scenario(sysid), "system_id_slow": slow,
            "gridworld": build_gridworld_scenario(
                grid, mazes=[parse_maze(m) for m in MAZES])}


@pytest.mark.parametrize("name", ["system_id", "system_id_slow", "gridworld"])
def test_run_twice_on_one_scenario(name):
    """run() owns every piece of stream state: a second run of the same
    Scenario repeats the first bit for bit and leaves the sources as built."""
    sc = reuse_scenarios()[name]
    states = [copy.deepcopy(src.state) for src in sc.sources]
    first, second = run(sc), run(sc)
    for a, b in ((first.R_hist, second.R_hist), (first.S_hist, second.S_hist),
                 (first.theta_final, second.theta_final),
                 (first.column("td_error"), second.column("td_error"))):
        np.testing.assert_array_equal(a, b)
    for src, state in zip(sc.sources, states):
        np.testing.assert_array_equal(src.state, state)


def test_system_id_rejects_disconnected_fixed_topology():
    cfg = ScenarioConfig(scenario="system_id", n_agents=4, dim=2,
                         topology="edges:[[0,1]]")
    with pytest.raises(ScenarioError):
        build_system_id_scenario(cfg)


def test_system_id_time_varying_schedule():
    cfg = ScenarioConfig(scenario="system_id", n_agents=4, dim=2, seed=1,
                         horizon=50,
                         frames="edges:[[0,1],[2,3]];edges:[[1,2],[0,3]]",
                         period_b=2)
    sc = build_system_id_scenario(cfg)
    assert len(sc.weights) == 2
    traj = run(sc)
    assert not traj.aborted


# ---------------------------------------------------------------------------
# gridworld scenario builder

MAZES = ["S....\n.....\n..#..\n.....\n....G\n",
         "S....\n...#.\n.....\n.#...\n....G\n",
         "S....\n.....\n.#.#.\n.....\n....G\n"]


def test_gridworld_builder_dimensions():
    mazes = [parse_maze(m) for m in MAZES]
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=1,
                         horizon=100, maze_files="unused",
                         eval_batch_size=50)
    sc = build_gridworld_scenario(cfg, mazes=mazes)
    assert sc.dim == 25 * 4
    assert sc.theta_star is None
    assert len(sc.eval_batches) == 3
    assert all(len(b) == 50 for b in sc.eval_batches)


def test_gridworld_eval_batches_are_arrays():
    """Each agent's eval batch is built once as an (m, 4) float array of
    (s, a, r, s') rows, and td_error on it equals td_error on the same
    transitions as a list of tuples."""
    mazes = [parse_maze(m) for m in MAZES]
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=5,
                         horizon=100, maze_files="unused", eval_batch_size=40)
    sc = build_gridworld_scenario(cfg, mazes=mazes)
    listed = []
    for i, m in enumerate(mazes):
        probe = MDPSource(maze=m)
        rng = derive_stream(cfg.seed, i, "eval")
        listed.append([probe.sample(rng) for _ in range(40)])
    for batch, rows in zip(sc.eval_batches, listed):
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == float and batch.shape == (40, 4)
        np.testing.assert_array_equal(batch, np.array(rows, dtype=float))
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.standard_normal((3, sc.dim))
        assert (td_error(theta, eval_columns(sc.eval_batches, sc.ops))
                == td_error(theta, eval_columns(listed, sc.ops)))


def test_gridworld_builder_agent_count_mismatch():
    mazes = [parse_maze(m) for m in MAZES]
    cfg = ScenarioConfig(scenario="gridworld", n_agents=2, dim=100,
                         maze_files="unused")
    with pytest.raises(ScenarioError):
        build_gridworld_scenario(cfg, mazes=mazes)


def test_gridworld_builder_shape_mismatch():
    mazes = [parse_maze("SG\n"), parse_maze("S.\n.G\n")]
    cfg = ScenarioConfig(scenario="gridworld", n_agents=2, dim=8,
                         maze_files="unused")
    with pytest.raises(ScenarioError):
        build_gridworld_scenario(cfg, mazes=mazes)


# ---------------------------------------------------------------------------
# rollout


def test_rollout_one_step_maze():
    maze = parse_maze("SG\n")
    q = value_iteration_q(maze, gamma=0.5)
    res = greedy_policy_rollout(q, maze, max_steps=10)
    assert res.reached and len(res.path) == 2


def test_rollout_zero_theta_deterministic():
    maze = parse_maze("S.\n.G\n")
    a = greedy_policy_rollout(np.zeros(maze.n_cells * 4), maze, max_steps=5)
    b = greedy_policy_rollout(np.zeros(maze.n_cells * 4), maze, max_steps=5)
    assert a.path == b.path
    # ties pick action 0 = "up"; from the top row that bumps the wall forever
    assert not a.reached
    assert set(a.path) == {maze.start}


def test_rollout_value_iteration_solves_desk_mazes():
    for text in MAZES:
        maze = parse_maze(text)
        q = value_iteration_q(maze, gamma=0.5)
        res = greedy_policy_rollout(q, maze, max_steps=25)
        assert res.reached


# ---------------------------------------------------------------------------
# ensembles


def test_seed_ensemble_order_and_independence():
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=0,
                         horizon=50, stride=50)
    trajs = run_seed_ensemble(cfg, seeds=[1, 2, 3])
    assert len(trajs) == 3
    assert not np.array_equal(trajs[0].theta_final, trajs[1].theta_final)
    again = run_seed_ensemble(cfg, seeds=[1, 2, 3])
    for a, b in zip(trajs, again):
        np.testing.assert_array_equal(a.theta_final, b.theta_final)


class StationaryARSource(ARSource):
    """An ARSource whose samples are i.i.d.: each step's X(1) is drawn from
    the AR chain's stationary law, component m being a_1 ... a_m times its
    own fresh clipped normal, with no memory of the step before. X(2) is
    <u, X(1)> plus a clipped normal, as ARSource forms it, so theta* stays
    u and the marginal law of every sample is the chain's."""

    @staticmethod
    def block_sampler(sources, rngs):
        """draw(T, out) with ARSource.block_sampler's out protocol; row 0
        of x, the chain's starting state there, is left as it is."""
        dim = sources[0].dim
        clip = np.array([src.noise_clip for src in sources])[:, None]
        gains = np.cumprod([np.concatenate(([1.0], src.gains))
                            for src in sources], axis=1)
        u = np.array([src.u for src in sources])

        def draw(T, out):
            x1, x2 = out[0][1:T + 1], out[1][:T]
            noise = np.stack([rng.standard_normal((T, dim + 1))
                              for rng in rngs], axis=1)
            noise = np.clip(noise, -clip, clip)
            np.multiply(gains, noise[..., :dim], out=x1)
            row_dots(x1, u, x2, np.empty_like(x2))
            x2 += noise[..., dim]
            return x1, x2

        return draw


def test_markov_rate_matches_iid_control(monkeypatch):
    """The paper's headline claim, against an i.i.d. control: criterion 4's
    config (N = 10, d = 5, eps_k = 1/(k+1), seeds 1-5) run once with the
    AR sources and once with StationaryARSource, both through
    run_seed_ensemble's batched pass (no operator's eval is called).

    Both seed-averaged R decay at criterion 4's 1/k-law slope. The paper
    bounds the Markov rate by the i.i.d. one times a factor of the mixing
    time: each of the tau(eps_k) steps over which a sample still depends
    on its past adds at most one i.i.d.-sized term to the noise that the
    step eps_k carries, so R_markov / R_iid <= 1 + tau(eps_k). With the
    config's beta = 1 and tau(eps) <= beta log(1/eps), every k <= H =
    100 000 has tau(eps_k) <= log(H + 1) < 11.6, so the ratio of the two
    seed-averaged R over the late window 10 000 <= k <= H stays below
    1 + beta log(H + 1). The bound was fixed before either run."""
    t0 = time.perf_counter()
    evals = []

    def counted_operator(dim):
        op = quadratic_grad_operator(dim)

        def counted(x, theta):
            evals.append(1)
            return op.eval(x, theta)

        return dataclasses.replace(op, eval=counted)

    monkeypatch.setattr(experiments, "quadratic_grad_operator",
                        counted_operator)
    cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1,
                         horizon=100_000, stride=1000,
                         step_kind="diminishing", step_eps=1.0)
    R = {}
    for name, source_class in (("markov", ARSource),
                               ("iid", StationaryARSource)):
        monkeypatch.setattr(experiments, "ARSource", source_class)
        trajs = run_seed_ensemble(cfg, seeds=[1, 2, 3, 4, 5])
        R[name] = np.mean([t.R_hist for t in trajs], axis=0)
    elapsed = time.perf_counter() - t0
    ks = np.arange(cfg.horizon + 1)
    fit_window = (ks >= 1000) & (ks <= cfg.horizon)
    slopes = {name: fit_rate_series(ks[fit_window], r[fit_window]).slope
              for name, r in R.items()}
    late = ks >= cfg.horizon // 10
    ratio = R["markov"][late].mean() / R["iid"][late].mean()
    bound = 1.0 + cfg.beta * math.log(cfg.horizon + 1)
    print(f"R slopes {slopes}, late-window R_markov / R_iid {ratio:.3f} "
          f"(bound {bound:.2f}), {elapsed:.1f}s")
    assert evals == []
    for slope in slopes.values():
        assert -1.35 <= slope <= -0.65
    assert ratio < bound
    assert elapsed < 120.0
