import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsa.config import ScenarioConfig
from dcsa.core import CoreError, MetricsTrajectory, run, td_error
from dcsa.experiments import (ScenarioError, build_gridworld_scenario,
                              build_scenario, build_system_id_scenario,
                              fit_rate, fit_rate_series, greedy_policy_rollout,
                              plateau_level, run_seed_ensemble)
from dcsa.operators import (ProblemSpec, eval_local,
                            fixed_point_oracle, value_iteration_q)
from dcsa.rng import derive_stream
from dcsa.sources import MDPSource, parse_maze


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
        sub = np.diag(src.A, k=-1)
        assert np.all((0.8 <= sub) & (sub <= 0.99))
        assert np.count_nonzero(src.A) == 4
    # subdiagonal A is nilpotent: the chain forgets its past in d steps
    assert sc.rho == 0.0


def test_system_id_builder_deterministic():
    cfg = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=9,
                         horizon=10)
    a = build_system_id_scenario(cfg)
    b = build_system_id_scenario(cfg)
    np.testing.assert_array_equal(a.theta_star, b.theta_star)
    for sa, sb in zip(a.sources, b.sources):
        np.testing.assert_array_equal(sa.A, sb.A)


def test_system_id_seed_changes_parameters():
    cfg1 = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=1)
    cfg2 = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=2)
    a = build_system_id_scenario(cfg1)
    b = build_system_id_scenario(cfg2)
    assert not np.array_equal(a.theta_star, b.theta_star)


def test_system_id_theta_star_is_u_oracle():
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=5)
    sc = build_system_id_scenario(cfg)
    fp = fixed_point_oracle(ProblemSpec(operators=sc.ops, sources=sc.sources))
    np.testing.assert_array_equal(fp.theta, sc.theta_star)


def test_system_id_root_condition_monte_carlo():
    """The aggregate mean field at theta* is statistically zero over
    stationary samples (zero-mean observation noise)."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=5)
    sc = build_system_id_scenario(cfg)
    rng = derive_stream(5, 0, "probe")
    n = 100_000
    acc = np.zeros(sc.dim)
    acc2 = np.zeros(sc.dim)
    for src, op in zip(sc.sources, sc.ops):
        for _ in range(200):  # burn-in to stationarity (A is nilpotent)
            src.sample(rng)
        for _ in range(n):
            v = eval_local(op, src.sample(rng), sc.theta_star)
            acc += v
            acc2 += v * v
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
       time_varying=st.booleans(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_system_id_vector_drift_matches_slow_path(n, d, step_kind,
                                                  time_varying, seed):
    frames = alternating_frames(n) if time_varying else ""
    cfg = ScenarioConfig(scenario="system_id", n_agents=n, dim=d, seed=seed,
                         horizon=500, stride=100, step_kind=step_kind,
                         frames=frames, period_b=2)
    fast = run(build_scenario(cfg))
    slow_sc = build_scenario(cfg)
    slow_sc.vector_drift = None
    slow = run(slow_sc)
    # identical noise streams; summation order may differ at machine epsilon
    np.testing.assert_allclose(fast.theta_final, slow.theta_final,
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(fast.R_hist, slow.R_hist, rtol=1e-10,
                               atol=1e-15)


def reuse_scenarios():
    sysid = ScenarioConfig(scenario="system_id", n_agents=4, dim=3, seed=2,
                           horizon=300, stride=50)
    slow = build_scenario(sysid)
    slow.vector_drift = None
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
        probe = MDPSource(maze=m, gamma=cfg.gamma)
        rng = derive_stream(cfg.seed, i, "eval")
        listed.append([probe.sample(rng) for _ in range(40)])
    for batch, rows in zip(sc.eval_batches, listed):
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == float and batch.shape == (40, 4)
        np.testing.assert_array_equal(batch, np.array(rows, dtype=float))
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.standard_normal((3, sc.dim))
        assert (td_error(theta, sc.eval_batches, sc.ops)
                == td_error(theta, listed, sc.ops))


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
