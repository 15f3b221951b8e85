"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These are end-to-end checks at desk scale: weight-matrix invariants, spot
spectral values, mixing-time oracle consistency, rate-law reproduction for
diminishing and constant schedules, per-iteration lemma residuals, Q-learning
fixed points, the multi-task GridWorld experiment, time-varying topologies,
determinism, and the invariant micro-suite.  Tolerances and runtime budgets
are asserted, not just reported.
"""

import time

import numpy as np

from dcsa.cli import main
from dcsa.config import ScenarioConfig, parse_topology
from dcsa.core import (Scenario, StepSchedule, lemma4_residual, run, tau_k)
from dcsa.experiments import (build_scenario, build_gridworld_scenario,
                              fit_rate_series, greedy_policy_rollout,
                              run_seed_ensemble)
from dcsa.graphs import (Graph, WeightMatrix, lazy_metropolis, line_graph,
                         validate_graph)
from dcsa.operators import (LocalOperator, estimate_constants, eval_local,
                            probe_thetas, quadratic_grad_operator,
                            qlearning_operator, TabularFeatures)
from dcsa.rng import derive_stream
from dcsa.sources import (ARSource, FiniteChain, fit_mixing_profile,
                          mixing_time, parse_maze)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_connected_graph(rng, n):
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        j = order[idx]
        i = order[rng.integers(0, idx)]
        edges.add((min(i, j), max(i, j)))
    for _ in range(rng.integers(0, n)):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return Graph(n, frozenset((int(a), int(b)) for a, b in edges))


# ---------------------------------------------------------------------------


def test_criterion_01_weight_validity():
    """100 random connected graphs: lazy-Metropolis invariants to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        g = random_connected_graph(rng, n)
        w = lazy_metropolis(g)
        m = w.entries
        worst = max(worst,
                    float(np.max(np.abs(m.sum(axis=0) - 1.0))),
                    float(np.max(np.abs(m.sum(axis=1) - 1.0))),
                    float(np.max(np.abs(m - m.T))))
        assert np.all(m >= -1e-12)
        # support: positive entries only on edges and the diagonal
        for i in range(n):
            for j in range(i + 1, n):
                on_edge = (i, j) in g.edges
                assert (m[i, j] > 0.0) == on_edge
        assert w.sigma2 < 1.0
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"max invariant violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_sigma2_spot_value():
    """3-node path lazy Metropolis has sigma2 = 0.75 exactly."""
    sigma2 = lazy_metropolis(line_graph(3)).sigma2
    err = abs(sigma2 - 0.75)
    report(2, err <= 1e-10, f"sigma2 = {sigma2:.12f}")


def test_criterion_03_mixing_time_oracle_equivalence():
    """50 random ergodic 5-state chains: measured mixing time is monotone in
    eps and never exceeds the first k at which the fitted bound m rho^k <= eps."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(50):
        # strictly positive rows guarantee ergodicity
        p = rng.uniform(0.05, 1.0, size=(5, 5))
        p /= p.sum(axis=1, keepdims=True)
        chain = FiniteChain(transition=p)
        prof = fit_mixing_profile(chain, [0.1, 0.01])
        taus = {}
        for eps in (0.1, 0.01):
            tau = mixing_time(chain, eps)
            taus[eps] = tau
            if prof.rho > 0.0:
                k_bound = 0
                while prof.m * prof.rho**k_bound > eps:
                    k_bound += 1
                assert tau <= k_bound, (tau, k_bound, eps)
            checked += 1
        assert taus[0.01] >= taus[0.1]
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 10.0, f"{checked} bound checks, {elapsed:.1f}s")


def test_criterion_04_diminishing_rate():
    """Seed-averaged R^k decays at a 1/k-law slope; S^k at least as fast."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1,
                         horizon=100_000, stride=1000,
                         step_kind="diminishing", step_eps=1.0)
    trajs = run_seed_ensemble(cfg, seeds=[1, 2, 3, 4, 5])
    R = np.mean([t.R_hist for t in trajs], axis=0)
    S = np.mean([t.S_hist for t in trajs], axis=0)
    ks = np.arange(len(R))
    win = (ks >= 1000) & (ks <= 100_000)
    fr = fit_rate_series(ks[win], R[win])
    fs = fit_rate_series(ks[win], S[win])
    elapsed = time.perf_counter() - t0
    ok = (-1.35 <= fr.slope <= -0.65 and fs.slope <= fr.slope + 0.1
          and elapsed < 120.0)
    report(4, ok, f"R slope {fr.slope:.3f} (r2 {fr.r2:.3f}), "
                  f"S slope {fs.slope:.3f}, {elapsed:.1f}s")


def test_criterion_05_constant_step_plateau():
    """Constant-step plateaus at eps and eps/2 scale like Theta(eps log 1/eps)."""
    t0 = time.perf_counter()

    def plateau(eps, horizon, k_min):
        cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1,
                             horizon=horizon, stride=horizon,
                             step_kind="constant", step_eps=eps)
        trajs = run_seed_ensemble(cfg, seeds=[1, 2, 3, 4, 5])
        R = np.mean([t.R_hist for t in trajs], axis=0)
        ks = np.arange(len(R))
        win = ks >= k_min
        fit = fit_rate_series(ks[win], R[win])
        return float(np.median(R[win])), fit.slope

    level1, slope1 = plateau(5e-3, 60_000, 15_000)
    level2, slope2 = plateau(2.5e-3, 80_000, 20_000)
    ratio = level1 / level2
    elapsed = time.perf_counter() - t0
    ok = (abs(slope1) <= 0.1 and abs(slope2) <= 0.1
          and 1.3 <= ratio <= 2.8 and elapsed < 120.0)
    report(5, ok, f"tail slopes {slope1:.3f}/{slope2:.3f}, "
                  f"plateau ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_06_lemma_residuals():
    """Lemma 3 pathwise and Lemma 4 ensemble recursion slacks stay
    nonnegative within tolerance on a small-step quadratic run."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=1,
                         horizon=3000, stride=100, step_kind="constant",
                         step_eps=1e-4, compute_constants=True)
    sc = build_scenario(cfg)
    rc = sc.constants
    # the pathwise recursion needs eps <= (1 - sigma2^2) / (8 sqrt(2) B N)
    eps_cap = (1.0 - sc.sigma2**2) / (8.0 * np.sqrt(2.0) * rc.B * 3)
    assert cfg.step_eps <= eps_cap
    traj = run(sc)
    min3 = traj.min_lemma3_slack

    trajs = run_seed_ensemble(cfg, seeds=range(1, 31))
    R = np.vstack([t.R_hist for t in trajs])
    S = np.vstack([t.S_hist for t in trajs])
    ks, slack, stderr = lemma4_residual(
        R, S, sc.step.value,
        lambda k: tau_k(cfg.beta, sc.step.value(k)), rc, 3)
    violations = int(np.sum(slack < -3.0 * stderr))
    elapsed = time.perf_counter() - t0
    ok = min3 >= -1e-9 and violations == 0 and elapsed < 120.0
    report(6, ok, f"min lemma3 slack {min3:.3e}, lemma4 violations "
                  f"{violations}/{len(ks)}, {elapsed:.1f}s")


def test_criterion_07_qlearning_fixed_point():
    """Single-state single-action MDP, r = 1, gamma = 0.5: theta* = 2."""

    class LoopMDP:
        def sample(self, rng):
            return (0, 0, 1.0, 0)

    feats = TabularFeatures(1, 1)
    op = qlearning_operator(feats, 0.5)
    sc = Scenario(sources=[LoopMDP()], ops=[op],
                  step=StepSchedule(kind="constant", eps=5e-3),
                  horizon=10_000, seed=0,
                  weights=(WeightMatrix.from_matrix(np.ones((1, 1))),),
                  stride=10_000, theta_star=np.array([2.0]))
    traj = run(sc)
    err = abs(float(traj.theta_final[0, 0]) - 2.0)
    report(7, err <= 1e-2, f"theta = {traj.theta_final[0, 0]:.4f}")


MAZES_5x5 = [
    "S.###\n#.#..\n#....\n###.#\n###.G\n",
    "S.###\n#.##.\n#....\n###.#\n###.G\n",
    "S.###\n#.###\n#....\n###.#\n###.G\n",
]


def test_criterion_08_multitask_gridworld():
    """3 agents / 3 mazes on a line graph: the final consensus greedy policy
    solves every maze and the TD error drops below 10% of its initial value."""
    t0 = time.perf_counter()
    mazes = [parse_maze(text) for text in MAZES_5x5]
    horizon = 500_000  # far beyond 500 episodes of random-walk length
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=1,
                         horizon=horizon, stride=horizon // 20, gamma=0.5,
                         step_kind="diminishing", step_eps=25.0,
                         maze_files="inline", eval_batch_size=200)
    sc = build_gridworld_scenario(cfg, mazes=mazes)
    traj = run(sc)
    td0 = traj.records[0].td_error
    tdf = traj.records[-1].td_error
    bar = traj.theta_final.mean(axis=0)
    rollouts = [greedy_policy_rollout(bar, m, 25) for m in mazes]
    solved = [r.reached for r in rollouts]
    elapsed = time.perf_counter() - t0
    ok = all(solved) and tdf < 0.1 * td0 and elapsed < 120.0
    report(8, ok, f"TD {td0:.4f} -> {tdf:.4f} (ratio {tdf / td0:.3f}), "
                  f"solved {sum(solved)}/3, {elapsed:.1f}s")


def test_criterion_09_time_varying_graphs():
    """2-frame B=2 schedule of individually disconnected matchings on 10
    agents still converges at a 1/k-law slope."""
    t0 = time.perf_counter()
    frame1 = "edges:[[0,1],[2,3],[4,5],[6,7],[8,9]]"
    frame2 = "edges:[[1,2],[3,4],[5,6],[7,8],[9,0]]"
    for frame in (frame1, frame2):
        assert not validate_graph(parse_topology(frame, 10)).connected
    cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1,
                         horizon=30_000, stride=30_000,
                         step_kind="diminishing", step_eps=1.0,
                         frames=f"{frame1};{frame2}", period_b=2)
    trajs = run_seed_ensemble(cfg, seeds=[1, 2, 3])
    R = np.mean([t.R_hist for t in trajs], axis=0)
    ks = np.arange(len(R))
    win = ks >= 300
    fit = fit_rate_series(ks[win], R[win])
    elapsed = time.perf_counter() - t0
    ok = -1.35 <= fit.slope <= -0.5
    report(9, ok, f"R slope {fit.slope:.3f} (r2 {fit.r2:.3f}), {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    """Identical config+seed gives byte-identical CSV; relabeling agents
    permutes the per-agent outputs."""
    cfg_text = ("scenario = system_id\nn_agents = 4\ndim = 3\nseed = 9\n"
                "horizon = 500\nstride = 50\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    identical = ((out1 / "metrics.csv").read_bytes()
                 == (out2 / "metrics.csv").read_bytes())

    # permutation equivariance with agent-symmetric deterministic drift
    n, d = 4, 2
    perm = np.array([2, 0, 3, 1])
    rng = np.random.default_rng(3)
    theta0 = rng.standard_normal((n, d))
    w = lazy_metropolis(line_graph(n)).entries
    ops = [LocalOperator(dim=d, eval=lambda x, t: -np.asarray(t) + 1.0)
           for _ in range(n)]

    class NullSource:
        def sample(self, rng_):
            return None

    def simulate(weights, init):
        sc = Scenario(sources=[NullSource() for _ in range(n)], ops=ops,
                      step=StepSchedule(kind="constant", eps=0.1),
                      horizon=30, seed=0,
                      weights=(WeightMatrix.from_matrix(weights),),
                      theta0=init)
        return run(sc).theta_final

    base = simulate(w, theta0)
    permuted = simulate(w[np.ix_(perm, perm)], theta0[perm])
    perm_err = float(np.max(np.abs(permuted - base[perm])))
    ok = identical and perm_err <= 1e-12
    report(10, ok, f"CSV identical {identical}, "
                   f"permutation error {perm_err:.2e}")


def test_criterion_11_invariant_micro_suite():
    """Consensus preservation, average-dynamics identity, S-contraction,
    the affine drift bound, and the gradient finite-difference check."""
    n, d = 5, 3
    w = lazy_metropolis(line_graph(n))
    rng = np.random.default_rng(0)
    theta0 = rng.standard_normal((n, d))

    class NullSource:
        def sample(self, rng_):
            return None

    zero_ops = [LocalOperator(dim=d, eval=lambda x, t: np.zeros(d))
                for _ in range(n)]
    sc = Scenario(sources=[NullSource() for _ in range(n)], ops=zero_ops,
                  step=StepSchedule(kind="constant", eps=1e-300),
                  horizon=100, seed=0, weights=(w,), theta0=theta0)
    traj = run(sc, collect_theta_bar=True)
    bar0 = theta0.mean(axis=0)
    consensus_err = float(np.max(np.abs(traj.theta_bar_hist - bar0)))
    contraction_ok = all(
        traj.S_hist[k] <= w.sigma2**2 * traj.S_hist[k - 1] + 1e-12
        for k in range(1, 101))

    # average-dynamics identity: replay the sample streams exactly
    class GaussSource:
        def sample(self, rng_):
            return rng_.standard_normal(d)

    drift_ops = [LocalOperator(dim=d,
                               eval=lambda x, t: np.asarray(x) - 0.5 * np.asarray(t))
                 for _ in range(n)]
    sched = StepSchedule(kind="diminishing", eps=0.3)
    sc2 = Scenario(sources=[GaussSource() for _ in range(n)], ops=drift_ops,
                   step=sched, horizon=50, seed=7, weights=(w,),
                   theta0=theta0.copy())
    traj2 = run(sc2, collect_theta_bar=True)
    rngs = [derive_stream(7, i, "sample") for i in range(n)]
    Theta = theta0.copy()
    avg_err = 0.0
    for k in range(50):
        eps = sched.value(k)
        drift = np.vstack([np.asarray(s.sample(rngs[i])) - 0.5 * Theta[i]
                           for i, s in enumerate(sc2.sources)])
        expect = Theta.mean(axis=0) + eps / n * drift.sum(axis=0)
        Theta = w.entries @ Theta + eps * drift
        avg_err = max(avg_err,
                      float(np.max(np.abs(traj2.theta_bar_hist[k + 1] - expect))))

    # affine bound of the drift (estimated B on probes)
    probe_rng = derive_stream(3, 0, "probe")
    op = quadratic_grad_operator(d)
    src = ARSource(gains=np.zeros(d - 1), u=probe_rng.standard_normal(d),
                   noise_clip=3.0)
    samples = [src.sample(probe_rng) for _ in range(200)]
    pairs = probe_thetas(d, probe_rng)
    oc = estimate_constants(op, samples, pairs)
    affine_ok = all(
        np.linalg.norm(eval_local(op, x, theta))
        <= oc.B * (np.linalg.norm(theta) + 1.0) + 1e-9
        for x in samples for theta, _ in pairs)

    # gradient versus central finite differences
    fd_rng = np.random.default_rng(2024)
    grad_err = 0.0
    h = 1e-6
    for _ in range(100):
        x1 = fd_rng.standard_normal(d)
        x2 = float(fd_rng.standard_normal())
        theta = fd_rng.standard_normal(d)
        drift_val = eval_local(op, (x1, x2), theta)
        for axis in range(d):
            e = np.zeros(d)
            e[axis] = h
            fd = ((float(x1 @ (theta + e)) - x2) ** 2
                  - (float(x1 @ (theta - e)) - x2) ** 2) / (2 * h)
            scale = max(1.0, abs(fd))
            grad_err = max(grad_err, abs(-drift_val[axis] - fd) / scale)

    ok = (consensus_err <= 1e-12 and contraction_ok and avg_err <= 1e-12
          and affine_ok and grad_err <= 1e-6)
    report(11, ok, f"consensus {consensus_err:.1e}, avg-dyn {avg_err:.1e}, "
                   f"grad {grad_err:.1e}, contraction {contraction_ok}, "
                   f"affine {affine_ok}")
