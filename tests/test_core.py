import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsa.core import (AdmissibilityReport, CoreError, RateConstants, Scenario,
                       StepSchedule, admissible_step_check, fit_c_tau,
                       eval_columns, lemma3_residual, lemma4_residual,
                       lyapunov, run, tau_k, td_error)
from dcsa.graphs import WeightMatrix, lazy_metropolis, line_graph
from dcsa.operators import (LocalOperator, TabularFeatures,
                            qlearning_operator, quadratic_grad_operator)
from dcsa.sources import ARSource, MDPSource

from strategies import GAMMAS, mazes


def decay_op(dim=1):
    return LocalOperator(dim=dim, eval=lambda x, t: -np.asarray(t, dtype=float))


def zero_op(dim=1):
    return LocalOperator(dim=dim, eval=lambda x, t: np.zeros(dim))


class NullSource:
    def sample(self, rng):
        return None


def consensus_scenario(n, d, ops, horizon, step, theta0=None, theta_star=None,
                       sources=None, **kw):
    w = lazy_metropolis(line_graph(n))
    return Scenario(sources=sources or [NullSource() for _ in range(n)],
                    ops=ops, step=step, horizon=horizon, seed=0,
                    weights=(w,), theta0=theta0, theta_star=theta_star, **kw)


# ---------------------------------------------------------------------------
# schedules and tau


def test_step_sizes():
    dim = StepSchedule(kind="diminishing", eps=3e-2)
    assert dim.value(0) == pytest.approx(0.03)
    assert dim.value(2) == pytest.approx(0.01)
    const = StepSchedule(kind="constant", eps=5e-4)
    for k in (0, 1, 10_000):
        assert const.value(k) == 5e-4


def test_diminishing_schedule_enforces_eps_floor():
    """The eps >= 8/alpha floor of a diminishing schedule is reported as the
    sign of its admissibility margin, with alpha from the rate constants."""
    rc = RateConstants.from_problem(B=2.0, L=1.5, alpha=4.0, sigma2=0.75,
                                    n_agents=4, theta_star_norm=1.0, c_tau=0.5)

    def margin(eps):
        rep = admissible_step_check(rc, StepSchedule(kind="diminishing", eps=eps),
                                    n_agents=4, sigma2=0.75, beta=1.0,
                                    horizon=10)
        return rep.margins["diminishing_eps_vs_8_over_alpha"]

    assert margin(1.9) < 0
    assert margin(2.0) >= 0   # 8/4 = 2, the boundary


def test_schedule_rejects_bad_kind_or_eps():
    with pytest.raises(CoreError):
        StepSchedule(kind="geometric", eps=0.1)
    for eps in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(CoreError):
            StepSchedule(kind="constant", eps=eps)
        with pytest.raises(CoreError):
            StepSchedule(kind="diminishing", eps=eps)


@pytest.mark.parametrize("sched", [
    StepSchedule(kind="constant", eps=0.3),
    StepSchedule(kind="constant", eps=1),
    StepSchedule(kind="diminishing", eps=0.3),
    StepSchedule(kind="diminishing", eps=1),
])
@pytest.mark.parametrize("k0", [0, 1, 10**6])
@pytest.mark.parametrize("T", [0, 1, 127, 128])
def test_schedule_values_is_a_float64_array_of_value(sched, k0, T):
    """values(k0, T) is the 1-D C-contiguous float64 array the compiled
    step reads, an integer eps included, and holds value(k) for k in
    k0..k0+T-1 byte for byte."""
    got = sched.values(k0, T)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (T,) and got.flags.c_contiguous
    expected = np.array([sched.value(k) for k in range(k0, k0 + T)],
                        dtype=float)
    assert got.tobytes() == expected.tobytes()


def test_tau_k_values():
    assert tau_k(1.0, math.exp(-3)) == 3
    assert tau_k(1.0, 1.0) == 0


@pytest.mark.parametrize("rho", [0.3, -0.1, 1.0, math.nan])
def test_tau_k_rejects_a_nonzero_rho(rho):
    """The third argument is a read-only 0.0: there is no mixing floor."""
    assert tau_k(1.0, math.exp(-3), 0.0) == 3
    with pytest.raises(CoreError, match="no mixing floor"):
        tau_k(1.0, math.exp(-3), rho)


def test_scenario_takes_no_rho():
    """rho is no field of a Scenario: it reads 0.0 and cannot be set."""
    step = StepSchedule(kind="constant", eps=0.1)
    assert consensus_scenario(3, 1, [zero_op(1)] * 3, 1, step).rho == 0.0
    for rho in (0.0, 0.3):
        with pytest.raises(TypeError, match="rho"):
            consensus_scenario(3, 1, [zero_op(1)] * 3, 1, step, rho=rho)


def test_tau_k_slow_growth_diminishing():
    sched = StepSchedule(kind="diminishing", eps=0.5)
    prev = tau_k(1.0, sched.value(0))
    for k in range(1, 2000):
        t = tau_k(1.0, sched.value(k))
        assert t <= prev + 1
        prev = t


# ---------------------------------------------------------------------------
# rate constants and admissibility


def test_rate_constants_formulas():
    B, L, alpha, sigma2, n, ts, c_tau = 2.0, 1.5, 0.8, 0.75, 4, 1.0, 0.5
    rc = RateConstants.from_problem(B, L, alpha, sigma2, n, ts, c_tau)
    tsq1 = ts**2 + 1
    assert rc.C0 == pytest.approx(16 * B**2 * tsq1)
    assert rc.C1 == pytest.approx((60 * B**2 + 45 / 2 + 90 * B * L + 6 * B**2) * tsq1)
    c2 = 21 * B / 2 + 5 / 6 + 8 * L**2 / alpha + 10 * L
    assert rc.C2 == pytest.approx(c2)
    assert rc.C_eps1 == pytest.approx(
        max(6 * B, (45 * B + 132 * B**2 + 192 * B * L) / alpha))
    assert rc.C_eps2 == pytest.approx(max(
        16 * B, 768 * B**2 / (c_tau * alpha),
        alpha / 4 + 128 * B**2 / (c_tau * (1 - sigma2**2)) + 2 * c2,
        32 * B**2 / c2))


def test_fit_c_tau_in_unit_interval():
    sched = StepSchedule(kind="diminishing", eps=0.5)
    c = fit_c_tau(sched, beta=1.0, horizon=5000)
    assert 0.0 < c < 1.0
    # definition: tau_k + 1 <= (1 - c)(k + 1) whenever k > tau_k
    for k in range(1, 5000):
        t = tau_k(1.0, sched.value(k))
        if k > t:
            assert t + 1 <= (1 - c) * (k + 1) + 1e-9


def fit_c_tau_loop(schedule, beta, horizon):
    """fit_c_tau's search over every k of the horizon."""
    best = 1.0
    found = False
    for k in range(1, horizon + 1):
        t = tau_k(beta, schedule.value(k))
        if k > t:
            found = True
            best = min(best, 1.0 - (t + 1) / (k + 1))
    if not found:
        raise CoreError(f"horizon {horizon} is too short to fit c_tau: "
                        f"no k <= {horizon} exceeds tau_k")
    if best <= 0.0:
        raise CoreError("no admissible c_tau: tau_k grows too fast for the horizon")
    return best


def outcome(fn, *args):
    try:
        return fn(*args)
    except CoreError as exc:
        return str(exc)


# beta and horizons of the set-up checks
BETAS = st.floats(0.0, 20.0)
CHECK_HORIZONS = st.one_of(st.integers(0, 400), st.integers(0, 5000))


@given(kind=st.sampled_from(["constant", "diminishing"]),
       eps=st.floats(1e-6, 3.0), beta=BETAS, horizon=CHECK_HORIZONS)
@settings(max_examples=300, deadline=None)
def test_fit_c_tau_matches_loop(kind, eps, beta, horizon):
    """The constant-step closed form and the diminishing-step bisection
    over runs of equal tau_k equal the search, exceptions included."""
    sched = StepSchedule(kind=kind, eps=eps)
    assert (outcome(fit_c_tau, sched, beta, horizon)
            == outcome(fit_c_tau_loop, sched, beta, horizon))


def admissible_step_check_loop(rc, s, n_agents, sigma2, beta, horizon):
    """admissible_step_check's search over every k of the horizon."""
    bound = min(1.0 / (n_agents * rc.C_eps1),
                (1.0 - sigma2**2) / (n_agents * rc.C_eps2))
    margins = {}
    if s.kind == "constant":
        margins["constant_eps_tau"] = bound - s.eps * tau_k(beta, s.eps)
    else:
        margins["diminishing_eps_vs_8_over_alpha"] = s.eps - 8.0 / rc.alpha
        worst = math.inf
        for k in range(horizon + 1):
            t = tau_k(beta, s.value(k))
            if k < t:
                continue
            worst = min(worst, bound - s.value(k - t) * t)
        margins["diminishing_delayed_eps_tau"] = worst
    passed = all(m >= 0 for m in margins.values() if not math.isnan(m))
    return AdmissibilityReport(passed=passed, margins=margins)


@given(kind=st.sampled_from(["constant", "diminishing"]),
       eps=st.one_of(st.floats(1e-6, 3.0), st.floats(1e-6, 1e-3)),
       beta=BETAS, horizon=CHECK_HORIZONS,
       sigma2=st.floats(0.0, 0.99), n_agents=st.integers(1, 10))
@settings(max_examples=300, deadline=None)
def test_admissible_step_check_matches_loop(kind, eps, beta, horizon,
                                            sigma2, n_agents):
    """The bisection over runs of equal tau_k gives the margins of the
    search over every k, exceptions included."""
    rc = sample_constants(sigma2=sigma2)
    sched = StepSchedule(kind=kind, eps=eps)
    args = (rc, sched, n_agents, sigma2, beta, horizon)
    assert (outcome(admissible_step_check, *args)
            == outcome(admissible_step_check_loop, *args))


def sample_constants(sigma2=0.75, c_tau=0.5):
    return RateConstants.from_problem(B=2.0, L=1.5, alpha=0.8, sigma2=sigma2,
                                      n_agents=4, theta_star_norm=1.0,
                                      c_tau=c_tau)


def test_admissibility_gross_violation_fails():
    """eps = 0.5 has tau_k = ceil(log 2) = 1, so eps tau_k is far above the
    bound (at eps >= 1, tau_k is 0 and the margin is the bound itself)."""
    rc = sample_constants()
    rep = admissible_step_check(rc, StepSchedule(kind="constant", eps=0.5),
                                n_agents=4, sigma2=0.75, beta=1.0)
    assert not rep.passed
    assert rep.margins["constant_eps_tau"] < 0


def test_admissibility_tiny_constant_step_passes():
    rc = sample_constants()
    rep = admissible_step_check(rc, StepSchedule(kind="constant", eps=1e-9),
                                n_agents=4, sigma2=0.75, beta=1.0)
    assert rep.passed


def test_admissibility_diminishing_boundary_alpha():
    rc = sample_constants()
    sched = StepSchedule(kind="diminishing", eps=8.0 / 0.8)
    rep = admissible_step_check(rc, sched, n_agents=4, sigma2=0.75, beta=1.0,
                                horizon=100)
    assert rep.margins["diminishing_eps_vs_8_over_alpha"] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# one step and the metrics at k = 0, through run() with horizon 1 or 0


def one_step(n, d, ops, eps, theta0):
    """A horizon-1 run on the lazy-Metropolis path graph."""
    sc = consensus_scenario(n, d, ops, horizon=1, theta0=theta0,
                            step=StepSchedule(kind="constant", eps=eps))
    return run(sc)


def initial_metrics(theta0, theta_star=None):
    """(R^0, S^0) of a horizon-0 run from theta0."""
    theta0 = np.asarray(theta0, dtype=float)
    n, d = theta0.shape
    traj = run(consensus_scenario(n, d, [zero_op(d)] * n, horizon=0,
                                  step=StepSchedule(kind="constant", eps=0.1),
                                  theta0=theta0, theta_star=theta_star))
    return traj.R_hist[0], traj.S_hist[0]


def test_dcsa_step_consensus_fixed_point():
    traj = one_step(3, 2, [zero_op(2)] * 3, 0.7, np.full((3, 2), 4.2))
    np.testing.assert_allclose(traj.theta_final, np.full((3, 2), 4.2),
                               atol=1e-14)


def test_dcsa_step_pure_consensus():
    """A vanishing step leaves exactly the gossip average W theta."""
    w = lazy_metropolis(line_graph(3))
    theta0 = np.array([[1.0], [2.0], [3.0]])
    traj = one_step(3, 1, [decay_op(1)] * 3, 1e-300, theta0)
    np.testing.assert_allclose(traj.theta_final, w.entries @ theta0,
                               atol=1e-15)
    assert traj.records[-1].k == 1


def test_dcsa_step_single_agent_derived():
    traj = one_step(1, 1, [decay_op(1)], 0.5, np.array([[1.0]]))
    assert traj.theta_final[0, 0] == pytest.approx(0.5)


def test_dcsa_step_dimension_check():
    step = StepSchedule(kind="constant", eps=0.1)
    eye2 = WeightMatrix(entries=np.eye(2))
    with pytest.raises(CoreError):
        Scenario(sources=[NullSource()] * 3, ops=[zero_op(1)] * 3, step=step,
                 horizon=1, seed=0, weights=(eye2,))
    with pytest.raises(CoreError):
        Scenario(sources=[NullSource()] * 3, ops=[zero_op(1)] * 3, step=step,
                 horizon=1, seed=0,
                 weights=(lazy_metropolis(line_graph(3)), eye2))
    with pytest.raises(CoreError):
        Scenario(sources=[NullSource()] * 3, ops=[zero_op(1)] * 3, step=step,
                 horizon=1, seed=0, weights=())
    w3 = lazy_metropolis(line_graph(3))
    with pytest.raises(CoreError, match="shape"):
        Scenario(sources=[NullSource()] * 3, ops=[zero_op(2)] * 3, step=step,
                 horizon=1, seed=0, weights=(w3,), theta0=np.zeros((3, 1)))
    # a non-finite theta0 would be measured at k = 0, before any abort
    with pytest.raises(CoreError, match="finite"):
        Scenario(sources=[NullSource()] * 3, ops=[zero_op(2)] * 3, step=step,
                 horizon=1, seed=0, weights=(w3,),
                 theta0=[[np.inf, 1], [-np.inf, 1], [np.nan, 3]])


def test_consensus_error_values():
    assert initial_metrics(np.array([[2.0], [2.0]]))[1] == 0.0
    assert initial_metrics(np.array([[1.0], [-1.0]]))[1] \
        == pytest.approx(2.0)
    assert initial_metrics(np.full((3, 2), -7.3))[1] \
        == pytest.approx(0.0, abs=1e-24)


def test_optimality_error_values():
    theta0 = np.array([[3.0]])
    assert initial_metrics(theta0, np.array([1.0]))[0] == pytest.approx(4.0)
    assert initial_metrics(theta0, np.array([3.0]))[0] == 0.0
    assert math.isnan(initial_metrics(theta0, None)[0])


def test_lyapunov_values():
    assert lyapunov(0.0, 0.0, 0.0) == 0.0
    assert lyapunov(4.0, 2.0, 2.0) == 8.0
    assert math.isnan(lyapunov(math.nan, 1.0, 1.0))


def test_lemma3_residual_identity():
    rc = sample_constants()
    sigma2, n, eps = 0.75, 4, 0.01
    gap = 1 - sigma2**2
    bound = ((1 + sigma2**2) / 2 * 2.0
             + 32 * eps**2 * rc.B**2 * n / gap * 1.5
             + n * rc.C0 / gap * eps**2)
    slack = lemma3_residual(S_k=0.5, S_prev=2.0, R_prev=1.5, eps_prev=eps,
                            rc=rc, n_agents=n, sigma2=sigma2)
    assert slack == pytest.approx(bound - 0.5)


def test_lemma3_residual_columns_match_scalars():
    """With each run's B and C0 as an (S, 1) column, every entry equals the
    scalar call of its run bit for bit: B^2 is rounded as a Python float's
    ** 2 rounds it, which an ndarray's ** 2 does not always match."""
    rng = np.random.default_rng(7)
    Bs = rng.uniform(0.5, 500.0, 10_000)
    assert (Bs**2).tolist() != [B**2 for B in Bs.tolist()]
    rcs = [RateConstants.from_problem(B=B, L=0.5, alpha=0.8, sigma2=0.75,
                                      n_agents=4, theta_star_norm=1.0,
                                      c_tau=0.5) for B in Bs]
    stacked = dataclasses.replace(
        rcs[0], B=Bs[:, None], C0=np.array([[rc.C0] for rc in rcs]))
    # R_prev far above 1 makes the B^2 term the largest, so that its last
    # bit shows in the slack
    S_k, S_prev, R_prev = rng.random((3, len(Bs), 2))
    R_prev *= 1e6
    eps = np.array([0.01, 0.003])
    slack = lemma3_residual(S_k, S_prev, R_prev, eps, stacked, 4, 0.75)
    expected = [[lemma3_residual(S_k[s, j], S_prev[s, j], R_prev[s, j],
                                 eps[j], rc, 4, 0.75) for j in range(2)]
                for s, rc in enumerate(rcs)]
    assert slack.tobytes() == np.array(expected).tobytes()


def test_lemma3_pure_consensus_contraction():
    """eps = 0 on the 3-node path from S = 2: the recursion bound
    (1 + sigma2^2)/2 * S dominates the contracted S."""
    theta0 = np.array([[1.0], [0.0], [-1.0]])  # S = 2
    traj = one_step(3, 1, [zero_op(1)] * 3, 0.1, theta0)
    s_next = traj.S_hist[1]
    assert s_next <= (1 + 0.75**2) / 2 * 2.0 + 1e-12


def test_lemma3_consensus_point_slack():
    rc = sample_constants()
    slack = lemma3_residual(S_k=0.0, S_prev=0.0, R_prev=0.0, eps_prev=0.01,
                            rc=rc, n_agents=4, sigma2=0.75)
    assert slack == pytest.approx(4 * rc.C0 / (1 - 0.75**2) * 1e-4)
    assert slack >= 0


def test_lemma4_residual_identity_and_zero_noise():
    rc = sample_constants()
    n_seeds, horizon = 30, 6
    R = np.zeros((n_seeds, horizon + 1))
    S = np.zeros((n_seeds, horizon + 1))
    eps_fn = lambda k: 0.01
    tau_fn = lambda k: 2
    ks, slack, stderr = lemma4_residual(R, S, eps_fn, tau_fn, rc, n_agents=4)
    # all-zero metrics: slack = N C1 eps_k eps_{k-tau} tau >= 0, stderr = 0
    np.testing.assert_array_equal(ks, np.arange(2, horizon))
    np.testing.assert_allclose(slack, 4 * rc.C1 * 0.01 * 0.01 * 2)
    assert np.max(stderr) <= 1e-12


def test_lemma4_requires_30_seeds():
    rc = sample_constants()
    with pytest.raises(CoreError):
        lemma4_residual(np.zeros((5, 4)), np.zeros((5, 4)),
                        lambda k: 0.01, lambda k: 1, rc, n_agents=4)


def lemma4_residual_loop(R_by_seed, S_by_seed, eps_fn, tau_fn, rc, n_agents):
    """lemma4_residual one k at a time."""
    R = np.asarray(R_by_seed, dtype=float)
    S = np.asarray(S_by_seed, dtype=float)
    if R.shape != S.shape or R.ndim != 2:
        raise CoreError("R and S seed arrays must share shape (n_seeds, horizon+1)")
    n_seeds, n_iters = R.shape
    if n_seeds < 30:
        raise CoreError(f"need >= 30 seed replicates, got {n_seeds}")
    ks, slack, stderr = [], [], []
    for k in range(n_iters - 1):
        t = tau_fn(k)
        if k < t:
            continue
        e_k = eps_fn(k)
        per_seed = ((1.0 - rc.alpha * e_k / 2.0) * R[:, k]
                    + n_agents * rc.C1 * e_k * eps_fn(k - t) * t
                    + n_agents * rc.C2 * e_k * (S[:, k] + S[:, k - t])
                    - R[:, k + 1])
        ks.append(k)
        slack.append(float(per_seed.mean()))
        stderr.append(float(per_seed.std(ddof=1) / math.sqrt(n_seeds)))
    return np.array(ks), np.array(slack), np.array(stderr)


@given(kind=st.sampled_from(["constant", "diminishing"]),
       eps=st.floats(1e-4, 2.0), beta=st.floats(0.0, 5.0),
       n_seeds=st.sampled_from([29, 30, 31, 47]),
       horizon=st.one_of(st.integers(0, 80),
                         st.sampled_from([255, 256, 257, 258, 700])),
       scale=st.sampled_from([1e-6, 1.0, 1e3]),
       mismatched=st.booleans(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_lemma4_residual_matches_loop(kind, eps, beta, n_seeds, horizon,
                                      scale, mismatched, seed):
    """The array passes over k (chunks of 256 rows) equal the per-k loop
    bit for bit, errors included."""
    sched = StepSchedule(kind=kind, eps=eps)
    rc = sample_constants()
    rng = np.random.default_rng(seed)
    R = scale * rng.random((n_seeds, horizon + 1))
    S = scale * rng.random((n_seeds, horizon + 1 + mismatched))
    args = (R, S, sched.value, lambda k: tau_k(beta, sched.value(k)), rc, 4)
    new, ref = outcome(lemma4_residual, *args), outcome(lemma4_residual_loop, *args)
    if isinstance(ref, str):
        assert new == ref
        return
    for got, want in zip(new, ref):
        np.testing.assert_array_equal(got, want)


def td_error_loop(theta_rows, eval_batches, ops):
    """Reference: the mean |Bellman residual| summed one transition at a
    time."""
    total = 0.0
    count = 0
    for theta, batch, op in zip(theta_rows, eval_batches, ops):
        feats = op.params["features"]
        gamma = op.params["gamma"]
        for (s, a, r, s_next) in batch:
            q_next = float(np.max(feats.q_values(theta, s_next)))
            total += abs(float(r) + gamma * q_next - theta[feats.index(s, a)])
            count += 1
    return total / count


@given(mazes(), GAMMAS,
       st.lists(st.integers(0, 40), min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_td_error_values(maze, gamma, sizes, seed):
    feats = TabularFeatures(n_states=1, n_actions=1)
    op = qlearning_operator(feats, gamma=0.5)
    batch = [(0, 0, 1.0, 0)]
    columns = eval_columns([batch], [op])
    assert td_error([np.zeros(1)], columns) == pytest.approx(1.0)
    assert td_error([np.array([2.0])], columns) == pytest.approx(0.0)
    with pytest.raises(CoreError):
        eval_columns([[]], [op])
    with pytest.raises(CoreError):
        eval_columns([batch], [quadratic_grad_operator(1)])
    # the agents' states are offset into one table: their features must
    # agree, and a state or action beyond them would read another agent's
    with pytest.raises(CoreError):
        eval_columns([batch, batch],
                     [op, qlearning_operator(TabularFeatures(1, 2), 0.5)])
    for beyond in [(1, 0, 1.0, 0), (0, 1, 1.0, 0), (0, 0, 1.0, 1),
                   (-1, 0, 1.0, 0)]:
        with pytest.raises(CoreError):
            eval_columns([[beyond], batch], [op, op])

    # random maze batches against the loop; the last agent's batch is empty
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    ops = [qlearning_operator(feats, gamma) for _ in range(len(sizes) + 1)]
    rng = np.random.default_rng(seed)
    src = MDPSource(maze=maze)
    batches = [[src.sample(rng) for _ in range(m)] for m in sizes] + [[]]
    theta_rows = rng.standard_normal((len(ops), feats.dim))
    if sum(sizes) == 0:
        with pytest.raises(CoreError):
            eval_columns(batches, ops)
    else:
        columns = eval_columns(batches, ops)
        assert td_error(theta_rows, columns) == pytest.approx(
            td_error_loop(theta_rows, batches, ops), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the outer loop


def test_run_horizon_zero():
    sc = consensus_scenario(3, 1, [zero_op(1)] * 3, horizon=0,
                            step=StepSchedule(kind="constant", eps=0.1))
    traj = run(sc)
    assert len(traj.records) == 1
    assert traj.records[0].k == 0


def test_run_single_agent_geometric():
    """N=1, F = -theta, eps = 0.5: theta_k = 0.5^k, R_k = 0.25^k exactly."""
    sc = Scenario(sources=[NullSource()], ops=[decay_op(1)],
                  step=StepSchedule(kind="constant", eps=0.5), horizon=20,
                  seed=0, weights=(lazy_metropolis(line_graph(1)),),
                  theta0=np.array([[1.0]]), theta_star=np.array([0.0]))
    traj = run(sc)
    expected = 0.25 ** np.arange(21)
    np.testing.assert_allclose(traj.R_hist, expected, rtol=1e-12)


def test_run_fixed_point_stays_put():
    theta_star = np.array([1.5, -0.5])
    u = theta_star

    def noise_free_eval(x, t):
        x1 = np.array([1.0, 2.0])
        x2 = float(u @ x1)
        return -2.0 * (float(x1 @ t) - x2) * x1

    ops = [LocalOperator(dim=2, eval=noise_free_eval) for _ in range(3)]
    theta0 = np.tile(theta_star, (3, 1))
    sc = consensus_scenario(3, 2, ops, horizon=50,
                            step=StepSchedule(kind="constant", eps=0.05),
                            theta0=theta0, theta_star=theta_star)
    traj = run(sc)
    np.testing.assert_allclose(traj.R_hist, np.zeros(51), atol=1e-24)
    np.testing.assert_allclose(traj.S_hist, np.zeros(51), atol=1e-24)


def test_run_consensus_preservation_eps_zero():
    """Double stochasticity: theta_bar is invariant under pure consensus."""
    rng = np.random.default_rng(0)
    theta0 = rng.standard_normal((5, 3))
    sc = consensus_scenario(5, 3, [zero_op(3)] * 5, horizon=200,
                            step=StepSchedule(kind="constant", eps=1e-9),
                            theta0=theta0)
    # eps is effectively zero because the operator is identically zero
    traj = run(sc, collect_theta_bar=True)
    bar0 = theta0.mean(axis=0)
    for k in range(201):
        np.testing.assert_allclose(traj.theta_bar_hist[k], bar0, atol=1e-12)


def test_run_s_contraction_eps_zero():
    rng = np.random.default_rng(1)
    theta0 = rng.standard_normal((5, 2))
    w = lazy_metropolis(line_graph(5))
    sc = consensus_scenario(5, 2, [zero_op(2)] * 5, horizon=100,
                            step=StepSchedule(kind="constant", eps=1e-300),
                            theta0=theta0)
    traj = run(sc)
    for k in range(1, 101):
        assert traj.S_hist[k] <= w.sigma2**2 * traj.S_hist[k - 1] + 1e-12


def test_run_average_dynamics_identity():
    """theta_bar^{k+1} = theta_bar^k + (eps_k / N) sum_i F_i exactly."""
    rng = np.random.default_rng(2)
    n, d = 4, 3

    class SeqSource:
        def sample(self, rng_):
            return rng_.standard_normal(d)

    def drift_eval(x, t):
        return np.asarray(x) - 0.5 * np.asarray(t)

    ops = [LocalOperator(dim=d, eval=drift_eval) for _ in range(n)]
    theta0 = rng.standard_normal((n, d))
    sched = StepSchedule(kind="diminishing", eps=0.3)
    w = lazy_metropolis(line_graph(n))
    sc = Scenario(sources=[SeqSource() for _ in range(n)], ops=ops, step=sched,
                  horizon=50, seed=7, weights=(w,), theta0=theta0)
    traj = run(sc, collect_theta_bar=True)

    # replay the identical sample streams and verify the average recursion
    from dcsa.rng import derive_stream
    rngs = [derive_stream(7, i, "sample") for i in range(n)]
    Theta = theta0.copy()
    for k in range(50):
        eps = sched.value(k)
        drift = np.array([drift_eval(rngs[i].standard_normal(d), Theta[i])
                          for i in range(n)])
        bar_next_expected = Theta.mean(axis=0) + eps / n * drift.sum(axis=0)
        Theta = w.entries @ Theta + eps * drift
        np.testing.assert_allclose(traj.theta_bar_hist[k + 1],
                                   bar_next_expected, atol=1e-12)


def test_run_permutation_equivariance():
    n, d = 4, 2
    perm = np.array([2, 0, 3, 1])
    rng = np.random.default_rng(3)
    theta0 = rng.standard_normal((n, d))
    w = lazy_metropolis(line_graph(n)).entries

    class OffsetOp:
        """Deterministic drift that depends on the agent through theta only."""

        def __init__(self):
            self.dim = d
            self.eval = lambda x, t: -np.asarray(t) + 1.0

    def simulate(weights, init):
        Theta = init.copy()
        for _ in range(30):
            drift = -Theta + 1.0
            Theta = weights @ Theta + 0.1 * drift
        return Theta

    base = simulate(w, theta0)
    permuted = simulate(w[np.ix_(perm, perm)], theta0[perm])
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_aborts_on_divergence():
    blowup = LocalOperator(dim=1, eval=lambda x, t: np.asarray(t) * 1e10 + 1e300)
    sc = consensus_scenario(2, 1, [blowup] * 2, horizon=100,
                            step=StepSchedule(kind="constant", eps=1e3))
    traj = run(sc)
    assert traj.aborted
    assert "non-finite" in traj.abort_reason


def test_run_stride_logging():
    sc = consensus_scenario(3, 1, [zero_op(1)] * 3, horizon=25,
                            step=StepSchedule(kind="constant", eps=0.1),
                            stride=10)
    traj = run(sc)
    assert [r.k for r in traj.records] == [0, 10, 20, 25]


def test_run_lemma2_drift_bound():
    """||bar^k - bar^{k-tau}|| <= 3 eps_{k-tau} B tau (||bar^k||
    + sqrt(S^{k-tau})/N + 1) along a small admissible run."""
    n, d = 3, 2
    rng = np.random.default_rng(4)
    u = rng.standard_normal(d) * 0.3
    srcs = [ARSource(gains=np.zeros(d - 1), u=u, noise_clip=3.0)
            for _ in range(n)]
    ops = [quadratic_grad_operator(d) for _ in range(n)]
    sc = consensus_scenario(n, d, ops, horizon=2000,
                            step=StepSchedule(kind="constant", eps=1e-3),
                            sources=srcs, theta_star=u, beta=1.0)
    traj = run(sc, collect_theta_bar=True)
    # B bound for this instance: ||x1|| <= 3, |x2| <= |u| . 3 + 3
    from dcsa.sources import ar_state_bound
    xb = ar_state_bound(np.zeros(d - 1), 3.0)
    x1n = float(np.linalg.norm(xb))
    B = max(2 * x1n**2, 2 * (float(np.abs(u) @ xb) + 3.0) * x1n)
    t = tau_k(1.0, 1e-3)
    for k in range(t, 2001):
        drift = np.linalg.norm(traj.theta_bar_hist[k] - traj.theta_bar_hist[k - t])
        bound = 3 * 1e-3 * B * t * (np.linalg.norm(traj.theta_bar_hist[k])
                                    + math.sqrt(traj.S_hist[k - t]) / n + 1)
        assert drift <= bound + 1e-12


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_run_is_deterministic(n, d, seed):
    ops = [decay_op(d) for _ in range(n)]

    class NoiseSource:
        def sample(self, rng_):
            return rng_.standard_normal(d)

    def build():
        return Scenario(sources=[NoiseSource() for _ in range(n)],
                        ops=[LocalOperator(dim=d,
                                           eval=lambda x, t: np.asarray(x) - t)
                             for _ in range(n)],
                        step=StepSchedule(kind="constant", eps=0.05),
                        horizon=40, seed=seed,
                        weights=(lazy_metropolis(line_graph(n)),))
    a, b = run(build()), run(build())
    np.testing.assert_array_equal(a.theta_final, b.theta_final)
    np.testing.assert_array_equal(a.S_hist, b.S_hist)
