
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsa.operators import (LocalOperator, OperatorError, ProblemSpec,
                            TabularFeatures, ar_stationary_covariance,
                            clipped_normal_variance, estimate_constants,
                            estimate_mean_field, eval_local, eval_mean_field,
                            fixed_point_oracle, probe_thetas,
                            qlearning_block_drift, qlearning_operator,
                            quadratic_block_drift, quadratic_grad_operator,
                            system_id_constants, value_iteration_q)
from dcsa.rng import derive_stream
from dcsa.sources import (ARSource, FiniteChain, MDPSource, SourceError,
                          ar_state_bound, parse_maze)

from strategies import GAMMAS, mazes


# ---------------------------------------------------------------------------
# quadratic-gradient operator


def test_quadratic_op_zero_sample():
    op = quadratic_grad_operator(3)
    out = eval_local(op, (np.zeros(3), 0.0), np.array([5.0, -2.0, 1.0]))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_quadratic_op_d1_derived():
    op = quadratic_grad_operator(1)
    # F = -2 (theta x1 - x2) x1 with x = (1, 2), theta = 0 -> 4
    assert eval_local(op, (np.ones(1), 2.0), np.zeros(1))[0] == pytest.approx(4.0)
    # x = (1, 0), theta = 1 -> -2
    assert eval_local(op, (np.ones(1), 0.0), np.ones(1))[0] == pytest.approx(-2.0)


def test_quadratic_op_residual_zero_at_u():
    u = np.array([0.3, -0.4])
    op = quadratic_grad_operator(2, u)
    x1 = np.array([1.5, 2.5])
    x2 = float(u @ x1)  # noise-free observation
    np.testing.assert_allclose(eval_local(op, (x1, x2), u), np.zeros(2),
                               atol=1e-14)


def test_quadratic_op_matches_finite_differences():
    rng = np.random.default_rng(2024)
    d = 4
    op = quadratic_grad_operator(d)
    h = 1e-6
    for _ in range(100):
        x1 = rng.standard_normal(d)
        x2 = float(rng.standard_normal())
        theta = rng.standard_normal(d)

        def f(t):
            return (float(x1 @ t) - x2) ** 2

        grad = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            grad[i] = (f(theta + e) - f(theta - e)) / (2 * h)
        val = eval_local(op, (x1, x2), theta)
        np.testing.assert_allclose(val, -grad, rtol=1e-6, atol=1e-6)


def ar_block(seed, i, d, T):
    """T samples of an ARSource with a random subdiagonal A."""
    rng = np.random.default_rng([seed, i])
    A = np.diag(rng.uniform(0.8, 0.99, d - 1), k=-1)
    src = ARSource(A=A, u=rng.standard_normal(d))
    return src.sample_block(derive_stream(seed, i, "sample"), T)


def signed_zeros(rng, shape):
    """Standard normals with about a fifth of the entries -0.0 and a fifth
    +0.0."""
    x = rng.standard_normal(shape)
    u = rng.random(shape)
    x[u < 0.2] = -0.0
    x[u > 0.8] = 0.0
    return x


@given(st.integers(1, 5), st.integers(1, 10), st.integers(0, 130),
       st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_quadratic_block_drift_matches_eval(n, d, T, eps, seed):
    """The batched step adds eps times its agent's operator eval at that
    step to every row of out in place: out0 + eps * eval, bit for bit and
    signed zeros included, for N agents with their own AR sources and at
    any theta; d above 8 takes numpy's pairwise sums."""
    op = quadratic_grad_operator(d)
    blocks = [ar_block(seed, i, d, T) for i in range(n)]
    step = quadratic_block_drift(*(np.stack(x, axis=1)
                                   for x in zip(*blocks)))
    rng = np.random.default_rng(seed)
    for t in range(T):
        theta = signed_zeros(rng, (n, d))
        out0 = signed_zeros(rng, (n, d))
        expected = out0 + eps * np.stack(
            [op.eval((x1[t], float(x2[t])), theta[i])
             for i, (x1, x2) in enumerate(blocks)])
        out = out0.copy()
        step(theta, t, eps, out)
        assert out.tobytes() == expected.tobytes()


def test_eval_local_dimension_check():
    op = quadratic_grad_operator(2)
    with pytest.raises(OperatorError):
        eval_local(op, (np.zeros(2), 0.0), np.zeros(3))


# ---------------------------------------------------------------------------
# Q-learning operator


def one_state_one_action():
    return TabularFeatures(n_states=1, n_actions=1)


def test_qlearning_single_state_theta_zero():
    op = qlearning_operator(one_state_one_action(), gamma=0.5)
    out = eval_local(op, (0, 0, 1.0, 0), np.zeros(1))
    assert out[0] == pytest.approx(1.0)


def test_qlearning_bellman_fixed_point():
    op = qlearning_operator(one_state_one_action(), gamma=0.5)
    # at theta = 2: 1 + 0.5*2 - 2 = 0
    out = eval_local(op, (0, 0, 1.0, 0), np.array([2.0]))
    assert out[0] == pytest.approx(0.0)


def test_qlearning_zero_reward_zero_theta():
    feats = TabularFeatures(n_states=3, n_actions=2)
    op = qlearning_operator(feats, gamma=0.9)
    out = eval_local(op, (1, 0, 0.0, 2), np.zeros(feats.dim))
    np.testing.assert_array_equal(out, np.zeros(feats.dim))


def test_qlearning_tie_breaks_to_smallest_action():
    feats = TabularFeatures(n_states=1, n_actions=2)
    theta = np.array([3.0, 3.0])  # equal Q for both actions
    assert int(np.argmax(feats.q_values(theta, 0))) == 0


@given(mazes(), GAMMAS, st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_qlearning_eval_matches_explicit_formula(maze, gamma, seed):
    """The operator's one-hot slot holds r + gamma max_a' theta[s', a'] -
    theta[s, a] exactly, on transitions sampled from a random maze."""
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    op = qlearning_operator(feats, gamma)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(feats.dim)
    src = MDPSource(maze=maze)
    for _ in range(20):
        s, a, r, s_next = x = src.sample(rng)
        n_a = feats.n_actions
        expected = np.zeros(feats.dim)
        expected[s * n_a + a] = (float(r) + gamma * float(
            np.max(theta[s_next * n_a:(s_next + 1) * n_a]))
            - float(theta[s * n_a + a]))
        np.testing.assert_array_equal(eval_local(op, x, theta), expected)


@given(st.lists(mazes((4, 3)), min_size=1, max_size=4), GAMMAS,
       st.integers(0, 130), st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_qlearning_block_drift_matches_eval(maze_list, gamma, T, eps, seed):
    """The batched step adds eps times its agent's operator eval at that
    step to the agent's one-hot slot of out in place, out0 + eps * eval
    bit for bit (signed zeros included), for N agents on their own mazes,
    at any theta. Every other entry of out keeps its bytes, which equal
    out0 + eps * eval unless out0 is -0.0 there: W @ Theta, what the
    engine passes as out0, has no -0.0."""
    feats = TabularFeatures(12, 4)
    op = qlearning_operator(feats, gamma)
    blocks = [MDPSource(maze=m).sample_block(derive_stream(seed, i, "sample"),
                                             T)
              for i, m in enumerate(maze_list)]
    step = qlearning_block_drift(feats, gamma, *(np.stack(x, axis=1)
                                                 for x in zip(*blocks)))
    rng = np.random.default_rng(seed)
    n = len(maze_list)
    for t in range(T):
        theta = signed_zeros(rng, (n, feats.dim))
        out0 = signed_zeros(rng, (n, feats.dim))
        evals = np.stack([
            op.eval((int(s[t]), int(a[t]), float(r[t]), int(s_next[t])),
                    theta[i])
            for i, (s, a, r, s_next) in enumerate(blocks)])
        in_slot = np.zeros(out0.shape, dtype=bool)
        for i, (s, a, _, _) in enumerate(blocks):
            in_slot[i, feats.index(s[t], a[t])] = True
        assert not evals[~in_slot].any()
        expected = out0 + eps * evals
        expected[~in_slot] = out0[~in_slot]
        assert (expected == out0 + eps * evals).all()
        out = out0.copy()
        step(theta, t, eps, out)
        assert out.tobytes() == expected.tobytes()


def test_qlearning_block_drift_rejects_states_beyond_features():
    """A maze with more cells than the features' states would read another
    agent's rows of the stacked table."""
    block = MDPSource(maze=parse_maze("S...G")).sample_block(
        np.random.default_rng(0), 50)
    with pytest.raises(OperatorError):
        qlearning_block_drift(TabularFeatures(3, 4), 0.9,
                              *(np.stack([x, x], axis=1) for x in block))


def test_qlearning_rejects_bad_gamma():
    with pytest.raises(OperatorError):
        qlearning_operator(one_state_one_action(), gamma=1.0)


def test_tabular_features_one_hot():
    feats = TabularFeatures(n_states=3, n_actions=4)
    phi = feats.vector(2, 1)
    assert phi.sum() == 1.0
    assert phi[feats.index(2, 1)] == 1.0
    assert feats.dim == 12


# ---------------------------------------------------------------------------
# mean fields


def test_eval_mean_field_constant_operator():
    const = LocalOperator(dim=1, eval=lambda x, t: np.array([7.0]))
    chain = FiniteChain(transition=[[0.7, 0.3], [0.3, 0.7]])
    assert eval_mean_field(const, chain, np.zeros(1))[0] == pytest.approx(7.0)


def test_eval_mean_field_symmetric_cancellation():
    op = LocalOperator(dim=1,
                       eval=lambda x, t: np.array([1.0 if x == 0 else -1.0]))
    chain = FiniteChain(transition=[[0.7, 0.3], [0.3, 0.7]])  # mu = (1/2, 1/2)
    assert eval_mean_field(op, chain, np.zeros(1))[0] == pytest.approx(0.0)


def test_eval_mean_field_weighted():
    op = LocalOperator(dim=1,
                       eval=lambda x, t: np.array([3.0 if x == 0 else 0.0]))
    chain = FiniteChain(transition=[[0.8, 0.2], [0.1, 0.9]])  # mu = (1/3, 2/3)
    assert eval_mean_field(op, chain, np.zeros(1))[0] == pytest.approx(1.0)


def test_eval_mean_field_rejects_continuous_source():
    op = quadratic_grad_operator(1)
    src = ARSource(A=np.zeros((1, 1)), u=np.ones(1))
    with pytest.raises(OperatorError, match="estimate_mean_field"):
        eval_mean_field(op, src, np.zeros(1))


def test_monte_carlo_mean_field_matches_exact():
    op = LocalOperator(dim=1,
                       eval=lambda x, t: np.array([3.0 if x == 0 else 0.0]))
    chain = FiniteChain(transition=[[0.8, 0.2], [0.1, 0.9]])
    exact = eval_mean_field(op, chain, np.zeros(1))
    mean, stderr = estimate_mean_field(op, chain, np.zeros(1), 100_000,
                                       derive_stream(0, 0, "probe"))
    # Markov samples are correlated; allow a generous multiple of the iid SE
    assert abs(mean[0] - exact[0]) <= 25 * max(stderr[0], 1e-12)


# ---------------------------------------------------------------------------
# constants


def test_estimate_constants_linear_operator():
    op = LocalOperator(dim=2, eval=lambda x, t: -np.asarray(t))
    pairs = probe_thetas(2, derive_stream(0, 0, "probe"))
    oc = estimate_constants(op, [None], pairs)
    assert oc.L == pytest.approx(1.0)
    assert oc.B == pytest.approx(1.0)


def test_estimate_constants_constant_operator():
    c = np.array([3.0, 4.0])
    op = LocalOperator(dim=2, eval=lambda x, t: c)
    pairs = probe_thetas(2, derive_stream(0, 0, "probe"))
    oc = estimate_constants(op, [None], pairs)
    assert oc.L == pytest.approx(0.0)
    assert oc.B == pytest.approx(5.0)


def test_estimate_constants_rejects_degenerate_pair():
    op = LocalOperator(dim=1, eval=lambda x, t: np.asarray(t))
    with pytest.raises(OperatorError):
        estimate_constants(op, [None], [(np.ones(1), np.ones(1))])


def test_affine_bound_lemma1():
    """||F(x, theta)|| <= B (||theta|| + 1) on probes, with estimated B."""
    rng = derive_stream(3, 0, "probe")
    d = 3
    op = quadratic_grad_operator(d)
    src = ARSource(A=np.diag(np.zeros(d)), u=rng.standard_normal(d),
                   noise_clip=3.0)
    samples = [src.sample(rng) for _ in range(200)]
    pairs = probe_thetas(d, rng)
    oc = estimate_constants(op, samples, pairs)
    for x in samples:
        for theta, _ in pairs:
            norm = np.linalg.norm(eval_local(op, x, theta))
            assert norm <= oc.B * (np.linalg.norm(theta) + 1.0) + 1e-9


def test_clipped_normal_variance():
    # clip -> infinity recovers the unit variance
    assert clipped_normal_variance(50.0) == pytest.approx(1.0, abs=1e-12)
    # Monte Carlo check at clip = 1
    rng = np.random.default_rng(0)
    draws = np.clip(rng.standard_normal(2_000_000), -1.0, 1.0)
    assert clipped_normal_variance(1.0) == pytest.approx(draws.var(), abs=2e-3)
    # the scipy.stats form of the same expression, to within one ulp
    from scipy import stats
    for c in (0.1, 1.0, 3.0, 50.0):
        ref = ((stats.norm.cdf(c) - stats.norm.cdf(-c))
               - 2.0 * c * stats.norm.pdf(c) + c * c * 2.0 * stats.norm.sf(c))
        assert abs(clipped_normal_variance(c) - ref) <= np.finfo(float).eps * ref


def test_ar_stationary_covariance_d2():
    # X(1)_1 = q-variance noise, X(1)_2 = a times the previous noise
    a, clip = 0.5, 3.0
    q = clipped_normal_variance(clip)
    cov = ar_stationary_covariance(np.diag([a], k=-1), clip)
    np.testing.assert_array_equal(cov, np.diag([q, a * a * q]))


@st.composite
def stable_matrices(draw):
    """Subdiagonal system-id matrices, d from 1 to 12."""
    d = draw(st.integers(1, 12))
    sub = draw(st.lists(st.floats(0.8, 0.99), min_size=d - 1, max_size=d - 1))
    return np.diag(sub, -1)


@given(stable_matrices(), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_ar_stationary_covariance_matches_scipy(A, clip):
    from scipy.linalg import solve_discrete_lyapunov
    q = np.zeros(A.shape)
    q[0, 0] = clipped_normal_variance(clip)
    ref = solve_discrete_lyapunov(A, q)
    cov = ar_stationary_covariance(A, clip)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(cov, ref, rtol=1e-10, atol=1e-10 * scale)
    assert np.max(np.abs(A @ cov @ A.T + q - cov)) <= 1e-12 * scale


def test_ar_stationary_covariance_rejects_unstable_and_overflowing_A():
    """Only a subdiagonal A is accepted, so unstable matrices and ones with
    a nonzero diagonal are refused before any sum is formed."""
    for A in (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
              np.array([[1.01]]), np.array([[0.5, 0.0], [1e300, 0.5]])):
        with pytest.raises(SourceError, match="subdiagonal"):
            ar_stationary_covariance(A, 3.0)


def solve_state_bound(A, clip):
    """The state bound (I - |A|)^-1 e1 clip by a dense linear solve."""
    e1 = np.zeros(A.shape[0])
    e1[0] = 1.0
    return np.linalg.solve(np.eye(A.shape[0]) - np.abs(A), e1) * float(clip)


@st.composite
def system_id_sources(draw):
    """1-4 ARSources of one dimension d from 1 to 12, with signed
    subdiagonal entries of magnitude in [0.8, 0.99] and a shared u."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    clip = draw(st.floats(0.1, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(d)
    return [ARSource(A=np.diag(rng.choice([-1.0, 1.0], d - 1)
                               * rng.uniform(0.8, 0.99, d - 1), k=-1),
                     u=u, noise_clip=clip) for _ in range(n)]


@given(system_id_sources())
@settings(max_examples=200, deadline=None)
def test_system_id_closed_forms_match_linear_algebra(sources):
    """The state bound and B, L are bit-equal to the dense-solve bound, and
    alpha agrees with 2 lambda_min of the summed Lyapunov solutions."""
    from scipy.linalg import solve_discrete_lyapunov
    l_max = b_zero = 0.0
    cov_sum = 0.0
    for src in sources:
        xmax = solve_state_bound(src.A, src.noise_clip)
        np.testing.assert_array_equal(
            ar_state_bound(src.A, src.noise_clip), xmax)
        x1_norm = float(np.linalg.norm(xmax))
        x2_max = float(np.abs(src.u) @ xmax) + src.noise_clip
        l_max = max(l_max, 2.0 * x1_norm**2)
        b_zero = max(b_zero, 2.0 * x2_max * x1_norm)
        q = np.zeros(src.A.shape)
        q[0, 0] = clipped_normal_variance(src.noise_clip)
        cov_sum = cov_sum + solve_discrete_lyapunov(src.A, q)
    oc = system_id_constants(sources)
    assert oc.L == l_max
    assert oc.B == max(l_max, b_zero)
    alpha = 2.0 * float(np.min(np.linalg.eigvalsh(cov_sum)))
    assert oc.alpha == pytest.approx(alpha, rel=1e-12, abs=0)


def test_system_id_constants_alpha_d1():
    # d=1, A=0: stationary E[X^2] = q, so alpha = 2 N q
    clip = 3.0
    q = clipped_normal_variance(clip)
    srcs = [ARSource(A=np.zeros((1, 1)), u=np.ones(1), noise_clip=clip)
            for _ in range(4)]
    oc = system_id_constants(srcs)
    assert oc.alpha == pytest.approx(2 * 4 * q)
    assert oc.B >= oc.L > 0


def test_one_point_monotonicity_quadratic():
    """<Fbar(theta) - Fbar(theta*), theta - theta*> <= -alpha ||theta-theta*||^2
    per agent, with Fbar computed from the exact stationary covariance."""
    rng = derive_stream(9, 0, "probe")
    d = 3
    A = np.zeros((d, d))
    A[1, 0] = A[2, 1] = 0.9
    u = rng.standard_normal(d)
    src = ARSource(A=A, u=u, noise_clip=3.0)
    cov = ar_stationary_covariance(A, 3.0)
    alpha = 2.0 * float(np.min(np.linalg.eigvalsh(cov)))

    def mean_field(theta):
        # E[-2 (theta^T X - u^T X - noise) X] = -2 Cov (theta - u)
        return -2.0 * cov @ (theta - u)

    for _ in range(1000):
        theta = u + rng.standard_normal(d) * 5
        gap = theta - u
        lhs = float(mean_field(theta) @ gap)
        assert lhs <= -alpha * float(gap @ gap) * (1 - 1e-6) + 1e-12


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_quadratic_is_u():
    u = np.array([1.0, 0.0, 0.0])
    ops = [quadratic_grad_operator(3, u) for _ in range(3)]
    srcs = [ARSource(A=np.zeros((3, 3)), u=u) for _ in range(3)]
    fp = fixed_point_oracle(ProblemSpec(operators=ops, sources=srcs))
    np.testing.assert_array_equal(fp.theta, u)
    assert fp.unique


def test_fixed_point_single_state_qlearning():
    maze = parse_maze("SG\n")
    q = value_iteration_q(maze, gamma=0.5)
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    # from the start, action "right" (index 3) reaches the goal: Q = 1 + 0
    assert q[feats.index(maze.start, 3)] == pytest.approx(1.0)
    # goal rows are never updated by the sampled chain
    for a in range(4):
        assert q[feats.index(1, a)] == 0.0


def test_value_iteration_closed_form_self_loop():
    """Single non-goal cell bumping into walls forever earns 0; stepping to
    the goal earns 1 and teleports: Q(start, right) solves the Bellman
    recursion with max Q(goal, .) = 0."""
    maze = parse_maze("S.G\n")
    q = value_iteration_q(maze, gamma=0.5)
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    q_mid_right = q[feats.index(1, 3)]
    assert q_mid_right == pytest.approx(1.0)
    # start moving right lands mid-cell: 0 + 0.5 * max_a Q(mid, a) = 0.5
    assert q[feats.index(0, 3)] == pytest.approx(0.5)


def value_iteration_loop(maze, gamma, tol=1e-12):
    """Reference scalar Jacobi sweep: every non-goal, non-obstacle (s, a)
    takes r + gamma max_a' Q(s', a') from the previous sweep's Q."""
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    q = np.zeros(feats.dim)
    non_goal = [s for s in range(maze.n_cells)
                if s not in maze.goals and not maze.is_obstacle(s)]
    while True:
        delta = 0.0
        new = q.copy()
        for s in non_goal:
            for a in range(maze.n_actions):
                t, r = maze.move(s, a)
                target = r + gamma * float(np.max(feats.q_values(q, t)))
                idx = feats.index(s, a)
                delta = max(delta, abs(target - q[idx]))
                new[idx] = target
        q = new
        if delta <= tol:
            return q


# gamma <= 0.99 bounds the sweeps (about log(tol) / log(gamma)) the scalar
# reference has to run
@given(mazes(), st.floats(0.01, 0.99))
@settings(max_examples=30, deadline=None)
def test_value_iteration_matches_scalar_sweep(maze, gamma):
    np.testing.assert_allclose(value_iteration_q(maze, gamma),
                               value_iteration_loop(maze, gamma), rtol=1e-12)


def test_fixed_point_degenerate_flags_non_unique():
    zero_op = LocalOperator(dim=2, eval=lambda x, t: np.zeros(2))
    chain = FiniteChain(transition=[[0.5, 0.5], [0.5, 0.5]])
    fp = fixed_point_oracle(ProblemSpec(operators=[zero_op], sources=[chain]))
    assert not fp.unique
    np.testing.assert_array_equal(fp.theta, np.zeros(2))


def test_fixed_point_finite_chain_linear():
    op = LocalOperator(dim=1, eval=lambda x, t: np.array([1.0]) - np.asarray(t))
    chain = FiniteChain(transition=[[0.5, 0.5], [0.5, 0.5]])
    fp = fixed_point_oracle(ProblemSpec(operators=[op], sources=[chain]))
    assert fp.theta[0] == pytest.approx(1.0, abs=1e-9)


def test_root_condition_at_fixed_point():
    op = LocalOperator(dim=1, eval=lambda x, t: np.array([1.0]) - np.asarray(t))
    chain = FiniteChain(transition=[[0.5, 0.5], [0.5, 0.5]])
    fp = fixed_point_oracle(ProblemSpec(operators=[op], sources=[chain]))
    resid = eval_mean_field(op, chain, fp.theta)
    assert np.linalg.norm(resid) <= 1e-8


def test_fixed_point_requires_shared_u():
    ops = [quadratic_grad_operator(1, np.array([1.0])),
           quadratic_grad_operator(1, np.array([2.0]))]
    srcs = [ARSource(A=np.zeros((1, 1)), u=np.ones(1)) for _ in range(2)]
    with pytest.raises(OperatorError):
        fixed_point_oracle(ProblemSpec(operators=ops, sources=srcs))
