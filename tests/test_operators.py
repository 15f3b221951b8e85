
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsa import operators
from dcsa.operators import (LocalOperator, OperatorError, TabularFeatures,
                            ar_stationary_covariance, bellman_residual,
                            clipped_normal_variance, estimate_constants,
                            eval_local, probe_thetas,
                            qlearning_block_drift, qlearning_operator,
                            quadratic_block_drift, quadratic_grad_operator,
                            system_id_constants, value_iteration_q)
from dcsa.rng import derive_stream
from dcsa.sources import ARSource, MDPSource, ar_state_bound, parse_maze

from strategies import (GAMMAS, mazes, signed_zeros, special_values,
                        step_each)


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
    op = quadratic_grad_operator(2)
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


def ar_source(seed, i, d):
    """An ARSource with random gains."""
    rng = np.random.default_rng([seed, i])
    gains = rng.uniform(0.8, 0.99, d - 1)
    return ARSource(gains=gains, u=rng.standard_normal(d))


def ar_block(seed, i, d, T):
    """T samples of ar_source(seed, i, d)."""
    return ar_source(seed, i, d).sample_block(derive_stream(seed, i, "sample"),
                                              T)


@given(st.integers(1, 5), st.integers(1, 10), st.integers(0, 130),
       st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1),
       st.sampled_from([1.0, 3e307]))
# theta near 3e307 puts some r * x1 just below the overflow threshold and
# 2 * r * x1 above it, where a step that rounded (2 eps) * (r * x1) would
# give a finite entry for eval's inf
@example(n=3, d=2, T=20, eps=0.5, seed=0, scale=3e307)
@settings(max_examples=60, deadline=None)
def test_quadratic_block_drift_matches_eval(n, d, T, eps, seed, scale):
    """Each step of the batched advance adds eps times its agent's
    operator eval at that step to every row of its W Theta, out0, in place:
    out0 + eps * eval, bit for bit and signed zeros included, for N agents
    with their own AR sources and at any theta, overflowing ones included;
    d above 8 takes numpy's pairwise sums."""
    op = quadratic_grad_operator(d)
    blocks = [ar_block(seed, i, d, T) for i in range(n)]
    (x, x2), advance, _ = quadratic_block_drift(d, n, T)
    x[1:] = np.stack([b1 for b1, _ in blocks], axis=1)
    x2[:] = np.stack([b2 for _, b2 in blocks], axis=1)
    rng = np.random.default_rng(seed)
    thetas = scale * signed_zeros(rng, (T, n, d))
    outs = signed_zeros(rng, (T, n, d))
    expected = np.empty_like(outs)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            expected[t] = outs[t] + eps * np.stack(
                [op.eval((x1[t], float(x2[t])), thetas[t, i])
                 for i, (x1, x2) in enumerate(blocks)])
        got = step_each(advance, thetas, outs, [eps] * T)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kernel", [None, operators.STEP],
                         ids=["numpy", "compiled"])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 8])
def test_quadratic_block_drift_zero_x2_signed_zeros(d, kernel):
    """Where x2 is zero, the sign of a zero row sum shows in the residual:
    with every product -0.0, eval's sum, which starts from +0.0, is +0.0,
    so x2 = -0.0 gives -0.0 - (+0.0) = -0.0 and x2 = +0.0 gives +0.0. Both
    steps, numpy's and the compiled one (the numpy step again where it did
    not load, and for d >= 8), must equal out0 + eps * eval, bit for bit,
    -0.0 included."""
    op = quadratic_grad_operator(d)
    (x, x2), advance, _ = quadratic_block_drift(d, 2, 1, kernel)
    x[1] = np.arange(1.0, d + 1)           # X(1) of step 0: (agents, d)
    x2[0] = [-0.0, 0.0]                    # X(2) of step 0: (agents,)
    theta = np.full((2, d), -0.0)          # every product is -0.0
    out0 = np.full((2, d), -0.0)
    expected = out0 + 0.5 * np.stack([op.eval((x[1, i], float(x2[0, i])),
                                              theta[i]) for i in range(2)])
    out = step_each(advance, theta[None], out0[None], [0.5])[0]
    assert out.tobytes() == expected.tobytes()
    assert np.signbit(expected[0]).all() and not np.signbit(expected[1]).any()


@pytest.mark.parametrize("d", [2, 5])
@given(st.integers(1, 4), st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_quadratic_block_drift_refills_its_buffers_every_block(d, n, eps,
                                                               seed):
    """One builder, made once as the engine makes it per run, and driven
    through consecutive blocks of 128, 1, 0, 77 and 128 steps that one
    ARSource.block_sampler draws into its buffers: every step of every
    block equals out0 + eps * eval, bit for bit. For d = 2 the 77-step
    block has a zero x2, at a step whose products x1 * theta are both
    -0.0, where the sign of the zero row sum shows in every entry of that
    agent's -0.0 row of out0 plus its zero update, and the blocks around
    it have none. A draw that left a row of the builder's x1 or x2 buffers
    as the block before it filled it would make the step read that block's
    samples."""
    op = quadratic_grad_operator(d)
    draw = ARSource.block_sampler(
        [ar_source(seed, i, d) for i in range(n)],
        [derive_stream(seed, i, "sample") for i in range(n)])
    buffers, advance, _ = quadratic_block_drift(d, n, 128)
    rng = np.random.default_rng(seed)
    for T in (128, 1, 0, 77, 128):
        x1, x2 = draw(T, buffers)
        assert np.all(x2 != 0)
        thetas = signed_zeros(rng, (T, n, d))
        outs = signed_zeros(rng, (T, n, d))
        if d == 2 and T == 77:
            x2[40, 0] = -0.0
            thetas[40, 0] = np.copysign(0.0, -x1[40, 0])
            outs[40, 0] = -0.0   # where the sign of the zero update shows
        expected = np.empty_like(outs)
        for t in range(T):
            expected[t] = outs[t] + eps * np.stack(
                [op.eval((x1[t, i], float(x2[t, i])), thetas[t, i])
                 for i in range(n)])
        got = step_each(advance, thetas, outs, [eps] * T)
        assert got.tobytes() == expected.tobytes()


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


def row_wise_residual(q, gamma, s, a, r, s_next):
    """The reference Bellman residual on the (states x actions) table q:
    one max per gathered row."""
    return (r + gamma * np.maximum.reduce(q.take(s_next, axis=0), axis=-1)
            - q[s, a])


@given(st.integers(1, 6), st.integers(1, 8), GAMMAS,
       st.sampled_from([(), (1,), (7,), (200,), (20, 3)]),
       st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_bellman_residual_matches_row_wise_max(n_states, n_actions, gamma,
                                               shape, seed):
    """bellman_residual equals the row-wise reference bit for bit, NaN and
    signed zeros included, on tables with +-0.0, +-inf and NaN entries,
    for scalar indices (eval), 1-D ones (td_error, value_iteration_q) and
    (T, agents) ones. Up to 8 actions: numpy reduces a longer contiguous
    row with SIMD, which can give the other zero of a tie of +0.0 and
    -0.0."""
    rng = np.random.default_rng(seed)
    q = special_values(rng, (n_states, n_actions))
    s, s_next = rng.integers(0, n_states, size=(2,) + shape)
    a = rng.integers(0, n_actions, size=shape)
    r = signed_zeros(rng, shape)
    if shape == ():
        s, a, s_next, r = int(s), int(a), int(s_next), float(r)
    with np.errstate(invalid="ignore"):   # inf - inf
        got = bellman_residual(TabularFeatures(n_states, n_actions), gamma,
                               q.ravel(), s, a, r, s_next)
        expected = row_wise_residual(q, gamma, s, a, r, s_next)
    assert np.shape(got) == shape
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@given(st.lists(mazes((4, 3)), min_size=1, max_size=4), GAMMAS,
       st.integers(0, 130), st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_qlearning_block_drift_matches_eval(maze_list, gamma, T, eps, seed):
    """Each step of the batched advance adds eps times its agent's Bellman
    residual at that step, by the row-wise reference, to the agent's
    one-hot slot of its W Theta, out0, in place, bit for bit (signed zeros
    and NaN included), for N agents on their own mazes, at any theta:
    every third step's theta has +-inf and NaN entries, as the first
    non-finite iterate of a diverging run does, which the engine steps
    before its per-block check aborts the run. Every other entry of out
    keeps its bytes. The slots also equal out0 + eps * eval, the per-agent
    step; elsewhere that sum differs from out0 only where out0 is -0.0,
    which W @ Theta, what the engine passes as out0, never holds."""
    feats = TabularFeatures(12, 4)
    op = qlearning_operator(feats, gamma)
    blocks = [MDPSource(maze=m).sample_block(derive_stream(seed, i, "sample"),
                                             T)
              for i, m in enumerate(maze_list)]
    n = len(maze_list)
    advance = qlearning_block_drift(feats, gamma, n, T)[0](
        *(np.stack(x, axis=1) for x in zip(*blocks)))
    rng = np.random.default_rng(seed)
    thetas = np.empty((T, n, feats.dim))
    for t in range(T):
        draw = special_values if t % 3 == 0 else signed_zeros
        thetas[t] = draw(rng, (n, feats.dim))
    outs = signed_zeros(rng, (T, n, feats.dim))
    with np.errstate(invalid="ignore"):   # inf - inf
        got = step_each(advance, thetas, outs, [eps] * T)
    for t in range(T):
        theta, out0, out = thetas[t], outs[t], got[t]
        expected = out0.copy()
        in_slot = np.zeros(out0.shape, dtype=bool)
        with np.errstate(invalid="ignore"):   # inf - inf
            for i, (s, a, r, s_next) in enumerate(blocks):
                res = row_wise_residual(theta[i].reshape(12, 4), gamma,
                                        s[t], a[t], r[t], s_next[t])
                j = feats.index(s[t], a[t])
                expected[i, j] += eps * res
                in_slot[i, j] = True
            evals = np.stack([
                op.eval((int(s[t]), int(a[t]), float(r[t]), int(s_next[t])),
                        theta[i])
                for i, (s, a, r, s_next) in enumerate(blocks)])
        assert out.tobytes() == expected.tobytes()
        assert ((out0 + eps * evals)[in_slot].tobytes()
                == expected[in_slot].tobytes())


def test_qlearning_block_drift_rejects_states_beyond_features():
    """A maze with more cells than the features' states would read another
    agent's rows of the stacked table."""
    block = MDPSource(maze=parse_maze("S...G")).sample_block(
        np.random.default_rng(0), 50)
    with pytest.raises(OperatorError):
        qlearning_block_drift(TabularFeatures(3, 4), 0.9, 2, 50)[0](
            *(np.stack([x, x], axis=1) for x in block))


@given(st.lists(mazes((4, 3)), min_size=1, max_size=4), GAMMAS,
       st.floats(1e-3, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_qlearning_block_drift_refills_its_buffers_every_block(
        maze_list, gamma, eps, seed):
    """One builder, made once as the engine makes it per run, and driven
    through consecutive blocks of 128, 1, 0, 77 and 128 steps drawn by one
    MDPSource.block_sampler: every step of every block adds eps times the
    row-wise reference's residual to its agent's slot of its W Theta, bit
    for bit, and the slots equal out0 + eps * eval. A block that left a row
    of the per-run index or reward buffers as the block before it filled it
    would step from that block's samples."""
    feats = TabularFeatures(12, 4)
    op = qlearning_operator(feats, gamma)
    n = len(maze_list)
    draw = MDPSource.block_sampler(
        [MDPSource(maze=m) for m in maze_list],
        [derive_stream(seed, i, "sample") for i in range(n)])
    block, _ = qlearning_block_drift(feats, gamma, n, 128)
    rng = np.random.default_rng(seed)
    for T in (128, 1, 0, 77, 128):
        samples = draw(T)
        thetas = signed_zeros(rng, (T, n, feats.dim))
        outs = signed_zeros(rng, (T, n, feats.dim))
        got = step_each(block(*samples), thetas, outs, [eps] * T)
        for t in range(T):
            theta, out0, out = thetas[t], outs[t], got[t]
            expected = out0.copy()
            evals = np.zeros_like(out0)
            in_slot = np.zeros(out0.shape, dtype=bool)
            for i, (s, a, r, s_next) in enumerate(zip(*(x[t]
                                                        for x in samples))):
                j = feats.index(s, a)
                expected[i, j] += eps * row_wise_residual(
                    theta[i].reshape(12, 4), gamma, s, a, r, s_next)
                evals[i] = op.eval((int(s), int(a), float(r), int(s_next)),
                                   theta[i])
                in_slot[i, j] = True
            assert out.tobytes() == expected.tobytes()
            assert ((out0 + eps * evals)[in_slot].tobytes()
                    == expected[in_slot].tobytes())


@pytest.mark.parametrize("name, value", [("s", 3), ("s", -1), ("a", 4),
                                         ("a", -1), ("s_next", 3),
                                         ("s_next", -1)])
def test_qlearning_block_drift_checks_every_block(name, value):
    """The builder checks the states and actions of every block, not only
    of its first: one out-of-range entry in a later block raises."""
    block, _ = qlearning_block_drift(TabularFeatures(3, 4), 0.9, 2, 50)
    samples = [np.stack([x, x], axis=1) for x in MDPSource(
        maze=parse_maze("S.G")).sample_block(np.random.default_rng(0), 100)]
    block(*(x[:50] for x in samples))
    later = dict(zip(("s", "a", "r", "s_next"),
                     (x[50:].copy() for x in samples)))
    block(*later.values())
    later[name][37, 1] = value
    with pytest.raises(OperatorError):
        block(*later.values())


def test_qlearning_rejects_bad_gamma():
    with pytest.raises(OperatorError):
        qlearning_operator(one_state_one_action(), gamma=1.0)


def test_tabular_features_index():
    feats = TabularFeatures(n_states=3, n_actions=4)
    assert feats.dim == 12
    # row-major over (state, action): every pair has its own slot in range
    slots = [feats.index(s, a) for s in range(3) for a in range(4)]
    assert slots == list(range(12))
    assert feats.index(2, 1) == 9


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
    src = ARSource(gains=np.zeros(d - 1), u=rng.standard_normal(d),
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
    cov = ar_stationary_covariance([a], clip)
    np.testing.assert_array_equal(cov, np.diag([q, a * a * q]))


@given(st.integers(1, 12).flatmap(
    lambda d: st.lists(st.floats(0.8, 0.99), min_size=d - 1, max_size=d - 1)),
    st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_ar_stationary_covariance_matches_scipy(gains, clip):
    """The gains of a d-dim source, d from 1 to 12, against scipy's
    Lyapunov solution for the subdiagonal A they make."""
    from scipy.linalg import solve_discrete_lyapunov
    A = np.diag(gains, -1)
    q = np.zeros(A.shape)
    q[0, 0] = clipped_normal_variance(clip)
    ref = solve_discrete_lyapunov(A, q)
    cov = ar_stationary_covariance(gains, clip)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(cov, ref, rtol=1e-10, atol=1e-10 * scale)
    assert np.max(np.abs(A @ cov @ A.T + q - cov)) <= 1e-12 * scale


def solve_state_bound(A, clip):
    """The state bound (I - |A|)^-1 e1 clip by a dense linear solve."""
    e1 = np.zeros(A.shape[0])
    e1[0] = 1.0
    return np.linalg.solve(np.eye(A.shape[0]) - np.abs(A), e1) * float(clip)


@st.composite
def system_id_sources(draw):
    """1-4 ARSources of one dimension d from 1 to 12, with signed gains of
    magnitude in [0.8, 0.99] and a shared u."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    clip = draw(st.floats(0.1, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(d)
    return [ARSource(gains=(rng.choice([-1.0, 1.0], d - 1)
                            * rng.uniform(0.8, 0.99, d - 1)),
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
        A = np.diag(src.gains, -1)
        xmax = solve_state_bound(A, src.noise_clip)
        np.testing.assert_array_equal(
            ar_state_bound(src.gains, src.noise_clip), xmax)
        x1_norm = float(np.linalg.norm(xmax))
        x2_max = float(np.abs(src.u) @ xmax) + src.noise_clip
        l_max = max(l_max, 2.0 * x1_norm**2)
        b_zero = max(b_zero, 2.0 * x2_max * x1_norm)
        q = np.zeros(A.shape)
        q[0, 0] = clipped_normal_variance(src.noise_clip)
        cov_sum = cov_sum + solve_discrete_lyapunov(A, q)
    oc = system_id_constants(sources)
    assert oc.L == l_max
    assert oc.B == max(l_max, b_zero)
    alpha = 2.0 * float(np.min(np.linalg.eigvalsh(cov_sum)))
    assert oc.alpha == pytest.approx(alpha, rel=1e-12, abs=0)


def test_system_id_constants_alpha_d1():
    # d=1, no gains: stationary E[X^2] = q, so alpha = 2 N q
    clip = 3.0
    q = clipped_normal_variance(clip)
    srcs = [ARSource(gains=[], u=np.ones(1), noise_clip=clip)
            for _ in range(4)]
    oc = system_id_constants(srcs)
    assert oc.alpha == pytest.approx(2 * 4 * q)
    assert oc.B >= oc.L > 0


def test_one_point_monotonicity_quadratic():
    """<Fbar(theta) - Fbar(theta*), theta - theta*> <= -alpha ||theta-theta*||^2
    per agent, with Fbar computed from the exact stationary covariance."""
    rng = derive_stream(9, 0, "probe")
    d = 3
    u = rng.standard_normal(d)
    cov = ar_stationary_covariance([0.9] * (d - 1), 3.0)
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
# the Q* oracle


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
