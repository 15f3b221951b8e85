import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsa.rng import derive_stream
from dcsa.sources import (ARSource, FiniteChain, MDPSource, SourceError,
                          ar_state_bound, ergodicity_report,
                          fit_mixing_profile, global_tau, mixing_time,
                          parse_maze, slem, stationary_distribution,
                          tv_distance)

from strategies import mazes


def two_state_chain(p, q):
    return FiniteChain(transition=[[1 - p, p], [q, 1 - q]])


def random_ergodic_chain(rng, n):
    """Strictly positive rows are irreducible and aperiodic."""
    p = rng.random((n, n)) + 0.05
    return FiniteChain(transition=p / p.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# finite chains


def test_chain_rejects_bad_rows():
    with pytest.raises(SourceError):
        FiniteChain(transition=[[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(SourceError):
        FiniteChain(transition=[[1.2, -0.2], [0.5, 0.5]])


def test_stationary_symmetric_two_state():
    mu = stationary_distribution(two_state_chain(0.3, 0.3))
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)


def test_stationary_asymmetric_two_state():
    mu = stationary_distribution(two_state_chain(0.2, 0.1))
    np.testing.assert_allclose(mu, [1 / 3, 2 / 3], atol=1e-12)


def test_stationary_uniform_rows():
    c = FiniteChain(transition=np.full((4, 4), 0.25))
    np.testing.assert_allclose(stationary_distribution(c), np.full(4, 0.25),
                               atol=1e-12)


def test_stationary_rejects_periodic():
    with pytest.raises(SourceError):
        stationary_distribution(FiniteChain(transition=[[0, 1], [1, 0]]))


def test_stationary_rejects_reducible():
    with pytest.raises(SourceError):
        stationary_distribution(FiniteChain(transition=[[1, 0], [0.5, 0.5]]))


def test_stationary_residual_below_1e12():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = random_ergodic_chain(rng, int(rng.integers(2, 8)))
        mu = stationary_distribution(c)
        assert np.max(np.abs(mu @ c.transition - mu)) <= 1e-12
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)


def _positive_power(support, k):
    """Whether every entry of the k-th power of the 0/1 matrix is > 0."""
    n = support.shape[0]
    power = np.eye(n, dtype=bool)
    for _ in range(k):
        power = (power.astype(int) @ support.astype(int)) > 0
    return bool(power.all())


@st.composite
def random_chains(draw):
    """Chains with random support: weights in 0..3, and an all-zero row
    moved onto its successor state."""
    n = draw(st.integers(1, 6))
    w = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n,
                               max_size=n * n)), dtype=float).reshape(n, n)
    for i in range(n):
        if w[i].sum() == 0:
            w[i, (i + 1) % n] = 1.0
    return FiniteChain(transition=w / w.sum(axis=1, keepdims=True))


CYCLE4 = np.roll(np.eye(4), 1, axis=1)


@given(random_chains())
@example(FiniteChain(transition=CYCLE4))                        # period 4
@example(FiniteChain(transition=0.5 * (np.eye(4) + CYCLE4)))    # lazy cycle
@example(FiniteChain(transition=np.eye(2)))                     # reducible
@settings(max_examples=300, deadline=None)
def test_ergodicity_report_matches_matrix_power_oracle(c):
    """Irreducible iff (I + P)^(n-1) > 0; aperiodic (primitive) iff
    P^((n-1)^2 + 1) > 0 (Wielandt)."""
    n = c.n_states
    support = c.transition > 0
    irreducible = _positive_power(np.eye(n, dtype=bool) | support, n - 1)
    primitive = _positive_power(support, (n - 1) ** 2 + 1)
    assert ergodicity_report(c) == (irreducible, irreducible and primitive)


def test_chain_sampling_law_of_large_numbers():
    c = two_state_chain(0.2, 0.1)
    mu = stationary_distribution(c)
    rng = derive_stream(0, 0, "sample")
    n = 100_000
    counts = np.zeros(2)
    for _ in range(n):
        counts[c.sample(rng)] += 1
    freq = counts / n
    assert np.max(np.abs(freq - mu)) <= 3.0 / np.sqrt(n) * 2


# ---------------------------------------------------------------------------
# tv distance and mixing


def test_tv_distance_basics():
    assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert tv_distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)
    with pytest.raises(SourceError):
        tv_distance([1.0], [0.5, 0.5])


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_tv_distance_in_unit_interval(a, b):
    n = min(len(a), len(b))
    p = np.array(a[:n]) / sum(a[:n])
    q = np.array(b[:n]) / sum(b[:n])
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0 + 1e-12


def test_mixing_time_two_state_oracle():
    # TV(k) = 0.4^k / 2: 0.4^5/2 = 0.00512 <= 0.01 < 0.4^4/2 = 0.0128
    assert mixing_time(two_state_chain(0.3, 0.3), 0.01) == 5


def test_mixing_time_uniform_chain():
    c = FiniteChain(transition=np.full((3, 3), 1 / 3))
    assert mixing_time(c, 0.5) == 1
    assert mixing_time(c, 0.001) == 1


def test_mixing_time_zero_when_already_mixed():
    # worst-case TV at k=0 for a 2-state chain is 1/2
    assert mixing_time(two_state_chain(0.3, 0.3), 0.9) == 0


def test_mixing_time_rejects_bad_eps():
    c = two_state_chain(0.3, 0.3)
    with pytest.raises(SourceError):
        mixing_time(c, 0.0)
    with pytest.raises(SourceError):
        mixing_time(c, 1.0)


def test_mixing_time_monotone_in_eps():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = random_ergodic_chain(rng, 4)
        taus = [mixing_time(c, e) for e in (0.3, 0.1, 0.03, 0.01)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_fit_mixing_profile_rho_values():
    assert fit_mixing_profile(two_state_chain(0.3, 0.3), [0.01]).rho \
        == pytest.approx(0.4)
    assert fit_mixing_profile(two_state_chain(0.2, 0.1), [0.01]).rho \
        == pytest.approx(0.7)
    uniform = FiniteChain(transition=np.full((3, 3), 1 / 3))
    assert fit_mixing_profile(uniform, [0.01]).rho == pytest.approx(0.0, abs=1e-12)


def test_mixing_profile_bound_holds():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_ergodic_chain(rng, 5)
        prof = fit_mixing_profile(c, [0.1, 0.01])
        mu = stationary_distribution(c)
        power = np.eye(c.n_states)
        for k in range(2 * mixing_time(c, 0.01) + 5):
            tv = max(tv_distance(row, mu) for row in power)
            assert tv <= prof.m * prof.rho**k + 1e-12
            power = power @ c.transition
        # Eq-style consistency: m rho^tau <= eps at the fitted tau
        for eps in (0.1, 0.01):
            t = mixing_time(c, eps)
            assert t <= max(0.0, prof.beta * np.log(1 / eps)) + 1e-9


def test_slem_values():
    assert slem(two_state_chain(0.3, 0.3)) == pytest.approx(0.4)
    assert slem(two_state_chain(0.2, 0.1)) == pytest.approx(0.7)


def test_global_tau():
    p1 = fit_mixing_profile(two_state_chain(0.3, 0.3), [0.01])
    assert global_tau([p1], 0.01, [5]) == 5
    high = fit_mixing_profile(two_state_chain(0.05, 0.05), [0.01])
    assert high.rho == pytest.approx(0.9)
    assert global_tau([high], 0.01, [3]) == 9
    uniform = fit_mixing_profile(FiniteChain(transition=np.full((2, 2), 0.5)),
                                 [0.01])
    assert global_tau([uniform], 0.01, [0]) == 0


# ---------------------------------------------------------------------------
# autoregressive source


def test_ar_source_zero_dynamics():
    src = ARSource(A=np.zeros((2, 2)), u=np.zeros(2), noise_clip=1e-12)
    x1, x2 = src.sample(derive_stream(0, 0, "sample"))
    assert np.max(np.abs(x1)) <= 1e-12
    assert abs(x2) <= 2e-12


def test_ar_source_rejects_unstable():
    with pytest.raises(SourceError):
        ARSource(A=np.eye(2), u=np.zeros(2))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 0), (1, 2)])
def test_ar_source_rejects_non_subdiagonal_A(entry):
    """sample_block's column shift holds only for an A that is zero off its
    first subdiagonal, so any other nonzero entry is refused."""
    A = np.diag([0.9, 0.8], k=-1)
    ARSource(A=A, u=np.zeros(3))
    A[entry] = 0.1
    with pytest.raises(SourceError, match="subdiagonal"):
        ARSource(A=A, u=np.zeros(3))


@pytest.mark.parametrize("clip", [math.nan, 0.0, -1.0])
def test_ar_source_rejects_bad_noise_clip(clip):
    """A clip that is not positive, NaN included, would give NaN state
    bounds and constants."""
    with pytest.raises(SourceError, match="noise_clip"):
        ARSource(A=np.zeros((2, 2)), u=np.zeros(2), noise_clip=clip)


def test_ar_noise_is_clipped():
    src = ARSource(A=np.zeros((1, 1)), u=np.ones(1), noise_clip=0.5)
    rng = derive_stream(0, 0, "sample")
    for _ in range(1000):
        x1, _ = src.sample(rng)
        assert abs(x1[0]) <= 0.5


def test_ar_state_bound_holds_empirically():
    A = np.array([[0.0, 0.0], [0.9, 0.0]])
    src = ARSource(A=A, u=np.ones(2), noise_clip=3.0)
    bound = ar_state_bound(A, 3.0)
    np.testing.assert_allclose(bound, [3.0, 2.7])
    rng = derive_stream(1, 0, "sample")
    x1, _ = src.sample_block(rng, 100_000)
    assert np.all(np.abs(x1) <= bound + 1e-12)


def test_ar_subdiagonal_is_nilpotent():
    A = np.zeros((3, 3))
    A[1, 0] = A[2, 1] = 0.9
    src = ARSource(A=A, u=np.zeros(3))
    assert np.max(np.abs(np.linalg.eigvals(src.A))) == 0.0


# ---------------------------------------------------------------------------
# mazes and MDP sources

MAZE_3X3 = """\
S.#
.#.
..G
"""


def test_parse_maze():
    m = parse_maze(MAZE_3X3)
    assert (m.width, m.height) == (3, 3)
    assert m.start == 0
    assert m.goals == frozenset({8})
    assert m.is_obstacle(2) and m.is_obstacle(4)


def test_maze_requires_single_start():
    with pytest.raises(SourceError):
        parse_maze("SS\n.G\n")
    with pytest.raises(SourceError):
        parse_maze("..\n.G\n")


def test_maze_requires_goal():
    with pytest.raises(SourceError):
        parse_maze("S.\n..\n")


def test_maze_requires_reachable_goal():
    with pytest.raises(SourceError):
        parse_maze("S#\n#G\n")


def test_maze_rejects_unknown_char():
    with pytest.raises(SourceError):
        parse_maze("SX\n.G\n")


def test_maze_move_semantics():
    m = parse_maze(MAZE_3X3)
    # wall bump from the start (up): stay, reward 0
    assert m.move(0, 0) == (0, 0.0)
    # obstacle bump (right into cell 2 from cell 1): stay, reward -1
    assert m.move(1, 3) == (1, -1.0)
    # plain move down from start
    assert m.move(0, 1) == (3, 0.0)
    # stepping onto the goal earns +1
    assert m.move(7, 3) == (8, 1.0)
    assert m.move(5, 1) == (8, 1.0)


def test_mdp_source_teleports_from_goal():
    m = parse_maze("S.\n.G\n")
    src = MDPSource(maze=m)
    rng = derive_stream(0, 0, "sample")
    saw_teleport = False
    for _ in range(200):
        s, a, r, s_next = src.sample(rng)
        if s_next in m.goals:
            assert r == 1.0
            assert src.state == m.start
            saw_teleport = True
    assert saw_teleport


def test_mdp_source_visits_all_free_cells():
    maze = parse_maze("S....\n.##..\n..#..\n.#...\n....G\n")
    src = MDPSource(maze=maze)
    rng = derive_stream(0, 0, "sample")
    visited = set()
    for _ in range(100_000):
        s, a, r, s_next = src.sample(rng)
        visited.add(s)
    free = {s for s in range(maze.n_cells) if not maze.is_obstacle(s)}
    # goal cells are teleported away from, never occupied as "current" state
    assert visited == free - maze.goals


def test_sample_step_dispatch():
    chain = FiniteChain(transition=[[0, 1], [1e-9, 1 - 1e-9]], state=0)
    assert chain.sample(derive_stream(0, 0, "sample")) == 1


# block lengths at and around the engine's 128-step blocks, and any others
BLOCK_LENGTHS = st.one_of(st.sampled_from([0, 1, 127, 128, 129]),
                          st.integers(0, 300))


@given(mazes(), BLOCK_LENGTHS, BLOCK_LENGTHS, st.integers(0, 3),
       st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_mdp_sample_block_matches_sample(maze, t1, t2, warmup, seed):
    """Two blocks of t1 and t2 samples hold the values of t1 + t2 sample
    calls, and leave the source's state and the stream where those calls
    leave them."""
    one, block = MDPSource(maze=maze), MDPSource(maze=maze)
    rng_one = derive_stream(seed, 0, "sample")
    rng_block = derive_stream(seed, 0, "sample")
    for _ in range(warmup):   # so that a block need not begin at the start
        one.sample(rng_one)
        block.sample(rng_block)
    for T in (t1, t2):
        expected = [one.sample(rng_one) for _ in range(T)]
        s, a, r, s_next = block.sample_block(rng_block, T)
        assert [x.dtype.kind for x in (s, a, r, s_next)] == list("iifi")
        assert list(zip(s.tolist(), a.tolist(), r.tolist(),
                        s_next.tolist())) == expected
        assert block.state == one.state
    assert rng_block.integers(0, 2**63) == rng_one.integers(0, 2**63)


@given(st.integers(1, 6),
       st.lists(st.tuples(st.lists(st.one_of(st.just(0.0),
                                             st.floats(-0.99, 0.99)),
                                   min_size=5, max_size=5),
                          st.sampled_from([0.5, 3.0]), st.integers(0, 3)),
                min_size=1, max_size=4),
       BLOCK_LENGTHS, BLOCK_LENGTHS, st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_ar_sample_block_matches_sample(d, specs, t1, t2, seed):
    """Two blocks of t1 and t2 samples of a stack of 1 to 4 d x d AR
    sources, d = 1 to 6, that differ in A, u, clip and warm-up hold in each
    row the values of t1 + t2 sample calls of that source, and leave every
    source's state and stream where those calls leave them. A stack of one
    is drawn with sample_block."""
    ones, blocks, rngs_one, rngs_block = [], [], [], []
    for i, (subdiagonal, clip, warmup) in enumerate(specs):
        u = np.random.default_rng([seed, i]).standard_normal(d)
        A = np.diag(np.array(subdiagonal[:d - 1], dtype=float), k=-1)
        one = ARSource(A=A, u=u, noise_clip=clip)
        block = ARSource(A=A, u=u, noise_clip=clip)
        rng_one = derive_stream(seed, i, "sample")
        rng_block = derive_stream(seed, i, "sample")
        for _ in range(warmup):   # so that a block need not begin at zero
            one.sample(rng_one)
            block.sample(rng_block)
        ones.append(one)
        blocks.append(block)
        rngs_one.append(rng_one)
        rngs_block.append(rng_block)
    for T in (t1, t2):
        if len(blocks) == 1:
            x1, x2 = (x[:, None] for x in blocks[0].sample_block(
                rngs_block[0], T))
        else:
            x1, x2 = ARSource.sample_blocks(blocks, rngs_block, T)
        assert x1.shape == (T, len(blocks), d) and x2.shape == (T, len(blocks))
        for i, (one, rng_one) in enumerate(zip(ones, rngs_one)):
            expected = [one.sample(rng_one) for _ in range(T)]
            np.testing.assert_array_equal(
                x1[:, i], np.array([x for x, _ in expected]).reshape(T, d))
            np.testing.assert_array_equal(x2[:, i], [x for _, x in expected])
            np.testing.assert_array_equal(blocks[i].state, one.state)
    for rng_one, rng_block in zip(rngs_one, rngs_block):
        assert rng_block.integers(0, 2**63) == rng_one.integers(0, 2**63)


def test_maze_transitions_table_is_built_on_first_use():
    maze = parse_maze("S.#\n..G\n")
    assert "transitions" not in vars(maze)
    nxt, rew, after = maze.transitions
    assert "transitions" in vars(maze)
    for s in range(maze.n_cells):
        for a in range(maze.n_actions):
            i = s * maze.n_actions + a
            assert (nxt[i], rew[i]) == maze.move(s, a)
            assert after[i] == (maze.start if nxt[i] in maze.goals else nxt[i])
