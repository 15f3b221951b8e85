import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsa.core import _SHORT_ROW
from dcsa.rng import derive_stream
from dcsa.sources import (ARSource, Chain, FiniteChain, MDPSource,
                          SourceError, ar_state_bound, dot,
                          ergodicity_report, fit_mixing_profile,
                          mixing_time, parse_maze, slem,
                          stationary_distribution, tv_distance)

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


# ---------------------------------------------------------------------------
# autoregressive source


def test_ar_source_zero_dynamics():
    src = ARSource(gains=[0.0], u=np.zeros(2), noise_clip=1e-12)
    x1, x2 = src.sample(derive_stream(0, 0, "sample"))
    assert np.max(np.abs(x1)) <= 1e-12
    assert abs(x2) <= 2e-12


def test_ar_source_rejects_bad_gains():
    """A d-dim source takes d - 1 finite gains: a wrong length, a 2-D
    array or a non-finite gain is refused."""
    ARSource(gains=[0.9, 0.8], u=np.zeros(3))
    for gains in ([0.9], [0.9, 0.8, 0.7], [[0.9, 0.8]], [0.9, math.nan],
                  [math.inf, 0.8]):
        with pytest.raises(SourceError, match="gains"):
            ARSource(gains=gains, u=np.zeros(3))


@pytest.mark.parametrize("u", [np.zeros(0), np.zeros((1, 3))])
def test_ar_source_rejects_bad_u(u):
    with pytest.raises(SourceError, match="u must be"):
        ARSource(gains=np.zeros(max(u.size - 1, 0)), u=u)


@pytest.mark.parametrize("state", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
def test_ar_source_rejects_bad_state(state):
    """A state that is not a vector of length d is refused when the source
    is built, not by the first sample; a length-d one is kept as a copy."""
    with pytest.raises(SourceError, match="state must be"):
        ARSource(gains=[0.9], u=[1.0, 2.0], state=state)
    given = np.array([1.0, -2.0])
    src = ARSource(gains=[0.9], u=[1.0, 2.0], state=given)
    assert src.state is not given and src.state.tolist() == [1.0, -2.0]
    src.sample(derive_stream(0, 0, "sample"))


@pytest.mark.parametrize("clip", [math.nan, 0.0, -1.0])
def test_ar_source_rejects_bad_noise_clip(clip):
    """A clip that is not positive, NaN included, would give NaN state
    bounds and constants."""
    with pytest.raises(SourceError, match="noise_clip"):
        ARSource(gains=[0.0], u=np.zeros(2), noise_clip=clip)


def test_ar_noise_is_clipped():
    src = ARSource(gains=[], u=np.ones(1), noise_clip=0.5)
    rng = derive_stream(0, 0, "sample")
    for _ in range(1000):
        x1, _ = src.sample(rng)
        assert abs(x1[0]) <= 0.5


def test_ar_state_bound_holds_empirically():
    src = ARSource(gains=[0.9], u=np.ones(2), noise_clip=3.0)
    bound = ar_state_bound(src.gains, 3.0)
    np.testing.assert_allclose(bound, [3.0, 2.7])
    rng = derive_stream(1, 0, "sample")
    x1, _ = src.sample_block(rng, 100_000)
    assert np.all(np.abs(x1) <= bound + 1e-12)


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


def three_blocks(t1, t2, zero_at):
    """Block lengths t1 and t2 with an empty block put at zero_at."""
    lengths = [t1, t2]
    lengths.insert(zero_at, 0)
    return lengths


@given(mazes(), st.lists(st.integers(0, 3), min_size=1, max_size=3),
       BLOCK_LENGTHS, BLOCK_LENGTHS, st.integers(0, 2),
       st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_mdp_sample_block_matches_sample(maze, warmups, t1, t2, zero_at,
                                         seed):
    """One block_sampler of a stack of 1 to 3 sources on a maze, drawn
    through three consecutive blocks of t1, t2 and 0 samples (the empty
    block in any place), holds in each column the values of as many sample
    calls of that source, and leaves every source's state and stream where
    those calls leave them. A stack of one is drawn with sample_block; a
    larger stack is drawn into one pair of buffers for all three blocks,
    as the engine draws it, and the rows past the block are left as they
    were."""
    ones, blocks, rngs_one, rngs_block = [], [], [], []
    for i, warmup in enumerate(warmups):
        one, block = MDPSource(maze=maze), MDPSource(maze=maze)
        rng_one = derive_stream(seed, i, "sample")
        rng_block = derive_stream(seed, i, "sample")
        for _ in range(warmup):   # so that a block need not begin at the start
            one.sample(rng_one)
            block.sample(rng_block)
        ones.append(one)
        blocks.append(block)
        rngs_one.append(rng_one)
        rngs_block.append(rng_block)
    draw = MDPSource.block_sampler(blocks, rngs_block)
    rows = max(t1, t2)
    buffers = (np.full((rows, 3, len(blocks)), -1, dtype=np.intp),
               np.full((rows, len(blocks)), np.inf))
    for T in three_blocks(t1, t2, zero_at):
        if len(blocks) == 1:
            columns = tuple(x[:, None] for x in blocks[0].sample_block(
                rngs_block[0], T))
        else:
            past = [x[T:].copy() for x in buffers]
            columns = draw(T, buffers)
            assert all(x.base is buffers[i] for i, x in zip((0, 0, 1, 0),
                                                            columns))
            assert all(x[T:].tobytes() == p.tobytes()
                       for x, p in zip(buffers, past))
        assert [x.dtype.kind for x in columns] == list("iifi")
        assert all(x.shape == (T, len(blocks)) for x in columns)
        for i, (one, rng_one) in enumerate(zip(ones, rngs_one)):
            expected = [one.sample(rng_one) for _ in range(T)]
            assert list(zip(*(x[:, i].tolist() for x in columns))) == expected
            assert blocks[i].state == one.state
    for rng_one, rng_block in zip(rngs_one, rngs_block):
        assert rng_block.integers(0, 2**63) == rng_one.integers(0, 2**63)


@given(st.integers(1, 6),
       st.lists(st.tuples(st.lists(st.one_of(st.just(0.0),
                                             st.floats(-0.99, 0.99)),
                                   min_size=5, max_size=5),
                          st.sampled_from([0.5, 3.0]), st.integers(0, 3)),
                min_size=1, max_size=4),
       BLOCK_LENGTHS, BLOCK_LENGTHS, st.integers(0, 2),
       st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
@example(3, [([0.0, 0.5, 0.0, 0.0, 0.0], 3.0, 0)], 20, 0, 2, 7)
@example(3, [([0.0, 0.5, 0.0, 0.0, 0.0], 3.0, 0),
             ([-0.5, 0.0, 0.0, 0.0, 0.0], 0.5, 2)], 20, 5, 0, 7)
def test_ar_sample_block_matches_sample(d, specs, t1, t2, zero_at, seed):
    """One block_sampler of a stack of 1 to 4 d-dim AR sources, d = 1 to
    6, that differ in gains, u, clip and warm-up, drawn through three
    consecutive blocks of t1, t2 and 0 samples (the empty block in any
    place), holds in each row the bytes of as many sample calls of that
    source, signed zeros included (a zero gain times a negative state is
    -0.0 in both, and a + 0.0 in either one alone would make it +0.0),
    and leaves every source's state and
    stream where those calls leave them. A stack of one is drawn with
    sample_block, in fresh arrays per block; a larger stack is drawn into
    one pair of buffers for all three blocks, as the engine draws it, and
    the rows of x past the block are left as they were."""
    ones, blocks, rngs_one, rngs_block = [], [], [], []
    for i, (gains, clip, warmup) in enumerate(specs):
        u = np.random.default_rng([seed, i]).standard_normal(d)
        one = ARSource(gains=gains[:d - 1], u=u, noise_clip=clip)
        block = ARSource(gains=gains[:d - 1], u=u, noise_clip=clip)
        rng_one = derive_stream(seed, i, "sample")
        rng_block = derive_stream(seed, i, "sample")
        for _ in range(warmup):   # so that a block need not begin at zero
            one.sample(rng_one)
            block.sample(rng_block)
        ones.append(one)
        blocks.append(block)
        rngs_one.append(rng_one)
        rngs_block.append(rng_block)
    draw = ARSource.block_sampler(blocks, rngs_block)
    rows = max(t1, t2) + 1
    buffers = (np.full((rows + 1, len(blocks), d), np.inf),
               np.full((rows, len(blocks)), np.inf))
    for T in three_blocks(t1, t2, zero_at):
        if len(blocks) == 1:
            x1, x2 = (x[:, None] for x in blocks[0].sample_block(
                rngs_block[0], T))
        else:
            past = buffers[0][T + 1:].copy(), buffers[1][T:].copy()
            x1, x2 = draw(T, buffers)
            assert x1.base is buffers[0] and x2.base is buffers[1]
            assert buffers[0][T + 1:].tobytes() == past[0].tobytes()
            assert buffers[1][T:].tobytes() == past[1].tobytes()
        assert x1.shape == (T, len(blocks), d) and x2.shape == (T, len(blocks))
        for i, (one, rng_one) in enumerate(zip(ones, rngs_one)):
            expected = [one.sample(rng_one) for _ in range(T)]
            assert x1[:, i].tobytes() == np.array(
                [x for x, _ in expected]).reshape(T, d).tobytes()
            assert x2[:, i].tobytes() == np.array(
                [x for _, x in expected]).tobytes()
            assert blocks[i].state.tobytes() == one.state.tobytes()
    for rng_one, rng_block in zip(rngs_one, rngs_block):
        assert rng_block.integers(0, 2**63) == rng_one.integers(0, 2**63)


def special_floats(rng, shape, nan=None):
    """Standard normals with about a fifth of the entries -0.0, a fifth
    +0.0, and a few subnormals, infinities of either sign and NaNs. The
    NaNs are the one that inf - inf gives, as are those of inf * 0 among
    the products: where a sum meets NaNs of both signs, which of them it
    carries depends on the operand order numpy's loops were compiled with,
    which neither the reduce nor a chain of adds promises. nan, if given,
    replaces them with NaNs of both signs."""
    x = rng.standard_normal(shape)
    u = rng.random(shape)
    x[u < 0.2] = -0.0
    x[u > 0.8] = 0.0
    x[(u > 0.2) & (u < 0.3)] *= 1e-310   # subnormal
    x[(u > 0.4) & (u < 0.41)] = np.inf
    x[(u > 0.5) & (u < 0.51)] = -np.inf
    with np.errstate(invalid="ignore"):
        x[(u > 0.6) & (u < 0.61)] = np.subtract(np.inf, np.inf)
    if nan is not None:
        x[(u > 0.6) & (u < 0.61)] = nan
        x[(u > 0.7) & (u < 0.71)] = -nan
    return x


@pytest.mark.parametrize("ufunc", [np.add, np.maximum],
                         ids=["add", "maximum"])
def test_chain_is_numpys_order(ufunc):
    """Chain(k, (c,), ufunc) gives functools.reduce's chains ((t0 o t1) o t2)
    o ... byte for byte, from +0.0 for np.add, for k = 1 to 20, 100 and
    300 terms and c = 1, 2, 3 and 640 columns, called on all c columns,
    on about half of them and then on one, beside a column that has held
    terms. The terms hold
    +-0.0, subnormals, +-inf and NaNs of both signs (the max keeps the
    first NaN's sign; a sum, the NaN its operand order gives, which the
    reduce shares with the chain of adds)."""
    rng = np.random.default_rng(21)
    nan = np.float64(math.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in [*range(1, 21), 100, 300]:
            for c in (1, 2, 3, 640):
                chain = Chain(k, (c,), ufunc)
                for n in sorted({c, (c + 1) // 2, 1}, reverse=True):
                    chain.terms[:, :n] = special_floats(rng, (k, n), nan)
                    rows = list(chain.terms[:, :n].copy())
                    expected = (functools.reduce(ufunc, rows, 0.0)
                                if ufunc is np.add
                                else functools.reduce(ufunc, rows))
                    out = np.full(n, 7.0)
                    assert chain(out) is out
                    assert out.tobytes() == expected.tobytes(), (k, c, n)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_row_dots_match_reduce(seed):
    """Chain over the AR sampler's (T, R, d) products x u gives the chain
    ((0.0 + x0 u0) + x1 u1) + ... bit for bit, for u of shape (R, d) and
    every d = 1 to 10, and so np.add.reduce(x * u, axis=-1) for d below
    _SHORT_ROW; dot gives each row's chain too. +-0.0, subnormals, +-inf
    and NaN are among the entries."""
    rng = np.random.default_rng(seed)
    for d in range(1, 11):
        x = special_floats(rng, (20, 3, d))
        u = special_floats(rng, (3, d))
        chain = Chain(d, x.shape[:2])
        out = np.empty((20, 3))
        with np.errstate(invalid="ignore"):
            expected = functools.reduce(
                operator.add, (x[..., m] * u[:, m] for m in range(d)), 0.0)
            np.multiply(x, u, out=chain.terms.transpose(1, 2, 0))
            assert chain(out) is out
            if d < _SHORT_ROW:
                assert out.tobytes() == np.add.reduce(x * u, -1).tobytes()
            dots = [[dot(row, u_r) for row, u_r in zip(rows, u)]
                    for rows in x]
        assert (out.tobytes() == expected.tobytes()
                == np.array(dots).tobytes()), d


def test_ordered_sum_is_numpys_order():
    """The installed numpy sums as Chain relies on: np.add.reduce over a
    contiguous row of 1 to _SHORT_ROW - 1 terms, and over the first axis
    of an (N, d >= 2) array for N up to 20 and N = 100, equals the chain
    from +0.0 byte for byte, with +-0.0, subnormals, +-inf and NaN among
    the terms; a row of _SHORT_ROW terms, or an (N, 1) column, is summed
    pairwise, which the chain is not, and which is why Chain pads a lone
    column. A numpy release that changes the rule fails here, by name,
    before the engine's byte-equality tests fail by scattered bytes."""
    rng = np.random.default_rng(21)
    with np.errstate(invalid="ignore"):
        for d in range(1, _SHORT_ROW):
            x = special_floats(rng, (2000, d))
            chain = functools.reduce(operator.add, x.T, 0.0)
            assert np.add.reduce(x, axis=-1).tobytes() == chain.tobytes(), d
        for n in [*range(1, 21), 100]:
            for _ in range(25):
                a = special_floats(rng, (n, int(rng.integers(2, 6))))
                chain = functools.reduce(operator.add, a, 0.0)
                assert np.add.reduce(a, axis=0).tobytes() == chain.tobytes()
    # 1e16 + 1.0 rounds back to 1e16, so the chain loses every 1.0; the
    # pairwise sum adds 1.0 + 1.0 pairs before they meet 1e16
    row = np.array([1e16] + [1.0] * (_SHORT_ROW - 1))
    assert np.add.reduce(row) - 1e16 == 6.0
    assert functools.reduce(operator.add, row, 0.0) - 1e16 == 0.0
    columns = np.stack([row, row], axis=1)
    assert (np.add.reduce(columns[:, :1], axis=0) - 1e16).tolist() == [6.0]
    assert (np.add.reduce(columns, axis=0) - 1e16).tolist() == [0.0, 0.0]
    chain = Chain(len(row), (1,))
    chain.terms[:, 0] = row
    assert (chain(np.empty(1)) - 1e16).tolist() == [0.0]


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
