"""The compiled block of steps (src/dcsa/_step.c) against the numpy
step_loop of each batched builder, byte for byte, and the loader that
builds and caches it (dcsa._build). Each block is stepped on weight
frames of its own, which both paths mix into every step.

Where the step did not load, operators.STEP is None and a builder given it
steps with numpy, so every comparison still runs; the loader tests then
check that no compiler was there to build it.
"""

import functools
import operator
import os
import shlex
import shutil
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsa import _build, operators
from dcsa.core import _SHORT_ROW
from dcsa.operators import (TabularFeatures, qlearning_block_drift,
                            quadratic_block_drift)
from dcsa.rng import derive_stream
from dcsa.sources import ARSource, MDPSource, parse_maze
from strategies import (DEFAULT_NAN, GAMMAS, fill_walk, signed_zeros,
                        special_values, step_each)

# a stack's S runs of N agents: one run and 30, as the lemma-4 ensemble
# stacks, of N on both sides of _SHORT_ROW
RUNS = st.sampled_from([1, 30])
N_AGENTS = st.sampled_from([1, 3, 8, 10])
# F weight frames and the block's first, which the draw takes mod F
N_FRAMES = st.sampled_from([1, 3])
FIRST = st.integers(0, 2)
# the share of +-0.0, +-inf and NaN entries in the frames and iterates
SHARES = st.sampled_from([0.0, 0.05, 0.5])


def compiler_found():
    return shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0])


def frames_and_theta(rng, n_frames, n, agents, d, share, scale=1.0):
    """F random frames of N x N and a pre-block iterate of agents x d,
    normals with a share of +-0.0, +-inf and the machine's NaN"""
    return (special_values(rng, (n_frames, n, n), share, DEFAULT_NAN),
            scale * special_values(rng, (agents, d), share, DEFAULT_NAN))


def same_block(numpy_advance, compiled_advance, theta, frames, first, steps):
    """Both advances, run on one block of iterates each from the same
    theta, write the same bytes."""
    shape = (len(steps),) + theta.shape
    expected, got = np.full(shape, 7.0), np.full(shape, -7.0)
    eps = np.array(steps)
    with np.errstate(all="ignore"):
        numpy_advance(theta, expected, frames, first, eps)
        compiled_advance(theta, got, frames, first, eps)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [*range(1, 10), 17, 100])
@given(runs=RUNS, n=N_AGENTS, n_frames=N_FRAMES, first=FIRST, share=SHARES,
       eps=st.floats(1e-3, 10.0), scale=st.sampled_from([1.0, 3e307]),
       seed=st.integers(0, 2**31 - 1))
# a lone agent: the numpy step's scratch keeps a second column, without
# which numpy would sum the agent's products pairwise
@example(runs=1, n=1, n_frames=1, first=0, share=0.05, eps=0.5, scale=1.0,
         seed=3)
@settings(max_examples=20, deadline=None)
def test_compiled_quadratic_matches_numpy_step(d, runs, n, n_frames, first,
                                               share, eps, scale, seed):
    """quadratic_steps writes what the numpy step_loop writes, bit for bit,
    at every step of a block, for d on both sides of the 8 terms from which
    numpy sums a contiguous row pairwise, a lone agent, stacks of one run
    and of 30, N on both sides of _SHORT_ROW, and one or three frames
    cycled from any first: the mix and the drift both. x2 holds zeros of
    both signs, +-inf and NaN, the frames and theta zeros of both signs
    and, by share, +-inf and NaN, and at scale 3e307 theta makes products
    that overflow; each step has its own eps."""
    T = 12
    agents = runs * n
    rng = np.random.default_rng(seed)
    (x, x2), numpy_advance, _ = quadratic_block_drift(d, agents, T)
    (kx, kx2), compiled_advance, _ = quadratic_block_drift(
        d, agents, T, operators.STEP)
    x[1:] = rng.standard_normal((T, agents, d))
    x2[:] = signed_zeros(rng, (T, agents))
    special = rng.random((T, agents)) < 0.3
    x2[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, DEFAULT_NAN],
                             size=int(special.sum()))
    kx[...], kx2[...] = x, x2
    frames, theta = frames_and_theta(rng, n_frames, n, agents, d, share,
                                     scale)
    steps = [eps / (t + 1) for t in range(T)]   # a diminishing schedule's
    same_block(numpy_advance, compiled_advance, theta, frames,
               first % n_frames, steps)


@given(n_states=st.integers(1, 6), n_actions=st.integers(1, 20),
       gamma=GAMMAS, runs=RUNS, n=N_AGENTS, n_frames=N_FRAMES, first=FIRST,
       share=SHARES, eps=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_compiled_qlearning_matches_numpy_step(n_states, n_actions, gamma,
                                               runs, n, n_frames, first,
                                               share, eps, seed):
    """qlearning_steps writes what the numpy step_loop writes, bit for bit,
    at every step of a block, the mix of every entry and the update of
    every slot, on the tables that pin the Bellman residual's max
    (test_bellman_residual_matches_row_wise_max: up to 20 actions, +-0.0,
    +-inf and NaN entries), for stacks of one run and of 30, N on both
    sides of _SHORT_ROW, and one or three frames cycled from any first;
    each step has its own eps."""
    T = 10
    agents = runs * n
    rng = np.random.default_rng(seed)
    feats = TabularFeatures(n_states, n_actions)
    s, s_next = rng.integers(0, n_states, size=(2, T, agents))
    a = rng.integers(0, n_actions, size=(T, agents))
    r = signed_zeros(rng, (T, agents))
    numpy_buffers, numpy_advance, _ = qlearning_block_drift(feats, gamma,
                                                            agents, T)
    compiled_buffers, compiled_advance, _ = qlearning_block_drift(
        feats, gamma, agents, T, operators.STEP)
    fill_walk(numpy_buffers, s, a, r, s_next)
    fill_walk(compiled_buffers, s, a, r, s_next)
    frames, theta = frames_and_theta(rng, n_frames, n, agents, feats.dim,
                                     share)
    steps = [eps / (t + 1) for t in range(T)]   # a diminishing schedule's
    same_block(numpy_advance, compiled_advance, theta, frames,
               first % n_frames, steps)


def test_compiled_qlearning_max_takes_numpys_nan():
    """The action-order max of both steps keeps the first NaN, as
    np.maximum does: every agent steps from state 1 with r = -0.0 to state
    0, whose row the rows below set, on the identity frame, and the slot
    Q(1, 0), +0.0 in theta and so in its mix, plus eps times the residual
    shows the sign of a NaN max. A zero max no longer shows its sign, as
    the mix of every entry starts from +0.0: the slot is +0.0 either
    way."""
    feats = TabularFeatures(2, 2)
    rows = np.array([[0.0, -0.0], [-0.0, 0.0], [-np.nan, np.nan],
                     [1.0, -np.nan]])
    agents = len(rows)
    theta = np.zeros((agents, feats.dim))
    theta[:, :2] = rows                     # Q(0, .), the max's row
    ones = np.ones((1, agents), dtype=int)
    sample = (ones, 0 * ones, np.full((1, agents), -0.0), 0 * ones)
    slots = []
    for kernel in (None, operators.STEP):
        buffers, advance, _ = qlearning_block_drift(feats, 0.5, agents, 1,
                                                    kernel)
        fill_walk(buffers, *sample)
        with np.errstate(invalid="ignore"):   # 0 * nan
            out = step_each(advance, theta, np.eye(agents)[None], 0,
                            [0.25])[0][0]
        slots.append(out[:, feats.index(1, 0)])
    assert slots[0].tobytes() == slots[1].tobytes()
    assert np.signbit(slots[0]).tolist() == [False, False, True, True]
    assert np.isnan(slots[0][2:]).all()


def numpy_measure(thetas, n_runs):
    """theta_bar, dev and S of core.run's numpy measure of a block thetas
    = (m * n_runs, N, d): the agents' chain from +0.0 over N divided by
    N, the squared deviations, and np.add.reduce of each (step, run)'s
    N * d of them."""
    rows, n, d = thetas.shape
    block = thetas.reshape(rows // n_runs, n_runs, n, d)
    theta_bar = functools.reduce(operator.add, block.transpose(2, 0, 1, 3),
                                 0.0)
    theta_bar /= n
    dev = np.subtract(block, theta_bar[:, :, None])
    np.multiply(dev, dev, out=dev)
    return (theta_bar.reshape(rows, d), dev.reshape(rows, n, d),
            np.add.reduce(dev.reshape(rows, n * d), axis=-1))


# (N, d) on both sides of N * d = _SHORT_ROW, and d = 1 with N on both
# sides of it, where numpy's mean would sum the agents pairwise
MEASURE_SHAPES = [(1, 1), (3, 1), (7, 1), (8, 1), (10, 1), (3, 2), (2, 3),
                  (1, 7), (4, 2), (1, 8), (3, 5), (10, 5), (3, 100)]


@pytest.mark.parametrize("n, d", MEASURE_SHAPES)
@pytest.mark.parametrize("n_runs", [1, 30])
def test_compiled_deviations_match_numpy_measure(n, d, n_runs):
    """deviations writes the bytes of numpy's measure: theta_bar and the
    squared deviations for every N * d, and, where S is passed (N * d <
    _SHORT_ROW), the row sums np.add.reduce chains; for a longer row the
    engine keeps numpy's pairwise reduce and passes no S. The iterates
    hold zeros of both signs, +-inf and NaN, and at scale 3e307 sums and
    squares that overflow. The NaN is the machine's own, the one inf - inf
    gives: which of two NaNs of other payloads or signs a sum keeps
    depends on the operands' order, and numpy's own add orders them
    differently by SIMD level and array length."""
    step = operators.STEP
    if step is None:
        assert not compiler_found()
        return
    rng = np.random.default_rng(n * 1000 + d * 10 + n_runs)
    with np.errstate(invalid="ignore"):
        default_nan = np.subtract(np.inf, np.inf)
    rows = 5 * n_runs
    for scale in (1.0, 3e307):
        for _ in range(10):
            thetas = scale * special_values(rng, (rows, n, d))
            thetas[np.isnan(thetas)] = default_nan
            with np.errstate(all="ignore"):
                theta_bar, dev, sums = numpy_measure(thetas, n_runs)
            got = (np.full((rows, d), 7.0), np.full((rows, n, d), 7.0),
                   np.full(rows, 7.0))
            if n * d < _SHORT_ROW:
                step.deviations(thetas, *got)
            else:
                step.deviations(thetas, *got[:2])
                got = (*got[:2], sums)
            for a, b in zip(got, (theta_bar, dev, sums)):
                assert a.tobytes() == b.tobytes()


def test_compiled_deviations_rejects_mismatched_arrays():
    """deviations checks its arguments before it writes: C-contiguous
    float64 buffers, writable but for thetas, a 3-D thetas of N >= 1
    agents, theta_bar, dev and S of its rows, agents and dims, and no two
    of them overlapping; a rejected call leaves every output as it was."""
    step = operators.STEP
    if step is None:
        assert not compiler_found()
        return
    rows, n, d = 4, 3, 2

    def call(*drop, **change):
        args = dict(thetas=np.ones((rows, n, d)), theta_bar=np.zeros((rows, d)),
                    dev=np.zeros((rows, n, d)), S=np.zeros(rows))
        args.update(change)
        for name in drop:
            del args[name]
        try:
            step.deviations(*args.values())
        except (TypeError, ValueError):
            for name in ("theta_bar", "dev", "S"):
                if name in args and name not in change:
                    assert not args[name].any()
            raise

    call()
    call("S")
    with pytest.raises(TypeError):
        call("S", "dev")
    with pytest.raises(TypeError):
        step.deviations(*[np.zeros(1)] * 5)
    with pytest.raises(TypeError):
        call(thetas=np.ones((rows, n, d), np.float32))
    with pytest.raises(TypeError):
        call(S=np.zeros(rows, np.intp))
    with pytest.raises(TypeError):
        call(dev=list(np.zeros((rows, n, d))))
    with pytest.raises(ValueError):   # numpy's: not C-contiguous
        call(thetas=np.ones((rows, n, 2 * d))[..., ::2])
    with pytest.raises(ValueError):
        call(dev=np.zeros((rows, 2 * n, d))[:, ::2])
    with pytest.raises(ValueError):   # numpy's: read-only
        call(dev=read_only((rows, n, d)))
    with pytest.raises(ValueError):
        call(thetas=np.ones((rows, n * d)))
    with pytest.raises(ValueError):
        call(thetas=np.ones((rows, 0, d)), dev=np.zeros((rows, 0, d)))
    for name, shape in [("theta_bar", (rows + 1, d)),
                        ("theta_bar", (rows, d + 1)),
                        ("theta_bar", (rows * d,)),
                        ("dev", (rows - 1, n, d)),
                        ("dev", (rows, n + 1, d)),
                        ("dev", (rows, n, d + 1)),
                        ("dev", (rows, n * d)),
                        ("S", (rows + 1,)), ("S", (rows - 1,)),
                        ("S", (rows, 1))]:
        with pytest.raises(ValueError):
            call(**{name: np.zeros(shape)})
    shared = np.zeros(rows * (n * d + d))
    with pytest.raises(ValueError, match="overlap"):
        call(dev=shared[:rows * n * d].reshape(rows, n, d),
             theta_bar=shared[-rows * d - 1:-1].reshape(rows, d))
    thetas = np.ones((rows, n, d))
    with pytest.raises(ValueError, match="overlap"):
        call(thetas=thetas, dev=thetas)
    with pytest.raises(ValueError, match="overlap"):
        call(S=shared[:rows], dev=shared[:rows * n * d].reshape(rows, n, d))


def read_only(shape, dtype=float):
    """Zeros that numpy will not export as a writable buffer."""
    a = np.zeros(shape, dtype)
    a.setflags(write=False)
    return a


def test_compiled_step_rejects_mismatched_arrays():
    """The block entry points check their arguments' types and sizes
    before the first step, so a wrong call raises instead of reading or
    writing past a buffer, and leaves iterates as it was: eps must be a
    1-D C-contiguous float64 array, frames a C-contiguous float64 (F, N, N)
    array with F, N >= 1 and N dividing the agents, first an int in [0,
    F), theta must hold one row's items, the sample and iterate buffers
    must hold T rows, and iterates must overlap neither frames nor, in its
    first row, theta."""
    step = operators.STEP
    if step is None:
        assert not compiler_found()
        return
    T, n, d = 3, 3, 2

    def checked(entry, args, change):
        args.update(change)
        iterates = args["iterates"]
        before = iterates.copy()
        try:
            entry(*args.values())
        except (TypeError, ValueError):
            if "iterates" not in change:
                assert iterates.tobytes() == before.tobytes()
            raise

    def quadratic(**change):
        checked(step.quadratic_steps,
                dict(x1=np.zeros((T + 1, n, d)), x2=np.zeros((T, n, 1)),
                     theta=np.ones((n, d)), iterates=np.full((T, n, d), 7.0),
                     frames=np.ones((2, n, n)), first=1,
                     eps=np.full(T, 0.1)), change)

    def qlearning(**change):
        checked(step.qlearning_steps,
                dict(walk=np.zeros((T, 3, n), dtype=np.intp),
                     reward=np.zeros((T, n)), actions=2, gamma=0.5,
                     theta=np.ones((n, d)), iterates=np.full((T, n, d), 7.0),
                     frames=np.ones((2, n, n)), first=1,
                     eps=np.full(T, 0.1)), change)

    for call in (quadratic, qlearning):
        call()
        call(frames=np.ones((1, 1, 1)), first=0)   # N = 1 of 3 runs
        with pytest.raises(TypeError):
            call(eps=[0.1] * T)
        with pytest.raises(TypeError):
            call(eps=np.full(T, 0.1, np.float32))
        with pytest.raises(ValueError):   # numpy's: not C-contiguous
            call(eps=np.full(2 * T, 0.1)[::2])
        with pytest.raises(ValueError):
            call(eps=np.full((1, T), 0.1))
        with pytest.raises(ValueError):
            call(theta=np.zeros((2, n, d)))
        with pytest.raises(ValueError):
            call(iterates=np.zeros((T - 1, n, d)))
        with pytest.raises(ValueError):   # numpy's: read-only
            call(iterates=read_only((T, n, d)))
        with pytest.raises(ValueError):   # numpy's: not C-contiguous
            call(iterates=np.zeros((T, n, 2 * d))[..., ::2])
        with pytest.raises(TypeError):
            call(theta=np.zeros((n, d), np.float32))
        with pytest.raises(TypeError):
            call(frames=np.ones((2, n, n), np.float32))
        with pytest.raises(TypeError):
            call(frames=[np.ones((n, n))] * 2)
        with pytest.raises(ValueError):   # numpy's: not C-contiguous
            call(frames=np.ones((2, n, 2 * n))[..., ::2])
        for shape in [(n, n), (2, n * n), (2, n, n, 1), (0, n, n),
                      (2, 0, 0), (2, n, n + 1), (2, n + 1, n), (2, 2, 2)]:
            with pytest.raises(ValueError):   # 2 does not divide 3 agents
                call(frames=np.ones(shape))
        for first in (-1, 2, 2**40):
            with pytest.raises(ValueError):
                call(first=first)
        with pytest.raises(TypeError):
            call(first=1.0)
        with pytest.raises(OverflowError):
            call(first=2**70)
        shared = np.zeros(2 * n * n + T * n * d)
        with pytest.raises(ValueError, match="overlap"):
            call(frames=shared[:2 * n * n].reshape(2, n, n),
                 iterates=shared[n * n:n * n + T * n * d].reshape(T, n, d))
        iterates = np.zeros((T, n, d))
        with pytest.raises(ValueError, match="overlap"):
            call(iterates=iterates, theta=iterates[0])
        call(iterates=iterates, theta=iterates[T - 1])   # the engine's
    with pytest.raises(TypeError):
        step.quadratic_steps(np.zeros((T + 1, n, d)))
    with pytest.raises(ValueError):
        quadratic(x1=np.zeros((T + 1, n * d)))
    with pytest.raises(ValueError):
        quadratic(x1=np.zeros((T + 1, n, d + 1)))
    with pytest.raises(ValueError):   # x1's row 0 is the sampler's
        quadratic(x1=np.zeros((T, n, d)))
    with pytest.raises(ValueError):
        quadratic(x2=np.zeros((T - 1, n, 1)))
    with pytest.raises(ValueError):
        quadratic(theta=np.zeros((n + 1, d)))
    with pytest.raises(TypeError):
        step.qlearning_steps(np.zeros((T, 3, n), dtype=np.intp),
                             np.zeros((T, n)), 0.5, np.ones((n, d)),
                             np.zeros((T, n, d)), np.ones((2, n, n)), 1,
                             np.full(T, 0.1))   # no actions
    with pytest.raises(TypeError):
        qlearning(walk=np.zeros((T, 3, n)))
    with pytest.raises(TypeError):
        qlearning(walk=np.zeros((T, 3, n), dtype=np.int32))
    with pytest.raises(ValueError):
        qlearning(walk=np.zeros((T, 3 * n), dtype=np.intp))
    for shape in [(T, 2, n), (T, 4, n), (T, 3, 0), (T - 1, 3, n)]:
        with pytest.raises(ValueError):
            qlearning(walk=np.zeros(shape, dtype=np.intp))
    for actions in (0, -1, 3):   # 3 actions do not split 2 entries
        with pytest.raises(ValueError):
            qlearning(actions=actions)
    with pytest.raises(TypeError):
        qlearning(actions=2.0)
    with pytest.raises(ValueError):
        qlearning(reward=np.zeros((T - 1, n)))
    with pytest.raises(ValueError):
        qlearning(theta=np.zeros(0), iterates=np.zeros(0))
    with pytest.raises(ValueError):   # 3 agents do not split 7 entries
        qlearning(theta=np.zeros(7), iterates=np.zeros(T * 7))
    with pytest.raises(TypeError):
        qlearning(gamma="0.5")


# a sampler's chained blocks, as the engine draws them into one pair of
# buffers of SAMPLER_ROWS rows: a short block, an empty one, full ones and
# a lone step
SAMPLER_BLOCKS = [37, 0, 128, 1, 128, 37]
SAMPLER_ROWS = 128
# R sources of a stack: one, GridWorld's three, system-id's ten and the
# lemma-4 ensemble's 90
N_SOURCES = [1, 3, 10, 90]


def same_draws(block_sampler, make, buffers, first_row):
    """Two like stacks of (sources, streams) from make(), one drawn by
    block_sampler's numpy draw and one by its compiled draw on
    operators.STEP, through the chained SAMPLER_BLOCKS into two like pairs
    of buffers: after every block, the views each draw returns, the whole
    buffers, the sources' states and the streams are equal, and each
    buffer's rows from first_row(T) on, past the block, are left as they
    were."""
    (numpy_sources, numpy_rngs), (sources, rngs) = make(), make()
    numpy_draw = block_sampler(numpy_sources, numpy_rngs)
    draw = block_sampler(sources, rngs, operators.STEP)
    expected, got = buffers(), buffers()
    for T in SAMPLER_BLOCKS:
        past = [x[row:].copy() for x, row in zip(got, first_row(T))]
        views = zip(numpy_draw(T, expected), draw(T, got), strict=True)
        assert all(a.tobytes() == b.tobytes() for a, b in views)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(expected, got))
        assert all(x[row:].tobytes() == p.tobytes()
                   for x, row, p in zip(got, first_row(T), past))
        for a, b in zip(numpy_sources, sources, strict=True):
            assert (np.asarray(a.state).tobytes()
                    == np.asarray(b.state).tobytes())
        for a, b in zip(numpy_rngs, rngs):
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 5, 9])
@pytest.mark.parametrize("n_sources", N_SOURCES)
def test_compiled_ar_block_matches_numpy_draw(d, n_sources):
    """ARSource.block_sampler's compiled draw (ar_block) writes the numpy
    draw's bytes, at d on both sides of _SHORT_ROW, where every row sum but
    S chains: sources of mixed clips, of gains that include +-0.0 and
    negative ones, so that X(1) holds signed zeros, of u with zeros, and
    half of them starting from a state of their own."""
    def make():
        rng = np.random.default_rng([d, n_sources])
        sources = []
        for i in range(n_sources):
            u = rng.standard_normal(d)
            u[rng.random(d) < 0.2] = 0.0
            sources.append(ARSource(
                gains=rng.choice([0.0, -0.0, -0.7, 0.5, 1.3], d - 1), u=u,
                noise_clip=[0.5, 1.0, 3.0][i % 3],
                state=rng.standard_normal(d) if i % 2 else None))
        return sources, [derive_stream(7, i, "sample")
                         for i in range(n_sources)]

    same_draws(ARSource.block_sampler, make,
               lambda: (np.full((SAMPLER_ROWS + 1, n_sources, d), 7.0),
                        np.full((SAMPLER_ROWS, n_sources), 7.0)),
               lambda T: (T + 1, T))


# mazes of 3 to 25 cells: one whose goal is next to its start, so that its
# walks teleport often, and obstacles and walls that keep a walk in place
SAMPLER_MAZES = ["SG\n..", "S.#\n..#\n#.G",
                 "S....\n...#.\n.....\n.#...\n....G", "S.G"]


@pytest.mark.parametrize("n_sources", N_SOURCES)
def test_compiled_mdp_walk_matches_numpy_draw(n_sources):
    """MDPSource.block_sampler's compiled draw (mdp_walk) writes the numpy
    draw's bytes, over sources on mazes of different sizes, half of them
    first walked a few steps so that a block need not start at the
    start."""
    def make():
        sources, rngs = [], []
        for i in range(n_sources):
            src = MDPSource(maze=parse_maze(SAMPLER_MAZES[i % 4]))
            rng = derive_stream(11, i, "sample")
            for _ in range(i % 2 * (i % 5)):
                src.sample(rng)
            sources.append(src)
            rngs.append(rng)
        return sources, rngs

    same_draws(MDPSource.block_sampler, make,
               lambda: (np.full((SAMPLER_ROWS, 3, n_sources), -5, np.intp),
                        np.full((SAMPLER_ROWS, n_sources), 7.0)),
               lambda T: (T, T))


def test_compiled_samplers_reject_mismatched_arrays():
    """ar_block and mdp_walk check their arguments' types, shapes and
    overlaps before the first write, and mdp_walk every state, action and
    table entry too, so a wrong call raises TypeError or ValueError instead
    of reading or writing past a buffer, and leaves the buffers it writes,
    and the states, as they were."""
    step = operators.STEP
    if step is None:
        assert not compiler_found()
        return
    R, T, d, rows = 3, 4, 3, 5

    def checked(entry, args, change, written):
        args.update(change)
        before = {name: args[name].copy() for name in written
                  if isinstance(args[name], np.ndarray)}
        try:
            entry(*args.values())
        except (TypeError, ValueError):
            for name, copy in before.items():
                assert args[name].tobytes() == copy.tobytes()
            raise

    def ar(**change):
        checked(step.ar_block,
                dict(noise=np.random.default_rng(0).standard_normal((R, T, 2)),
                     clip=np.full(R, 3.0), gains=np.full((R, d - 1), 0.5),
                     u=np.ones((R, d)), state=np.ones((R, d)),
                     x=np.full((rows + 1, R, d), 7.0),
                     x2=np.full((rows, R), 7.0)), change, ["x", "x2"])

    ar()
    ar(x=np.zeros((T + 1, R, d)), x2=np.zeros((T, R)))   # rows = T
    with pytest.raises(TypeError):
        step.ar_block(np.zeros((R, T, 2)))
    for change in [dict(noise=np.zeros((R, T, 2), np.float32)),
                   dict(x=np.zeros((rows + 1, R, d), np.intp)),
                   dict(x2=np.zeros((rows, R), np.float32)),
                   dict(state=np.ones((R, d)).tolist())]:
        with pytest.raises(TypeError):
            ar(**change)
    for change in [dict(noise=np.zeros((R, 2 * T, 2))[:, ::2]),
                   dict(x=np.zeros((rows + 1, R, 2 * d))[..., ::2]),
                   dict(x=read_only((rows + 1, R, d))),
                   dict(noise=np.zeros((R, T, 3))),
                   dict(noise=np.zeros((R, 2 * T))),
                   dict(noise=np.zeros((0, T, 2)), clip=np.zeros(0),
                        gains=np.zeros((0, d - 1)), u=np.zeros((0, d)),
                        state=np.zeros((0, d)), x=np.zeros((rows + 1, 0, d)),
                        x2=np.zeros((rows, 0))),
                   dict(x=np.zeros((T, R, d))),   # row 0 is the state's
                   dict(x2=np.zeros((T - 1, R))),
                   dict(clip=np.full(R + 1, 3.0)),
                   dict(gains=np.full((R - 1, d - 1), 0.5)),
                   dict(gains=np.full((R, d), 0.5)),
                   dict(u=np.ones((R, d + 1))),
                   dict(u=np.ones(R * d)),
                   dict(state=np.ones((R - 1, d))),
                   dict(state=np.ones((R, d - 1))),
                   dict(x=np.zeros((rows + 1, R + 1, d))),
                   dict(x=np.zeros((rows + 1, R, d - 1))),
                   dict(x2=np.zeros((rows, R + 1))),
                   dict(x2=np.zeros(rows * R))]:
        with pytest.raises(ValueError):
            ar(**change)
    shared = np.zeros((rows + 1) * R * d + rows * R)
    x = shared[:(rows + 1) * R * d].reshape(rows + 1, R, d)
    for change in [dict(x=x, x2=shared[R:R + rows * R].reshape(rows, R)),
                   dict(x=x, state=x[0]),
                   dict(x=x, noise=shared[:R * T * 2].reshape(R, T, 2))]:
        with pytest.raises(ValueError, match="overlap"):
            ar(**change)

    maze = parse_maze("S.\n.G")   # 4 cells of 4 actions: 16 entries
    nxt, rew, after = (np.array(column * R, dtype)
                       for column, dtype in zip(maze.transitions,
                                                (np.intp, float, np.intp)))

    def mdp(**change):
        checked(step.mdp_walk,
                dict(actions=[np.arange(T, dtype=np.intp) % 4] * R,
                     n_actions=4, after=after, next_states=nxt, rewards=rew,
                     starts=np.arange(R + 1, dtype=np.intp) * 16,
                     state=np.array([0, 1, 2], np.intp),
                     walk=np.full((rows, 3, R), -5, np.intp),
                     reward=np.full((rows, R), 7.0)),
                change, ["state", "walk", "reward"])

    mdp()
    mdp(actions=[np.zeros(0, np.intp)] * R)   # an empty block
    with pytest.raises(TypeError):
        step.mdp_walk([np.zeros(T, np.intp)] * R, 4)
    bad_last = [np.zeros(T, np.intp)] * (R - 1) + [np.array([0, 1, 2, 4])]
    for change in [dict(walk=np.zeros((rows, 3, R))),
                   dict(reward=np.zeros((rows, R), np.intp)),
                   dict(state=np.zeros(R)),
                   dict(state=np.zeros(R, np.int32)),
                   dict(after=after.astype(float)),
                   dict(actions=[np.zeros(T, np.int32)] * R),
                   dict(actions=[np.zeros(T)] * R),
                   dict(actions=[[0] * T] * R),
                   dict(actions=7),
                   dict(n_actions=4.0)]:
        with pytest.raises(TypeError):
            mdp(**change)
    for change in [dict(walk=np.zeros((rows, 3, 2 * R), np.intp)[..., ::2]),
                   dict(walk=read_only((rows, 3, R), np.intp)),
                   dict(actions=[np.zeros(2 * T, np.intp)[::2]] * R),
                   dict(walk=np.zeros((T - 1, 3, R), np.intp)),
                   dict(walk=np.zeros((rows, 2, R), np.intp)),
                   dict(walk=np.zeros((rows, 3 * R), np.intp)),
                   dict(reward=np.zeros((T - 1, R))),
                   dict(walk=np.zeros((rows, 3, R + 1), np.intp)),
                   dict(reward=np.zeros((rows, R - 1))),
                   dict(state=np.zeros(R + 1, np.intp)),
                   dict(starts=np.arange(R, dtype=np.intp) * 16),
                   dict(actions=[np.zeros(T, np.intp)] * (R - 1)),
                   dict(actions=[]),
                   dict(actions=[np.zeros(T, np.intp)] * (R - 1)
                        + [np.zeros(T - 1, np.intp)]),
                   dict(actions=[np.zeros((1, T), np.intp)] * R),
                   dict(rewards=rew[:-1]),
                   dict(next_states=nxt[1:]),
                   dict(n_actions=0),
                   # out of range: a state, an action, a table entry, a table
                   dict(state=np.array([0, 4, 0], np.intp)),
                   dict(state=np.array([0, 0, -1], np.intp)),
                   dict(actions=bad_last),
                   dict(actions=[np.full(T, -1, np.intp)] * R),
                   dict(after=np.where(np.arange(3 * 16) == 40, 4, after)),
                   dict(after=np.where(np.arange(3 * 16) == 5, -1, after)),
                   dict(starts=np.array([0, 16, 8, 48], np.intp)),
                   dict(starts=np.array([0, 16, 32, 64], np.intp)),
                   dict(starts=np.array([-16, 0, 16, 32], np.intp)),
                   dict(starts=np.array([-2**62, 0, 2**62, 48], np.intp)),
                   dict(n_actions=5)]:
        with pytest.raises(ValueError):
            mdp(**change)
    shared = np.zeros(rows * 3 * R + rows * R, np.intp)
    walk = shared[:rows * 3 * R].reshape(rows, 3, R)
    for change in [dict(walk=walk, reward=shared[-rows * R - 1:-1].view(
                       np.float64).reshape(rows, R)),
                   dict(walk=walk, state=walk[0, 0]),
                   dict(walk=walk, actions=[walk.reshape(-1)[:T]] * R)]:
        with pytest.raises(ValueError, match="overlap"):
            mdp(**change)


def test_compiled_step_loads_where_a_compiler_runs():
    """dcsa.operators builds and loads the step at import wherever
    sysconfig's compiler is on the path."""
    assert operators.STEP is not None or not compiler_found()


def test_compiled_step_loader_falls_back_without_a_compiler(tmp_path):
    """A missing compiler and an empty cache give None, and leave no file
    behind."""
    cache = tmp_path / "cache"
    assert _build.load_step(cc=[str(tmp_path / "no-such-cc")],
                            cache_dir=str(cache)) is None
    assert not cache.exists() or os.listdir(cache) == []


def test_compiled_step_cache_starts_no_compiler(tmp_path, monkeypatch):
    """The first load builds the step into the cache, under a name keyed
    by the source's sha256 and the extension suffix, with no temporary
    file left; a second load of that cache starts no process."""
    cache = str(tmp_path)
    first = _build.load_step(cache_dir=cache)
    if first is None:
        assert not compiler_found()
        return
    names = os.listdir(cache)
    assert len(names) == 1 and names[0].startswith("_step.")
    assert names[0].endswith(sysconfig.get_config_var("EXT_SUFFIX"))

    def no_process(*args, **kwargs):
        raise AssertionError(f"a cached load started {args}")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    second = _build.load_step(cache_dir=cache)
    assert second is not None and os.listdir(cache) == names
    out = np.full((1, 1, 2), 7.0)
    second.quadratic_steps(np.ones((2, 1, 2)), np.ones((1, 1, 1)),
                           np.ones((1, 2)), out, np.zeros((1, 1, 1)), 0,
                           np.array([0.5]))
    assert out.tolist() == [[[-1.0, -1.0]]]   # 0 + 0.5 * 2 * (1 - 2) * 1
