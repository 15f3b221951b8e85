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
from strategies import (DEFAULT_NAN, GAMMAS, signed_zeros, special_values,
                        step_each)

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
    numpy_advance = qlearning_block_drift(feats, gamma, agents, T)[0](
        s, a, r, s_next)
    compiled_advance = qlearning_block_drift(
        feats, gamma, agents, T, operators.STEP)[0](s, a, r, s_next)
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
        block, _ = qlearning_block_drift(feats, 0.5, agents, 1, kernel)
        with np.errstate(invalid="ignore"):   # 0 * nan
            out = step_each(block(*sample), theta, np.eye(agents)[None], 0,
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


def read_only(shape):
    """Zeros that numpy will not export as a writable buffer."""
    a = np.zeros(shape)
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
                dict(index=np.zeros((T, 2, n), dtype=np.intp),
                     reward=np.zeros((T, n)), gamma=0.5,
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
        qlearning(index=np.zeros((T, 2, n)))
    with pytest.raises(ValueError):
        qlearning(index=np.zeros((T, 2 * n), dtype=np.intp))
    with pytest.raises(ValueError):   # no action rows
        qlearning(index=np.zeros((T, 1, n), dtype=np.intp))
    with pytest.raises(ValueError):
        qlearning(index=np.zeros((T - 1, 2, n), dtype=np.intp))
    with pytest.raises(ValueError):
        qlearning(reward=np.zeros((T - 1, n)))
    with pytest.raises(ValueError):
        qlearning(theta=np.zeros(0), iterates=np.zeros(0))
    with pytest.raises(ValueError):   # 3 agents do not split 7 entries
        qlearning(theta=np.zeros(7), iterates=np.zeros(T * 7))
    with pytest.raises(TypeError):
        qlearning(gamma="0.5")


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
