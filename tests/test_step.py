"""The compiled drift step (src/dcsa/_step.c) against the numpy step of
each batched builder, byte for byte, and the loader that builds and caches
it (dcsa._build).

Where the step did not load, operators.STEP is None and a builder given it
steps with numpy, so every comparison still runs; the loader tests then
check that no compiler was there to build it.
"""

import os
import shlex
import shutil
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsa import _build, operators
from dcsa.operators import (TabularFeatures, qlearning_block_drift,
                            quadratic_block_drift)
from dcsa.sources import _SHORT_ROW

from strategies import GAMMAS, signed_zeros, special_values

# one run of S = 30 stacked scenarios of N = 3 agents steps 90 rows at once
AGENTS = st.sampled_from([1, 3, 90])


def compiler_found():
    return shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0])


@pytest.mark.parametrize("d", range(1, _SHORT_ROW))
@given(agents=AGENTS, eps=st.floats(1e-3, 10.0),
       scale=st.sampled_from([1.0, 3e307]), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_compiled_quadratic_matches_numpy_step(d, agents, eps, scale, seed):
    """quadratic adds what the numpy step adds, bit for bit, for every d
    below _SHORT_ROW and stacks of one and of many rows: x2 holds zeros of
    both signs, +-inf and NaN, theta zeros of both signs (their products
    -0.0 or +0.0, whose sum's sign x2 = 0 shows) and, at scale 3e307,
    products that overflow."""
    T = 12
    rng = np.random.default_rng(seed)
    (x, x2), numpy_step, _ = quadratic_block_drift(d, agents, T)
    (kx, kx2), compiled_step, _ = quadratic_block_drift(d, agents, T,
                                                        operators.STEP)
    x[1:] = rng.standard_normal((T, agents, d))
    x2[:] = signed_zeros(rng, (T, agents))
    special = rng.random((T, agents)) < 0.3
    x2[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                             size=int(special.sum()))
    kx[...], kx2[...] = x, x2
    for t in range(T):
        theta = scale * signed_zeros(rng, (agents, d))
        out0 = signed_zeros(rng, (agents, d))
        expected, got = out0.copy(), out0.copy()
        with np.errstate(all="ignore"):
            numpy_step(theta, t, eps, expected)
            compiled_step(theta, t, eps, got)
        assert got.tobytes() == expected.tobytes()


@given(n_states=st.integers(1, 6), n_actions=st.integers(1, 8),
       gamma=GAMMAS, agents=AGENTS, eps=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_compiled_qlearning_matches_numpy_step(n_states, n_actions, gamma,
                                               agents, eps, seed):
    """qlearning adds what the numpy step adds, bit for bit, to every slot
    and leaves every other entry of out as it was, on the tables that pin
    the Bellman residual's max (test_bellman_residual_matches_row_wise_max:
    up to 8 actions, +-0.0, +-inf and NaN entries) and for stacks of one
    and of many agents."""
    T = 10
    rng = np.random.default_rng(seed)
    feats = TabularFeatures(n_states, n_actions)
    s, s_next = rng.integers(0, n_states, size=(2, T, agents))
    a = rng.integers(0, n_actions, size=(T, agents))
    r = signed_zeros(rng, (T, agents))
    numpy_step = qlearning_block_drift(feats, gamma, agents, T)[0](
        s, a, r, s_next)
    compiled_step = qlearning_block_drift(feats, gamma, agents, T,
                                          operators.STEP)[0](s, a, r, s_next)
    for t in range(T):
        theta = special_values(rng, (agents, feats.dim))
        out0 = signed_zeros(rng, (agents, feats.dim))
        expected, got = out0.copy(), out0.copy()
        with np.errstate(all="ignore"):
            numpy_step(theta, t, eps, expected)
            compiled_step(theta, t, eps, got)
        assert got.tobytes() == expected.tobytes()


def test_compiled_qlearning_max_takes_numpys_zero_and_nan():
    """The action-order max of both steps keeps the first NaN and takes the
    later zero of a tie of +0.0 and -0.0, as np.maximum does. Every agent
    steps from state 1 with r = -0.0 to state 0, whose row the rows below
    set; with Q(1, .) = +0.0, the residual r + gamma max - Q(1, a) keeps
    the sign of a zero max, and out0 = -0.0 plus eps times it shows it. A
    NaN max keeps its own sign bit."""
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
        out = np.full((agents, feats.dim), -0.0)
        block, _ = qlearning_block_drift(feats, 0.5, agents, 1, kernel)
        step = block(*sample)
        step(theta, 0, 0.25, out)
        slots.append(out[:, feats.index(1, 0)])
    assert slots[0].tobytes() == slots[1].tobytes()
    assert np.signbit(slots[0]).tolist() == [True, False, True, True]
    assert np.isnan(slots[0][2:]).all()


def test_compiled_step_rejects_mismatched_arrays():
    """The step checks the buffers' types and sizes, so a wrong call raises
    instead of reading or writing past an array."""
    step = operators.STEP
    if step is None:
        assert not compiler_found()
        return
    theta, out = np.zeros((3, 2)), np.zeros((3, 2))
    with pytest.raises(ValueError):
        step.quadratic(theta, np.zeros((3, 3)), np.zeros((3, 1)), 0.1, out)
    with pytest.raises(ValueError):
        step.quadratic(theta, np.zeros((3, 2)), np.zeros((4, 1)), 0.1, out)
    with pytest.raises(TypeError):
        step.quadratic(theta, np.zeros((3, 2), np.float32), np.zeros((3, 1)),
                       0.1, out)
    with pytest.raises(ValueError):   # numpy's: not C-contiguous
        step.quadratic(theta, np.zeros((3, 4))[:, ::2], np.zeros((3, 1)),
                       0.1, out)
    out.setflags(write=False)
    with pytest.raises(ValueError):   # numpy's: read-only
        step.quadratic(theta, theta, np.zeros((3, 1)), 0.1, out)
    index = np.zeros((3, 2), dtype=np.intp)
    with pytest.raises(TypeError):
        step.qlearning(theta, index.astype(float), np.zeros(2), 0.5, 0.1,
                       np.zeros((3, 2)))
    with pytest.raises(ValueError):
        step.qlearning(theta, index, np.zeros(4), 0.5, 0.1, np.zeros((3, 2)))


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
    out = np.zeros((1, 2))
    second.quadratic(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 1)), 0.5,
                     out)
    assert out.tolist() == [[-1.0, -1.0]]   # 0.5 * 2 * (1 - 2) * 1
