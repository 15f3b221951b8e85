"""Hypothesis strategies and sample arrays shared by the test modules."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from dcsa.sources import SourceError, parse_maze

# discount factors in the open interval (0, 1)
GAMMAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def mazes(draw, shape=None):
    """A random valid parse_maze grid of up to 5 x 4 cells, or of the given
    (width, height): one start, at least one goal reachable from it, and
    any mix of empty cells and obstacles."""
    width, height = shape or (draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    cells = draw(st.lists(st.sampled_from(".....##G"), min_size=width * height,
                          max_size=width * height))
    cells[draw(st.integers(0, width * height - 1))] = "S"
    text = "\n".join("".join(cells[r * width:(r + 1) * width])
                     for r in range(height))
    try:
        return parse_maze(text)
    except SourceError:
        assume(False)


def signed_zeros(rng, shape):
    """Standard normals with about a fifth of the entries -0.0 and a fifth
    +0.0."""
    x = rng.standard_normal(shape)
    u = rng.random(shape)
    x[u < 0.2] = -0.0
    x[u > 0.8] = 0.0
    return x


def special_values(rng, shape):
    """Standard normals with about half the entries +0.0, -0.0, inf, -inf
    or NaN, in equal shares."""
    x = rng.standard_normal(shape)
    special = rng.random(shape) < 0.5
    x[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                            size=int(special.sum()))
    return x


def step_each(advance, thetas, outs, eps, stacked=False):
    """Each step of one block of a drift's advance (see
    operators.step_loop), taken from a chosen pre-step iterate: step t
    starts from thetas[t] with W Theta = outs[t], and the result holds
    outs[t] plus eps[t] times the drift at thetas[t], as advance left it,
    for each t < T = len(outs). Mixer t first keeps step t - 1's result,
    then writes thetas[t] into the pre-step iterate, the row the drift of
    step t reads, and outs[t] into row t. The pre-block iterate is a row
    of its own, and eps goes in as a float64 array. rows_mix is the
    block's rows as a list, as a stack of one is mixed, or with stacked
    the block itself, as a larger stack is."""
    iterates = np.empty_like(outs)
    results = np.empty_like(outs)

    def mixer(t):
        def mix(prev, out):
            if t:
                results[t - 1] = prev
            np.copyto(prev, thetas[t])
            np.copyto(out, outs[t])
        return mix

    advance(np.empty(outs.shape[1:]), iterates,
            iterates if stacked else list(iterates),
            [mixer(t) for t in range(len(outs))], np.array(eps, dtype=float))
    if len(outs):
        results[-1] = iterates[-1]
    return results
