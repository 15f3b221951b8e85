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
