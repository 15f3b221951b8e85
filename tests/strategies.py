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


# the NaN of an invalid operation, such as inf - inf: of a sum of two NaNs
# either may come out, by operand order, which numpy's SIMD loops and a
# compiler each choose; where a test mixes special values, its inputs hold
# this NaN only, which every NaN made from them equals
with np.errstate(invalid="ignore"):
    DEFAULT_NAN = float(np.subtract(np.inf, np.inf))


def special_values(rng, shape, share=0.5, nan=np.nan):
    """Standard normals with about a share of the entries +0.0, -0.0, inf,
    -inf or nan, in equal shares."""
    x = rng.standard_normal(shape)
    special = rng.random(shape) < share
    x[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, nan],
                            size=int(special.sum()))
    return x


def reference_mix(w, theta):
    """W theta for one run's (N, d) theta: Python's sum over j of the
    products W[:, j] theta_j, from 0.0 in j order."""
    return sum((w[:, j, None] * theta[j] for j in range(len(w))), 0.0)


def step_each(advance, theta, frames, first, eps):
    """One block of a drift's advance (see operators.step_loop) from the
    pre-block iterate theta, (N, d), on frames, (F, N, N), from frame
    first: its iterates, (T, N, d) for T = len(eps), and for each step t
    the pre-step iterate, theta and then row t - 1, and its W Theta by
    reference_mix, to which the step adds eps[t] times the drift."""
    eps = np.array(eps, dtype=float)
    iterates = np.full((len(eps),) + theta.shape, 7.0)
    advance(theta, iterates, frames, first, eps)
    prevs = np.concatenate([theta[None], iterates])[:len(eps)]
    mixes = np.array([reference_mix(frames[(first + t) % len(frames)], prev)
                      for t, prev in enumerate(prevs)])
    return iterates, prevs, mixes.reshape(iterates.shape)


def fill_walk(buffers, s, a, r, s_next):
    """Write time-major (T, agents) samples (s, a, r, s') into the first T
    rows of a Q-learning builder's buffers (walk, reward), where
    MDPSource.block_sampler would draw them."""
    walk, reward = buffers
    T = len(s)
    walk[:T, 0], walk[:T, 1], walk[:T, 2] = s, a, s_next
    reward[:T] = r
