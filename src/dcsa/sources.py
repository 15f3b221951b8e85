"""Per-agent Markovian data generators and mixing-time machinery.

Three source kinds: finite ergodic chains (exact distributions available),
clipped-noise autoregressive processes, and GridWorld MDPs driven by a
uniform behavior policy with goal-to-start teleports.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ROW_TOL = 1e-12


class SourceError(ValueError):
    """Raised for malformed chains, mazes, or invalid mixing queries."""


# ---------------------------------------------------------------------------
# finite chains


@dataclass
class FiniteChain:
    transition: np.ndarray
    state: int = 0

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise SourceError("transition matrix must be square")
        if np.any(p < 0):
            raise SourceError("transition probabilities must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > ROW_TOL:
            raise SourceError("transition rows must sum to 1 within 1e-12")
        p = p.copy()
        p.setflags(write=False)
        self.transition = p
        if not (0 <= self.state < p.shape[0]):
            raise SourceError("initial state out of range")

    @property
    def n_states(self):
        return self.transition.shape[0]

    def sample(self, rng):
        """Advance one step and return the new state."""
        self.state = int(rng.choice(self.n_states, p=self.transition[self.state]))
        return self.state


def _bfs_levels(adj):
    """Breadth-first depth of every node from node 0 along the boolean
    adjacency matrix adj; -1 for nodes it does not reach."""
    level = np.full(adj.shape[0], -1)
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = adj[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def ergodicity_report(c: FiniteChain):
    """(irreducible, aperiodic) for the chain's support digraph.

    Irreducible: state 0 reaches every state and every state reaches it.
    The period of an irreducible chain is the gcd of level[u] + 1 - level[v]
    over the support edges u -> v, with breadth-first levels from state 0.
    """
    support = c.transition > 0
    level = _bfs_levels(support)
    if np.any(level < 0) or np.any(_bfs_levels(support.T) < 0):
        return False, False
    rows, cols = np.nonzero(support)
    period = np.gcd.reduce(level[rows] + 1 - level[cols])
    return True, bool(period == 1)


def _require_ergodic(c: FiniteChain):
    irreducible, aperiodic = ergodicity_report(c)
    if not irreducible:
        raise SourceError("chain is not irreducible")
    if not aperiodic:
        raise SourceError("chain is periodic")


def stationary_distribution(c: FiniteChain) -> np.ndarray:
    """mu with mu P = mu, sum(mu) = 1, residual below 1e-12."""
    _require_ergodic(c)
    n = c.n_states
    # (P^T - I) mu = 0 plus the normalization row, solved by least squares.
    a = np.vstack([c.transition.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    mu = np.clip(mu, 0.0, None)
    mu /= mu.sum()
    # one power-iteration polish pass
    for _ in range(5):
        resid = np.max(np.abs(mu @ c.transition - mu))
        if resid <= 1e-13:
            break
        mu = mu @ c.transition
        mu /= mu.sum()
    if np.max(np.abs(mu @ c.transition - mu)) > 1e-12:
        raise SourceError("stationary distribution did not reach 1e-12 residual")
    return mu


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SourceError("distributions must have equal length")
    return 0.5 * float(np.abs(p - q).sum())


def _worst_tv(power, mu):
    return max(tv_distance(row, mu) for row in power)


def mixing_time(c: FiniteChain, eps: float) -> int:
    """Smallest k with max-over-starts TV(P^k(x,.), mu) <= eps, by explicit
    matrix powers."""
    if not (0.0 < eps < 1.0):
        raise SourceError("eps must lie in (0,1)")
    mu = stationary_distribution(c)
    power = np.eye(c.n_states)
    k = 0
    while _worst_tv(power, mu) > eps:
        power = power @ c.transition
        k += 1
        if k > 100_000:
            raise SourceError("mixing time exceeded 1e5 iterations")
    return k


def slem(c: FiniteChain) -> float:
    """Second largest eigenvalue modulus of the transition matrix."""
    vals = np.sort(np.abs(np.linalg.eigvals(c.transition)))[::-1]
    second = float(vals[1]) if len(vals) > 1 else 0.0
    # eigenvalues that are exactly zero in structure show up as round-off
    return second if second > 1e-12 else 0.0


@dataclass(frozen=True)
class MixingProfile:
    """Geometric mixing bound TV(k) <= m rho^k and tau(eps) <= beta log(1/eps)."""

    m: float
    rho: float
    beta: float


def fit_mixing_profile(c: FiniteChain, eps_grid) -> MixingProfile:
    """rho = SLEM; m = smallest constant covering measured TV on the
    validation range; beta = smallest constant covering tau on eps_grid."""
    _require_ergodic(c)
    eps_grid = sorted(float(e) for e in eps_grid)
    if not eps_grid:
        raise SourceError("eps_grid must be nonempty")
    mu = stationary_distribution(c)
    rho = slem(c)
    k_max = mixing_time(c, eps_grid[0])
    # extend the fit range beyond the smallest-eps mixing time so the bound
    # stays valid at the eigenvalue-implied mixing horizon
    k_fit = 2 * k_max + 10
    power = np.eye(c.n_states)
    m = 0.0
    for k in range(k_fit + 1):
        tv = _worst_tv(power, mu)
        if tv > 1e-12:
            if rho == 0.0:
                if k == 0:
                    m = max(m, tv)
            else:
                m = max(m, tv / rho**k)
        power = power @ c.transition
    m = max(m, 1e-12)
    beta = 0.0
    for eps in eps_grid:
        denom = math.log(1.0 / eps)
        if denom <= 0:
            continue
        beta = max(beta, mixing_time(c, eps) / denom)
    beta = max(beta, 1e-12)
    return MixingProfile(m=m, rho=rho, beta=beta)


# ---------------------------------------------------------------------------
# autoregressive source


def clipped_normal(rng, clip):
    return float(np.clip(rng.standard_normal(), -clip, clip))


@dataclass
class ARSource:
    """X(1) <- A X(1) + clip(noise) e1;  X(2) = <u, X(1)> + clip(noise).

    A is zero off its first subdiagonal, whose d - 1 entries are the gains
    (nilpotent, hence stable): X(1)_m <- gains[m-1] X(1)_{m-1}. Noise
    clipping keeps the observation space compact (default clip 3).
    """

    gains: np.ndarray
    u: np.ndarray
    noise_clip: float = 3.0
    state: np.ndarray = None

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 1 or len(self.u) < 1:
            raise SourceError("u must be a vector of length d >= 1")
        if self.gains.shape != (len(self.u) - 1,):
            raise SourceError("gains must be a vector of length d - 1")
        if not np.isfinite(self.gains).all():
            raise SourceError("gains must be finite")
        if not self.noise_clip > 0:   # NaN fails this too
            raise SourceError("noise_clip must be positive")
        if self.state is None:
            self.state = np.zeros(self.dim)
        else:
            self.state = np.asarray(self.state, dtype=float).copy()

    @property
    def dim(self):
        return len(self.u)

    def sample(self, rng):
        x1 = np.empty(self.dim)
        x1[0] = clipped_normal(rng, self.noise_clip)
        np.multiply(self.gains, self.state[:-1], out=x1[1:])
        x2 = float((x1 * self.u).sum()) + clipped_normal(rng, self.noise_clip)
        self.state = x1
        return x1.copy(), x2

    def sample_block(self, rng, T):
        """The next T samples as arrays x1 (T, d) and x2 (T,), with the
        values, final state and stream of T sample calls."""
        x1, x2 = ARSource.block_sampler([self], [rng])(T)
        return x1[:, 0], x2[:, 0]

    @staticmethod
    def block_sampler(sources, rngs):
        """draw(T, out=None): the next T samples of each of R ARSources of
        one dim, each from its own stream, time-major: x1 (T, R, d) and x2
        (T, R), with the values, final states and streams of T sample calls
        per source.

        out, when given, is a pair of buffers (x, x2) with at least T + 1
        and T rows, of shapes (rows + 1, R, d) and (rows, R): the block is
        drawn into them, row 0 of x taking the states it starts from, and
        draw returns their views x[1:T + 1] and x2[:T]. Without out, draw
        makes a fresh pair for the block.

        The sources' clips, gains, u and states are gathered into arrays
        once, here. draw carries the states from block to block itself and
        hands each source its new state after every block, so a source
        must not be sampled by other means between draws.

        Each stream fills its (T, 2) noise with one standard_normal call,
        as T sample calls would draw it; the clip, the shift and the sums
        then act on all R sources at once. Column m of X(1) is gains[m-1]
        times column m-1 one step earlier: one array op per column over
        rows whose first is the state, the products sample forms. x2 is
        row_dots of x1 and u, as sample's 1-D sum."""
        n_sources, dim = len(sources), sources[0].dim
        clip = np.array([src.noise_clip for src in sources])[:, None, None]
        gains = np.array([src.gains for src in sources]).T
        u = np.array([src.u for src in sources])
        state = np.array([src.state for src in sources])
        # the noise and the products of row_dots, grown to the longest
        # block: no array that draw returns refers to them, and a fresh
        # noise buffer per block raised the peak RSS of the 30-seed
        # lemma4_ensemble benchmark by about 0.2 MB
        noise_buf = np.empty((n_sources, 0, 2))
        products = np.empty((0, n_sources))

        def draw(T, out=None):
            nonlocal state, noise_buf, products
            if noise_buf.shape[1] < T:
                noise_buf = np.empty((n_sources, T, 2))
                products = np.empty((T, n_sources))
            if out is None:
                out = (np.empty((T + 1, n_sources, dim)),
                       np.empty((T, n_sources)))
            x, x2 = out[0][:T + 1], out[1][:T]
            noise = noise_buf[:, :T]
            for rng, rows in zip(rngs, noise):
                rng.standard_normal(out=rows)
            np.minimum(np.maximum(noise, -clip, out=noise), clip, out=noise)
            x[0] = state
            x[1:, :, 0] = noise[..., 0].T
            for m in range(1, dim):
                np.multiply(gains[m - 1], x[:-1, :, m - 1], out=x[1:, :, m])
            x1 = x[1:]
            state = x[-1].copy()
            for src, row in zip(sources, state):
                src.state = row
            row_dots(x1, u, x2, products[:T])
            x2 += noise[..., 1].T
            return x1, x2

        return draw


_SHORT_ROW = 8


def ordered_sum(terms, out):
    """out = terms[0] + 0.0, then out += each later term, in order; returns
    out. terms may be a generator whose terms share one scratch.

    This is np.add.reduce's order wherever it chains: it adds a contiguous
    row shorter than _SHORT_ROW to +0.0 one term at a time, ((0.0 + t0) +
    t1) + ..., sums a longer one pairwise, and chains a reduce across a
    strided axis at any length. The chain gives the reduce's bytes, -0.0
    included, in one array call per term where the reduce runs one short
    inner loop per row; test_ordered_sum_is_numpys_order checks the rule."""
    terms = iter(terms)
    np.add(next(terms), 0.0, out=out)
    for term in terms:
        out += term
    return out


def row_dots(x, u, out, scratch):
    """np.add.reduce(x * u, axis=-1) into out, bit for bit, for x of shape
    (..., d) and u broadcast against it; scratch has out's shape. A short
    row is the ordered_sum of its columns' products, each made in scratch,
    so no (..., d) product is made; a longer one keeps the reduce."""
    d = x.shape[-1]
    if d >= _SHORT_ROW:
        return np.add.reduce(x * u, axis=-1, out=out)
    return ordered_sum((np.multiply(x[..., m], u[..., m], out=scratch)
                        for m in range(d)), out)


def ar_state_bound(gains, noise_clip) -> np.ndarray:
    """Componentwise bound on |X(1)| reachable from X(0)=0: clip * g with
    g = cumprod([1, |a_1|, ..., |a_{d-1}|]) for the gains a, since
    X(1)_m(k) = a_1 ... a_m w(k-m) for the clipped noise w."""
    g = np.cumprod(np.abs(np.concatenate(([1.0], gains))))
    return g * float(noise_clip)


# ---------------------------------------------------------------------------
# GridWorld MDP source

ACTIONS = ("up", "down", "left", "right")
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass
class Maze:
    """Text-grid maze: '.' empty, '#' obstacle, 'S' start, 'G' goal."""

    cells: tuple  # rows of strings
    height: int = field(init=False)
    width: int = field(init=False)
    start: int = field(init=False)
    goals: frozenset = field(init=False)

    def __post_init__(self):
        rows = tuple(self.cells)
        if not rows or len({len(r) for r in rows}) != 1:
            raise SourceError("maze rows must be nonempty and equal length")
        self.cells = rows
        self.height = len(rows)
        self.width = len(rows[0])
        starts, goals = [], []
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                if ch == "S":
                    starts.append(self.index(r, c))
                elif ch == "G":
                    goals.append(self.index(r, c))
                elif ch not in ".#":
                    raise SourceError(f"unknown maze character {ch!r}")
        if len(starts) != 1:
            raise SourceError("maze must contain exactly one start 'S'")
        if not goals:
            raise SourceError("maze must contain at least one goal 'G'")
        self.start = starts[0]
        self.goals = frozenset(goals)
        if not self._goal_reachable():
            raise SourceError("no goal reachable from start")

    def index(self, r, c):
        return r * self.width + c

    def is_obstacle(self, s):
        return self.cells[s // self.width][s % self.width] == "#"

    @property
    def n_cells(self):
        return self.width * self.height

    @property
    def n_actions(self):
        return len(ACTIONS)

    def move(self, s, a):
        """(next_state, reward): obstacle or wall bumps keep the agent in
        place (reward -1 for obstacles, 0 for walls); goals give +1."""
        r, c = divmod(s, self.width)
        dr, dc = _MOVES[a]
        nr, nc = r + dr, c + dc
        if not (0 <= nr < self.height and 0 <= nc < self.width):
            return s, 0.0
        t = self.index(nr, nc)
        if self.is_obstacle(t):
            return s, -1.0
        if t in self.goals:
            return t, 1.0
        return t, 0.0

    @cached_property
    def transitions(self):
        """(next states, rewards, chain states) as flat lists indexed by
        s * n_actions + a: move(s, a), and the state the sampled chain is in
        afterwards (the start after a goal). Built on first use, not when
        the maze is parsed."""
        nxt, rew, after = [], [], []
        for s in range(self.n_cells):
            for a in range(self.n_actions):
                t, r = self.move(s, a)
                nxt.append(t)
                rew.append(r)
                after.append(self.start if t in self.goals else t)
        return nxt, rew, after

    def _goal_reachable(self):
        seen = {self.start}
        stack = [self.start]
        while stack:
            s = stack.pop()
            if s in self.goals:
                return True
            for a in range(4):
                t, _ = self.move(s, a)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return False


def parse_maze(text: str) -> Maze:
    rows = [line for line in text.splitlines() if line.strip()]
    return Maze(cells=tuple(rows))


def load_maze(path) -> Maze:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_maze(fh.read())


@dataclass
class MDPSource:
    """GridWorld chain over (s, a, r, s') under a uniform behavior policy.

    Reaching a goal teleports back to start inside the same chain, keeping
    the sample process a single ergodic Markov chain.
    """

    maze: Maze
    state: int = None

    def __post_init__(self):
        if self.state is None:
            self.state = self.maze.start

    def sample(self, rng):
        s = self.state
        a = int(rng.integers(0, self.maze.n_actions))
        s_next, r = self.maze.move(s, a)
        self.state = self.maze.start if s_next in self.maze.goals else s_next
        return s, a, r, s_next

    def sample_block(self, rng, T):
        """The next T samples as arrays (s, a, r, s'): the same values, and
        the same final state, as T calls of sample."""
        blocks = MDPSource.block_sampler([self], [rng])(T)
        return tuple(x[:, 0] for x in blocks)

    @staticmethod
    def block_sampler(sources, rngs):
        """draw(T): the next T samples of each of R MDPSources, each from
        its own stream, as time-major arrays (s, a, r, s') of shape (T, R):
        the values, dtypes and final states of T sample calls per source.

        The mazes' tables are fetched once, here: each source's chain moves
        as a list of next row starts after[i] * actions, and the mazes'
        rewards and next states as one array each, the source's table at
        its offset. A draw has every source draw one integers(0, actions,
        size=T) and walk its list, appending one flat table index
        i = s * actions + a per step; r and s' are then gathered from the
        arrays at the offset indices, and s and a come from one divmod."""
        n_actions = len(ACTIONS)   # every maze's
        tables = [src.maze.transitions for src in sources]
        row_starts = [[n_actions * t for t in after]
                      for _, _, after in tables]
        offsets = np.cumsum([0] + [len(nxt) for nxt, _, _ in tables[:-1]])
        next_states = np.array([t for nxt, _, _ in tables for t in nxt],
                               dtype=int)
        rewards = np.array([r for _, rew, _ in tables for r in rew],
                           dtype=float)

        def draw(T):
            walk = []   # every source's T indices in turn
            for src, rng, after in zip(sources, rngs, row_starts):
                row = src.state * n_actions
                for a in rng.integers(0, n_actions, size=T).tolist():
                    i = row + a
                    walk.append(i)
                    row = after[i]
                src.state = row // n_actions
            i = np.fromiter(walk, int, len(walk)).reshape(len(sources), T).T
            s, a = divmod(i, n_actions)
            i = i + offsets
            return s, a, rewards[i], next_states[i]

        return draw
