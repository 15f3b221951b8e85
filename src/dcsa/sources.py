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


def global_tau(profiles, eps: float, per_agent_tau) -> int:
    """Network-level tau(eps) = max{ceil(rho/(1-rho)), max_i tau(i,eps)}."""
    if not profiles or not per_agent_tau:
        raise SourceError("profiles and per-agent taus must be nonempty")
    rho = max(p.rho for p in profiles)
    floor_term = math.ceil(rho / (1.0 - rho) - 1e-9) if rho > 0 else 0
    return max(floor_term, max(int(t) for t in per_agent_tau))


# ---------------------------------------------------------------------------
# autoregressive source


def clipped_normal(rng, clip):
    return float(np.clip(rng.standard_normal(), -clip, clip))


def _subdiagonal(A) -> np.ndarray:
    """The first subdiagonal of A, which must be square and zero everywhere
    else: the one form of A that an ARSource holds."""
    A = np.asarray(A, dtype=float)
    if (A.ndim != 2 or A.shape[0] != A.shape[1]
            or np.any(A != np.diag(np.diagonal(A, offset=-1), k=-1))):
        raise SourceError("A must be square and zero off its first subdiagonal")
    return np.diagonal(A, offset=-1)


@dataclass
class ARSource:
    """X(1) <- A X(1) + clip(noise) e1;  X(2) = <u, X(1)> + clip(noise).

    A is nonzero only on its first subdiagonal (nilpotent, hence stable).
    Noise clipping keeps the observation space compact (default clip 3).
    """

    A: np.ndarray
    u: np.ndarray
    noise_clip: float = 3.0
    state: np.ndarray = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        d = self.A.shape[0]
        if self.A.shape != (d, d) or self.u.shape != (d,):
            raise SourceError("A must be d x d and u length d")
        _subdiagonal(self.A)
        if not self.noise_clip > 0:   # NaN fails this too
            raise SourceError("noise_clip must be positive")
        if self.state is None:
            self.state = np.zeros(d)
        else:
            self.state = np.asarray(self.state, dtype=float).copy()

    @property
    def dim(self):
        return self.A.shape[0]

    def sample(self, rng):
        x1 = self.A @ self.state
        x1[0] += clipped_normal(rng, self.noise_clip)
        x2 = float((x1 * self.u).sum()) + clipped_normal(rng, self.noise_clip)
        self.state = x1
        return x1.copy(), x2

    def sample_block(self, rng, T):
        """The next T samples as arrays x1 (T, d) and x2 (T,), with the
        values, final state and stream of T sample calls."""
        x1, x2 = ARSource.sample_blocks([self], [rng], T)
        return x1[:, 0], x2[:, 0]

    @staticmethod
    def sample_blocks(sources, rngs, T):
        """The next T samples of each of R ARSources of one dim, each from
        its own stream, time-major: x1 (T, R, d) and x2 (T, R), with the
        values, final states and streams of T sample calls per source.

        Each stream fills its (T, 2) noise with one standard_normal call,
        as T sample calls would draw it; the clip, the shift and the sums
        then act on all R sources at once. Column m of X(1) is A[m, m-1]
        times column m-1 one step earlier: one array op per column over a
        buffer whose step 0 is the state. x2 sums each row over the
        contiguous last axis, which rounds as sample's 1-D sum does."""
        noise = np.empty((len(rngs), T, 2))
        for rng, rows in zip(rngs, noise):
            rng.standard_normal(out=rows)
        clip = np.array([src.noise_clip for src in sources])[:, None, None]
        np.minimum(np.maximum(noise, -clip, out=noise), clip, out=noise)
        x = np.empty((T + 1, len(sources), sources[0].dim))
        x[0] = [src.state for src in sources]
        x[1:, :, 0] = noise[..., 0].T
        gains = np.array([src.A.diagonal(-1) for src in sources])
        for m in range(1, x.shape[-1]):
            np.multiply(gains[:, m - 1], x[:-1, :, m - 1], out=x[1:, :, m])
        for src, state in zip(sources, x[-1].copy()):
            src.state = state
        x1 = x[1:]
        u = np.array([src.u for src in sources])
        return x1, (x1 * u).sum(axis=-1) + noise[..., 1].T


def ar_state_bound(A, noise_clip) -> np.ndarray:
    """Componentwise bound on |X(1)| reachable from X(0)=0: clip * g with the
    gains g = cumprod([1, |a_1|, ..., |a_{d-1}|]) of the subdiagonal a, since
    X(1)_m(k) = a_1 ... a_m w(k-m) for the clipped noise w."""
    gains = np.cumprod(np.abs(np.concatenate(([1.0], _subdiagonal(A)))))
    return gains * float(noise_clip)


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
        blocks = MDPSource.sample_blocks([self], [rng], T)
        return tuple(x[:, 0] for x in blocks)

    @staticmethod
    def sample_blocks(sources, rngs, T):
        """The next T samples of each of R MDPSources, each from its own
        stream, as time-major arrays (s, a, r, s') of shape (T, R): the
        values, and the final states, of T sample calls per source. Each
        source draws one integers(0, 4, size=T) and walks its maze's
        transition table."""
        walks = []
        for src, rng in zip(sources, rngs):
            nxt, rew, after = src.maze.transitions
            n_actions = src.maze.n_actions
            actions = rng.integers(0, n_actions, size=T)
            s = src.state
            states, rewards, s_next = [], [], []
            for a in actions.tolist():
                i = s * n_actions + a
                states.append(s)
                rewards.append(rew[i])
                s_next.append(nxt[i])
                s = after[i]
            src.state = s
            walks.append((states, actions, rewards, s_next))
        return tuple(np.array(column, dtype=dtype).T
                     for column, dtype in zip(zip(*walks),
                                              (int, int, float, int)))
