"""Communication graphs, doubly stochastic consensus weights and schedules.

Fixed undirected graphs produce a lazy-Metropolis weight matrix; a
GraphSchedule cycles through a list of frame graphs whose length-B window
unions must be connected (B-connectivity).
"""

from dataclasses import dataclass, field

import numpy as np

ROWSUM_TOL = 1e-12


class GraphError(ValueError):
    """Raised for malformed graphs, schedules or weight matrices."""


def _normalize_edges(n_agents, edges):
    out = set()
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise GraphError(f"self-loop ({i},{j}) not allowed")
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise GraphError(f"edge ({i},{j}) out of range for {n_agents} agents")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Undirected graph on agents 0..n_agents-1, no self-loops."""

    n_agents: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_agents < 1:
            raise GraphError("n_agents must be >= 1")
        object.__setattr__(self, "edges", _normalize_edges(self.n_agents, self.edges))

    def degree(self, i):
        return sum(1 for (a, b) in self.edges if a == i or b == i)

    def neighbors(self, i):
        return sorted(b if a == i else a for (a, b) in self.edges if i in (a, b))

    def adjacency(self):
        adj = np.zeros((self.n_agents, self.n_agents))
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = 1.0
        return adj


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    components: int


def validate_graph(g: Graph) -> ConnectivityReport:
    """BFS component count."""
    seen = [False] * g.n_agents
    components = 0
    for s in range(g.n_agents):
        if seen[s]:
            continue
        components += 1
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return ConnectivityReport(connected=components == 1, components=components)


def line_graph(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def ring_graph(n):
    if n < 3:
        return line_graph(n)
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n):
    return Graph(n, frozenset((0, i) for i in range(1, n)))


@dataclass(frozen=True)
class WeightMatrix:
    """Doubly stochastic consensus weights with second singular value."""

    entries: np.ndarray
    sigma2: float

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "entries", w)

    @property
    def n_agents(self):
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, entries, graph: Graph = None) -> "WeightMatrix":
        """Validate a user-supplied matrix against the doubly stochastic
        contract (and the graph support pattern, if a graph is given)."""
        w = np.asarray(entries, dtype=float)
        n = w.shape[0]
        if w.shape != (n, n):
            raise GraphError("weight matrix must be square")
        if np.any(w < 0):
            raise GraphError("weight matrix has negative entries")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > ROWSUM_TOL:
            raise GraphError("row sums deviate from 1 beyond 1e-12")
        if np.max(np.abs(w.sum(axis=0) - 1.0)) > ROWSUM_TOL:
            raise GraphError("column sums deviate from 1 beyond 1e-12")
        if np.any(np.diag(w) <= 0):
            raise GraphError("diagonal entries must be positive")
        if graph is not None:
            adj = graph.adjacency()
            off = ~np.eye(n, dtype=bool)
            if not np.array_equal((w > 0)[off], (adj > 0)[off]):
                raise GraphError("support pattern does not match the graph")
        return cls(entries=w, sigma2=_second_singular_value(w))


def lazy_metropolis(g: Graph, require_connected: bool = True) -> WeightMatrix:
    """Lazy Metropolis weights: W(i,j) = 1/(2 max(deg i, deg j)) on edges,
    remainder on the diagonal.  Symmetric and doubly stochastic.

    Disconnected graphs are rejected by default (sigma2 would be 1);
    schedules of individually disconnected frames pass require_connected=False.
    """
    rep = validate_graph(g)
    if require_connected and not rep.connected:
        raise GraphError(
            f"graph is disconnected ({rep.components} components); sigma2 would be 1")
    n = g.n_agents
    deg = [g.degree(i) for i in range(n)]
    w = np.zeros((n, n))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (2.0 * max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return WeightMatrix(entries=w, sigma2=_second_singular_value(w))


def _second_singular_value(w):
    w = np.asarray(w, dtype=float)
    if w.shape == (1, 1):
        return 0.0
    if np.allclose(w, w.T, atol=1e-13):
        vals = np.sort(np.abs(np.linalg.eigvalsh(w)))[::-1]
    else:
        vals = np.linalg.svd(w, compute_uv=False)
    return float(vals[1])


def second_singular_value(w) -> float:
    """Second largest singular value of a weight matrix.

    Symmetric matrices go through the eigendecomposition (exact for the
    lazy Metropolis construction); anything else falls back to the SVD.
    """
    if isinstance(w, WeightMatrix):
        return _second_singular_value(w.entries)
    return _second_singular_value(w)


@dataclass(frozen=True)
class GraphSchedule:
    """Periodic schedule of frame graphs; every length-B cyclic window of
    frames must union to a connected graph."""

    frames: tuple
    period_B: int

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise GraphError("schedule needs at least one frame")
        n = frames[0].n_agents
        if any(f.n_agents != n for f in frames):
            raise GraphError("all frames must share n_agents")
        if self.period_B < 1:
            raise GraphError("period_B must be >= 1")
        object.__setattr__(self, "frames", frames)

    @property
    def n_agents(self):
        return self.frames[0].n_agents


def validate_b_connectivity(s: GraphSchedule) -> bool:
    """True iff the edge union of every length-B cyclic window is connected."""
    n = s.n_agents
    p = len(s.frames)
    for start in range(p):
        union = set()
        for t in range(s.period_B):
            union |= s.frames[(start + t) % p].edges
        if not validate_graph(Graph(n, frozenset(union))).connected:
            return False
    return True


def time_varying_eta(s: GraphSchedule, weights) -> float:
    """Contraction factor eta for a time-varying schedule:
    min{1 - 1/(2N^3), min over window alignments of max sigma2 in window}.

    All cyclic window alignments are evaluated (the alignment of windows to
    absolute time is taken as the worst-case-free minimum).
    """
    if not validate_b_connectivity(s):
        raise GraphError("schedule violates B-connectivity")
    weights = list(weights)
    if len(weights) != len(s.frames):
        raise GraphError("need one weight matrix per frame")
    n = s.n_agents
    p = len(weights)
    sig = [w.sigma2 if isinstance(w, WeightMatrix) else second_singular_value(w)
           for w in weights]
    window_max = min(
        max(sig[(start + t) % p] for t in range(s.period_B))
        for start in range(p)
    )
    return min(1.0 - 1.0 / (2.0 * n**3), window_max)
