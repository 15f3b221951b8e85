"""Local operators F_i(x, theta), mean-field versions, and problem constants.

Two built-in operator families: the quadratic-loss gradient map used in
system identification, and the linear-function-approximation Q-learning map.
Constants (B, L, alpha) are either estimated from probes or derived
analytically for the autoregressive quadratic case.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .sources import (ARSource, FiniteChain, Maze, ar_state_bound,
                      stationary_distribution)


class OperatorError(ValueError):
    """Raised for dimension mismatches and misuse of operator contracts."""


@dataclass(frozen=True)
class LocalOperator:
    dim: int
    eval: callable  # (observation, theta) -> R^dim
    kind: str = "custom"
    params: dict = field(default_factory=dict)


def eval_local(op: LocalOperator, x, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (op.dim,):
        raise OperatorError(f"theta has shape {theta.shape}, expected ({op.dim},)")
    return np.asarray(op.eval(x, theta), dtype=float)


# ---------------------------------------------------------------------------
# quadratic-gradient operator (system identification)


def quadratic_grad_operator(dim: int, u=None) -> LocalOperator:
    """F(x, theta) = -grad_theta (<theta, x1> - x2)^2 = -2(<theta,x1> - x2) x1.

    Descent orientation: the negative gradient makes the aggregate map
    1-point strongly monotone for positive-definite sample covariance.
    """

    def _eval(x, theta):
        x1, x2 = x
        x1 = np.asarray(x1, dtype=float)
        return 2.0 * (float(x2) - float((x1 * theta).sum())) * x1

    params = {} if u is None else {"u": np.asarray(u, dtype=float)}
    return LocalOperator(dim=dim, eval=_eval, kind="quadratic-gradient", params=params)


def quadratic_block_drift(x1, x2):
    """step(Theta, t, eps, out) of a stack of quadratic-gradient agents, whose
    time-major blocks of samples are x1 (T, ..., d) and x2 (T, ...): for
    Theta of shape (..., d), it adds eps times each agent's map at its t-th
    sample to out, which holds W Theta, in place. The result equals
    out + eps * eval bit for bit: both sum a row's products over the
    contiguous last axis, where a (T, d) @ product would round otherwise,
    and both round 2 * resid, its product with x1 and eps times that in
    this order."""
    x2 = np.asarray(x2)[..., None]

    def step(Theta, t, eps, out):
        x1_t = x1[t]
        # np.add.reduce: ndarray.sum goes through a Python wrapper
        resid = x2[t] - np.add.reduce(x1_t * Theta, axis=-1, keepdims=True)
        resid *= 2.0
        y = resid * x1_t
        y *= eps
        out += y

    return step


# ---------------------------------------------------------------------------
# Q-learning operator (linear / tabular function approximation)


@dataclass(frozen=True)
class TabularFeatures:
    """One-hot state-action features over a width x height grid."""

    n_states: int
    n_actions: int

    @property
    def dim(self):
        return self.n_states * self.n_actions

    def index(self, s, a):
        return int(s) * self.n_actions + int(a)

    def vector(self, s, a):
        phi = np.zeros(self.dim)
        phi[self.index(s, a)] = 1.0
        return phi

    def q_values(self, theta, s):
        base = int(s) * self.n_actions
        return np.asarray(theta)[base:base + self.n_actions]


def bellman_residual(features: TabularFeatures, gamma, theta, s, a, r, s_next):
    """r + gamma max_a' Q(s', a') - Q(s, a), with theta viewed as the
    (states x actions) table Q; elementwise over scalars or index arrays."""
    q = np.asarray(theta).reshape(features.n_states, features.n_actions)
    # take and maximum.reduce: the same values as q[s_next].max(axis=-1),
    # with less call overhead on the few-row arrays of one step
    return (r + gamma * np.maximum.reduce(q.take(s_next, axis=0), axis=-1)
            - q[s, a])


def qlearning_operator(features: TabularFeatures, gamma: float) -> LocalOperator:
    """Semi-gradient Q-learning map
    F((s,a,r,s'), theta) = phi(s,a) (r + gamma max_a' phi(s',a')^T theta
                                       - phi(s,a)^T theta).
    Argmax ties break toward the smallest action index."""
    if not (0.0 < gamma < 1.0):
        raise OperatorError("gamma must lie in (0,1)")

    def _eval(x, theta):
        s, a, r, s_next = x
        out = np.zeros(features.dim)
        out[features.index(s, a)] = bellman_residual(features, gamma, theta,
                                                     s, a, r, s_next)
        return out

    return LocalOperator(dim=features.dim, eval=_eval, kind="qlearning",
                         params={"features": features, "gamma": gamma})


def qlearning_block_drift(features: TabularFeatures, gamma, s, a, r, s_next):
    """step(Theta, t, eps, out) of a stack of Q-learning agents that share
    features and gamma, whose time-major blocks of samples are the
    (s, a, r, s') arrays of shape (T, ...): for Theta of shape (..., dim),
    it adds eps times each agent's Q-learning map at its t-th sample to the
    C-contiguous out, which holds W Theta, in place. The map is nonzero in
    one slot per agent, so only those slots are added to; every slot equals
    out + eps * eval, bit for bit.

    One bellman_residual call per step treats Theta as the stacked
    (agents * states) x actions table, in which the state s of the agent in
    C-order row i is row i * states + s, and each residual goes to its
    one-hot slot.
    """
    shape = (np.shape(s)[0], math.prod(np.shape(s)[1:]))   # (T, agents)
    # contiguous rows: strided index arrays index more slowly
    s, a, r, s_next = (np.ascontiguousarray(np.reshape(x, shape))
                       for x in (s, a, r, s_next))
    n_states = features.n_states
    if s.size and max(s.max(), s_next.max()) >= n_states:
        raise OperatorError("a sampled state lies beyond the features' states")
    rows = n_states * np.arange(s.shape[1])
    s, s_next = s + rows, s_next + rows
    stacked = TabularFeatures(n_states * s.shape[1], features.n_actions)
    slot = s * features.n_actions + a   # flat index into the drift
    # lists of per-step rows index faster than the (T, agents) arrays
    s, a, r, s_next, slot = map(list, (s, a, r, s_next, slot))

    def step(Theta, t, eps, out):
        res = bellman_residual(stacked, gamma, Theta, s[t], a[t], r[t],
                               s_next[t])
        res *= eps
        # a view of the contiguous out: a copy would lose the update
        out.reshape(-1)[slot[t]] += res

    return step


# ---------------------------------------------------------------------------
# mean fields


def eval_mean_field(op: LocalOperator, src, theta) -> np.ndarray:
    """Exact expectation over a finite chain's stationary distribution.

    The observation passed to the operator is the chain state index."""
    if not isinstance(src, FiniteChain):
        raise OperatorError(
            "exact mean field requires a FiniteChain; use estimate_mean_field "
            "for continuous sources")
    mu = stationary_distribution(src)
    theta = np.asarray(theta, dtype=float)
    total = np.zeros(op.dim)
    for x, weight in enumerate(mu):
        total += weight * eval_local(op, x, theta)
    return total


def estimate_mean_field(op: LocalOperator, src, theta, n_samples, rng,
                        burn_in=1000):
    """Monte Carlo mean-field estimate (mean, standard error per coordinate)."""
    theta = np.asarray(theta, dtype=float)
    for _ in range(burn_in):
        src.sample(rng)
    acc = np.zeros(op.dim)
    acc2 = np.zeros(op.dim)
    for _ in range(n_samples):
        v = eval_local(op, src.sample(rng), theta)
        acc += v
        acc2 += v * v
    mean = acc / n_samples
    var = np.clip(acc2 / n_samples - mean**2, 0.0, None)
    return mean, np.sqrt(var / n_samples)


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class OperatorConstants:
    B: float
    L: float
    alpha: float

    def __post_init__(self):
        if self.B < self.L - 1e-12:
            raise OperatorError("constant B must dominate L")


def probe_thetas(dim, rng, n_pairs=64, radius=10.0):
    """Probe grid: random theta pairs in the radius-10 ball plus the axes."""
    pairs = []
    for _ in range(n_pairs):
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        a *= radius * rng.random() ** (1.0 / dim) / max(np.linalg.norm(a), 1e-12)
        b *= radius * rng.random() ** (1.0 / dim) / max(np.linalg.norm(b), 1e-12)
        pairs.append((a, b))
    zero = np.zeros(dim)
    for i in range(dim):
        axis = np.zeros(dim)
        axis[i] = radius
        pairs.append((axis, zero))
        pairs.append((-axis, axis))
    return pairs


def estimate_constants(op: LocalOperator, observations, theta_pairs,
                       alpha=math.nan) -> OperatorConstants:
    """Measured Lipschitz constant and affine bound over probe grids.

    L_hat = max ||F(x,t)-F(x,t')|| / ||t-t'||;  B_hat = max{L_hat, ||F(x,0)||}.
    Both are lower bounds on the true suprema (measured on finite probes)."""
    observations = list(observations)
    theta_pairs = list(theta_pairs)
    if not observations or not theta_pairs:
        raise OperatorError("need at least one observation and one theta pair")
    zero = np.zeros(op.dim)
    l_hat = 0.0
    f0_max = 0.0
    for x in observations:
        f0_max = max(f0_max, float(np.linalg.norm(eval_local(op, x, zero))))
        for ta, tb in theta_pairs:
            gap = float(np.linalg.norm(np.asarray(ta) - np.asarray(tb)))
            if gap < 1e-12:
                raise OperatorError("degenerate probe pair (identical thetas)")
            diff = eval_local(op, x, ta) - eval_local(op, x, tb)
            l_hat = max(l_hat, float(np.linalg.norm(diff)) / gap)
    return OperatorConstants(B=max(l_hat, f0_max), L=l_hat, alpha=alpha)


def clipped_normal_variance(clip: float) -> float:
    """Variance of a standard normal truncated by clipping to [-clip, clip]."""
    c = float(clip)
    z = c / math.sqrt(2.0)
    # P(|Z| < c) - 2 c pdf(c) + c^2 P(|Z| > c)
    two_c_pdf = 2.0 * c * math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    return math.erf(z) - two_c_pdf + c * c * math.erfc(z)


def ar_stationary_covariance(A, noise_clip) -> np.ndarray:
    """Stationary covariance of the AR state, Sigma = A Sigma A^T + q e1 e1^T
    with q the clipped noise variance. A is nilpotent, so X(1)_m is the gain
    g_m = ar_state_bound(A, 1)[m] times noise drawn m steps earlier, and
    Sigma = diag(q g^2)."""
    gains = ar_state_bound(A, 1.0)
    return np.diag(clipped_normal_variance(noise_clip) * gains**2)


def system_id_constants(sources) -> OperatorConstants:
    """Analytic (B, L, alpha) for quadratic-gradient operators over ARSources.

    L and B are true uniform bounds over the reachable (from zero) state
    space; alpha = 2 lambda_min(sum_i E[X(1) X(1)^T]), the smallest entry of
    the summed diagonal stationary covariances.
    """
    l_max = 0.0
    b_zero = 0.0
    var_sum = 0.0
    for src in sources:
        if not isinstance(src, ARSource):
            raise OperatorError("system_id_constants expects ARSources")
        # a clip far from 1 can take the constants out of range: they come
        # back inf or 0 without a warning, and RateConstants rejects them
        with np.errstate(all="ignore"):
            xmax = ar_state_bound(src.A, src.noise_clip)
            x1_norm = float(np.linalg.norm(xmax))
            x2_max = float(np.abs(src.u) @ xmax) + src.noise_clip
            var_sum += np.diagonal(ar_stationary_covariance(src.A,
                                                            src.noise_clip))
        try:
            l_max = max(l_max, 2.0 * x1_norm**2)
        except OverflowError:   # ** on a float raises where * gives inf
            l_max = math.inf
        b_zero = max(b_zero, 2.0 * x2_max * x1_norm)
    alpha = 2.0 * float(np.min(var_sum))
    return OperatorConstants(B=max(l_max, b_zero), L=l_max, alpha=alpha)


# ---------------------------------------------------------------------------
# problem spec and fixed-point oracles


@dataclass
class ProblemSpec:
    operators: list
    sources: list
    alpha: float = math.nan
    theta_star: np.ndarray = None

    def __post_init__(self):
        if len(self.operators) != len(self.sources):
            raise OperatorError("one source per operator required")
        dims = {op.dim for op in self.operators}
        if len(dims) != 1:
            raise OperatorError("operators disagree on dimension")
        if self.theta_star is not None:
            self.theta_star = np.asarray(self.theta_star, dtype=float)

    @property
    def dim(self):
        return self.operators[0].dim

    @property
    def n_agents(self):
        return len(self.operators)


@dataclass(frozen=True)
class FixedPoint:
    theta: np.ndarray
    unique: bool = True
    method: str = "analytic"


def value_iteration_q(maze: Maze, gamma: float, tol=1e-12, max_iter=200_000):
    """Tabular Q fixed point under the teleport semantics: goal-state rows
    stay at zero (they are never updated by the sampled chain)."""
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    pairs = [(s, a) for s in range(maze.n_cells)
             if s not in maze.goals and not maze.is_obstacle(s)
             for a in range(maze.n_actions)]
    s, a = np.array(pairs).T
    s_next, r = np.array([maze.move(*sa) for sa in pairs]).T
    s_next = s_next.astype(int)
    q = np.zeros((maze.n_cells, maze.n_actions))
    for _ in range(max_iter):
        res = bellman_residual(feats, gamma, q, s, a, r, s_next)
        q[s, a] += res
        if np.max(np.abs(res)) <= tol:
            return q.ravel()
    raise OperatorError("value iteration did not converge")


def fixed_point_oracle(spec: ProblemSpec) -> FixedPoint:
    """Root of the aggregate mean field.

    quadratic  -> theta* = u (zero-mean residual noise);
    qlearning  -> value iteration on the (single) task;
    custom     -> mean-field probe for degeneracy, else long SA run.
    """
    kinds = {op.kind for op in spec.operators}
    if kinds == {"quadratic-gradient"}:
        us = [op.params.get("u") for op in spec.operators]
        if any(u is None for u in us):
            raise OperatorError("quadratic operators lack the parameter u")
        u0 = us[0]
        if any(not np.array_equal(u, u0) for u in us):
            raise OperatorError("agents disagree on the shared parameter u")
        return FixedPoint(theta=np.array(u0, dtype=float), method="quadratic-root")
    if kinds == {"qlearning"}:
        mazes = {id(s.maze) for s in spec.sources}
        if len(mazes) != 1:
            raise OperatorError("analytic Q fixed point needs a single shared task")
        gamma = spec.operators[0].params["gamma"]
        q = value_iteration_q(spec.sources[0].maze, gamma)
        return FixedPoint(theta=q, method="value-iteration")
    if all(isinstance(s, FiniteChain) for s in spec.sources):
        return _finite_chain_oracle(spec)
    raise OperatorError("no fixed-point method applicable to this spec")


def _finite_chain_oracle(spec, probes=8, tol=1e-10):
    rng = np.random.default_rng(0)
    d = spec.dim

    def aggregate(theta):
        return sum(eval_mean_field(op, src, theta)
                   for op, src in zip(spec.operators, spec.sources))

    # degeneracy probe: identically-zero aggregate has no unique root
    if all(np.linalg.norm(aggregate(rng.standard_normal(d) * 5)) < tol
           for _ in range(probes)) and np.linalg.norm(aggregate(np.zeros(d))) < tol:
        return FixedPoint(theta=np.zeros(d), unique=False, method="degenerate")
    theta = np.zeros(d)
    for _ in range(500_000):
        g = aggregate(theta)
        if np.linalg.norm(g) < tol:
            return FixedPoint(theta=theta, method="mean-field-iteration")
        theta = theta + 0.05 * g
    raise OperatorError("mean-field iteration did not converge to a root")
