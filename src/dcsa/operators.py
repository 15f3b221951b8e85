"""Local operators F_i(x, theta), problem constants and the Q* oracle.

Two built-in operator families: the quadratic-loss gradient map used in
system identification, and the linear-function-approximation Q-learning map.
Constants (B, L, alpha) are either estimated from probes or derived
analytically for the autoregressive quadratic case.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from ._build import load_step
from .sources import ARSource, Chain, Maze, ar_state_bound, dot


class OperatorError(ValueError):
    """Raised for dimension mismatches and misuse of operator contracts."""


# the compiled drift step (_step.c), or None where it cannot be built or
# loaded; core._block_drift hands it to the batched builders
STEP = load_step()


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


def quadratic_grad_operator(dim: int) -> LocalOperator:
    """F(x, theta) = -grad_theta (<theta, x1> - x2)^2 = -2(<theta,x1> - x2) x1.

    Descent orientation: the negative gradient makes the aggregate map
    1-point strongly monotone for positive-definite sample covariance.
    """

    def _eval(x, theta):
        x1, x2 = x
        x1 = np.asarray(x1, dtype=float)
        return 2.0 * (float(x2) - dot(x1, theta)) * x1

    return LocalOperator(dim=dim, eval=_eval, kind="quadratic-gradient")


def mix(w, theta, out, chain):
    """out = W theta for each run, out and theta (S, N, d), w (N, N) and
    chain a Chain(N, (S, N, d)): the products W[:, j] theta_j, made in its
    terms, chained over j into the compiled steps' ((+0.0 + W(i, 0)
    theta(0, c)) + W(i, 1) theta(1, c)) + ..., no BLAS."""
    np.multiply(w.T[:, None, :, None], theta.transpose(1, 0, 2)[:, :, None],
                out=chain.terms)
    return chain(out)


def step_loop(step, theta, iterates, frames, first, eps):
    """The block contract's advance over a per-step drift step(Theta, t,
    eps, out), the one Python loop of a block's steps (see _block_drift),
    as the compiled quadratic_steps and qlearning_steps run it in C: for
    t < T = len(eps), mix writes W Theta into row t of iterates, (>= T, S
    N, d), by frame (first + t) mod F of frames, (F, N, N), and step(prev,
    t, eps[t], iterates[t]) adds eps[t] F at prev to it. prev is theta, the
    (S N, d) pre-block iterate, at t = 0 and row t - 1 after."""
    n_frames, n = frames.shape[:2]
    shape = (iterates.shape[1] // n, n, iterates.shape[2])
    prev, chain = theta, Chain(n, shape)
    for t, (e, out) in enumerate(zip(eps, iterates)):
        mix(frames[(first + t) % n_frames], prev.reshape(shape),
            out.reshape(shape), chain)
        step(prev, t, e, out)
        prev = out


def quadratic_block_drift(dim, agents, rows, kernel=None):
    """(x, x2), advance, compiled: the step layer of a stack of `agents`
    quadratic-gradient agents of dimension dim, built once per run. A
    block's T <= rows samples are drawn straight into the buffers x, of
    shape (rows + 1, agents, dim), whose rows 1..T hold X(1) (row 0 is the
    sampler's, for the states it starts from; see
    sources.ARSource.block_sampler), and x2, of shape (rows, agents),
    whose first T rows hold X(2). advance(theta, iterates, frames, first,
    eps) runs the block's steps as step_loop describes, step t's drift
    each agent's map at its t-th sample. Each step equals mix + eps * eval
    bit for bit: both chain each agent's products x1_j theta_j from +0.0
    in j order (sources.dot), and both round 2 * resid, its product with
    x1 and eps times that in this order.

    kernel is the compiled step module (see _build), or None. With it, a
    block is one call of kernel.quadratic_steps; without it, step_loop
    over the numpy formula below, whose dots are one Chain of the
    products; compiled says which."""
    x = np.empty((rows + 1, agents, dim))
    x2 = np.empty((rows, agents))
    if kernel is not None:
        return (x, x2), partial(kernel.quadratic_steps, x, x2), True
    x1_rows, x2_rows = list(x[1:]), list(x2)
    chain = Chain(dim, (agents,))
    columns, s = chain.terms, np.empty(agents)
    terms, resid = columns.T, s[:, None]   # (agents, dim), (agents, 1)

    def step(Theta, t, eps, out):
        x1_t = x1_rows[t]
        np.multiply(x1_t.T, Theta.T, out=columns)
        chain(s)
        np.subtract(x2_rows[t], s, out=s)
        np.multiply(s, 2.0, out=s)
        np.multiply(resid, x1_t, out=terms)
        np.multiply(terms, eps, out=terms)
        np.add(out, terms, out=out)

    return (x, x2), partial(step_loop, step), False


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

    def q_values(self, theta, s):
        base = int(s) * self.n_actions
        return np.asarray(theta)[base:base + self.n_actions]


def bellman_residual(features: TabularFeatures, gamma, theta, s, a, r, s_next):
    """r + gamma max_a' Q(s', a') - Q(s, a), with theta viewed as the
    (states x actions) table Q; elementwise over scalars or index arrays.
    The max is a Chain of np.maximum over each s_next's row of Q, as the
    compiled Q-learning step takes it: the first NaN, with its sign, and
    of a tie of +0.0 and -0.0 the later."""
    q = np.asarray(theta).reshape(features.n_states, features.n_actions)
    s_next = np.asarray(s_next)
    best = _max_chain(features.n_actions, s_next.shape)
    q.T.take(s_next, axis=1, out=best.terms)
    res = best(np.empty(s_next.shape))
    np.multiply(gamma, res, out=res)
    np.add(r, res, out=res)
    return np.subtract(res, q[s, a], out=res)


# the max's Chain per (actions, shape), reused by every bellman_residual
# call of that shape: making one per call cost about 1.5 of a 600-entry
# call's 14 us on a 2-core x86-64 host
_max_chain = lru_cache(maxsize=8)(partial(Chain, ufunc=np.maximum))


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


def qlearning_block_drift(features: TabularFeatures, gamma, agents, rows,
                          kernel=None):
    """(walk, reward), advance, compiled: the step layer of a stack of
    `agents` Q-learning agents that share features and gamma, built once
    per run. A block's T <= rows samples are drawn straight into the
    buffers walk, intp of shape (rows, 3, agents), whose first T rows hold
    s, a and s' in its three columns, and reward, of shape (rows, agents),
    whose first T rows hold r (see sources.MDPSource.block_sampler).
    advance(theta, iterates, frames, first, eps) checks the block's states
    and actions against the features, raising OperatorError before its
    first write, then runs its steps as step_loop describes, step t's
    drift each agent's Q-learning map at its t-th sample. The map is
    nonzero in one slot per agent, so only those slots are added to.

    The iterates are read flat, as the stacked (agents * states) x actions
    table in which the state s of the agent in C-order row i is row
    i * states + s, so Q(s', a') is entry (s' + i * states) * actions + a'
    and the slot Q(s, a) entry (s + i * states) * actions + a.

    kernel is the compiled step module (see _build), or None. With it, a
    block is one call of kernel.qlearning_steps, which forms those indices
    itself; without it, step_loop over a numpy step that makes one
    bellman_residual call on the stacked table, whose states the block
    offsets once, and adds eps times the residual to each slot: mix + eps
    * eval, bit for bit. compiled says which."""
    n_states, n_actions = features.n_states, features.n_actions
    walk = np.empty((rows, 3, agents), dtype=np.intp)
    reward = np.empty((rows, agents))
    # as unsigned, a negative state or action is beyond every bound
    bounds = np.array([[n_states], [n_actions], [n_states]], dtype=np.uintp)
    if kernel is not None:
        steps = partial(kernel.qlearning_steps, walk, reward, n_actions,
                        float(gamma))
    else:
        stacked = TabularFeatures(agents * n_states, n_actions)
        offsets = n_states * np.arange(agents)

        def steps(theta, iterates, frames, first, eps):
            s, a, s_next = walk[:len(eps)].transpose(1, 0, 2)
            s, s_next = s + offsets, s_next + offsets
            samples = list(zip(s, a, reward, s_next, s * n_actions + a))

            def step(Theta, t, eps, out):
                s, a, r, s_next, slots = samples[t]
                res = bellman_residual(stacked, gamma, Theta, s, a, r, s_next)
                out.reshape(-1)[slots] += eps * res

            step_loop(step, theta, iterates, frames, first, eps)

    def advance(theta, iterates, frames, first, eps):
        if not (walk[:len(eps)].view(np.uintp) < bounds).all():
            raise OperatorError("a sampled state or action lies beyond the "
                                "features' states and actions")
        steps(theta, iterates, frames, first, eps)

    return (walk, reward), advance, kernel is not None


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


def probe_thetas(dim, rng):
    """Probe grid: 64 random pairs in the radius-10 ball plus the axes."""
    pairs = []
    for _ in range(64):
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        a *= 10.0 * rng.random() ** (1.0 / dim) / max(np.linalg.norm(a), 1e-12)
        b *= 10.0 * rng.random() ** (1.0 / dim) / max(np.linalg.norm(b), 1e-12)
        pairs.append((a, b))
    zero = np.zeros(dim)
    for i in range(dim):
        axis = np.zeros(dim)
        axis[i] = 10.0
        pairs.append((axis, zero))
        pairs.append((-axis, axis))
    return pairs


def estimate_constants(op: LocalOperator, observations,
                       theta_pairs) -> OperatorConstants:
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
    return OperatorConstants(B=max(l_hat, f0_max), L=l_hat, alpha=math.nan)


def clipped_normal_variance(clip: float) -> float:
    """Variance of a standard normal truncated by clipping to [-clip, clip]."""
    c = float(clip)
    z = c / math.sqrt(2.0)
    # P(|Z| < c) - 2 c pdf(c) + c^2 P(|Z| > c)
    two_c_pdf = 2.0 * c * math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    return math.erf(z) - two_c_pdf + c * c * math.erfc(z)


def ar_stationary_covariance(gains, noise_clip) -> np.ndarray:
    """Stationary covariance of the AR state, Sigma = A Sigma A^T + q e1 e1^T
    with q the clipped noise variance and A the subdiagonal of the gains.
    A is nilpotent, so X(1)_m is g_m = ar_state_bound(gains, 1)[m] times
    noise drawn m steps earlier, and Sigma = diag(q g^2)."""
    g = ar_state_bound(gains, 1.0)
    return np.diag(clipped_normal_variance(noise_clip) * g**2)


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
        # back inf or 0 without a warning, and RateConstants rejects them.
        # The sums are numpy's own: a BLAS dot rounds by its core
        with np.errstate(all="ignore"):
            xmax = ar_state_bound(src.gains, src.noise_clip)
            x1_norm = math.sqrt(float(np.add.reduce(xmax * xmax)))
            x2_max = (float(np.add.reduce(np.abs(src.u) * xmax))
                      + src.noise_clip)
            var_sum += np.diagonal(ar_stationary_covariance(src.gains,
                                                            src.noise_clip))
        try:
            l_max = max(l_max, 2.0 * x1_norm**2)
        except OverflowError:   # ** on a float raises where * gives inf
            l_max = math.inf
        b_zero = max(b_zero, 2.0 * x2_max * x1_norm)
    alpha = 2.0 * float(np.min(var_sum))
    return OperatorConstants(B=max(l_max, b_zero), L=l_max, alpha=alpha)


# ---------------------------------------------------------------------------
# the Q* oracle


def value_iteration_q(maze: Maze, gamma: float):
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
    for _ in range(200_000):
        res = bellman_residual(feats, gamma, q, s, a, r, s_next)
        q[s, a] += res
        if np.max(np.abs(res)) <= 1e-12:
            return q.ravel()
    raise OperatorError("value iteration did not converge")
