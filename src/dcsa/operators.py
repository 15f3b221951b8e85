"""Local operators F_i(x, theta), problem constants and the Q* oracle.

Two built-in operator families: the quadratic-loss gradient map used in
system identification, and the linear-function-approximation Q-learning map.
Constants (B, L, alpha) are either estimated from probes or derived
analytically for the autoregressive quadratic case.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._build import load_step
from .sources import _SHORT_ROW, ARSource, Maze, ar_state_bound


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
        return 2.0 * (float(x2) - float((x1 * theta).sum())) * x1

    return LocalOperator(dim=dim, eval=_eval, kind="quadratic-gradient")


def step_loop(step, theta, iterates, rows_mix, mixers, eps):
    """The block contract's advance over a per-step drift step(Theta, t,
    eps, out), the one Python loop of a block's steps (see _block_drift),
    as the compiled quadratic_steps and qlearning_steps run it in C: for
    t < T = len(eps), mixers[t](prev_mix, rows_mix[t]) writes W Theta into
    row t, and step(prev, t, eps[t], iterates[t]) adds eps[t] F at prev to
    it. prev_mix and prev are row t - 1, and at t = 0 theta, the pre-block
    iterate in the mixers' shape, and its view in the rows' shape."""
    prev, prev_mix = theta.reshape(iterates.shape[1:]), theta
    for t, (mix, e, out, out_mix) in enumerate(zip(mixers, eps, iterates,
                                                   rows_mix)):
        mix(prev_mix, out_mix)
        step(prev, t, e, out)
        prev, prev_mix = out, out_mix


def quadratic_block_drift(dim, agents, rows, kernel=None):
    """(x, x2), advance, compiled: the step layer of a stack of `agents`
    quadratic-gradient agents of dimension dim, built once per run. A
    block's T <= rows samples are drawn straight into the buffers x, of
    shape (rows + 1, agents, dim), whose rows 1..T hold X(1) (row 0 is the
    sampler's, for the states it starts from; see
    sources.ARSource.block_sampler), and x2, of shape (rows, agents),
    whose first T rows hold X(2). advance(theta, iterates, rows_mix,
    mixers, eps) runs the block's T = len(eps) steps as step_loop
    describes: step t mixes into row t of iterates, an (>= T, agents, dim)
    array, and adds eps[t] times each agent's map at its t-th sample, at
    the pre-step iterate, to it in place. Each step equals
    W Theta + eps * eval bit for bit: both sum a row's products over the
    contiguous last axis, where a (T, d) @ product would round otherwise,
    and both round 2 * resid, its product with x1 and eps times that in
    this order.

    kernel is the compiled step module (see _build), or None. For dim <
    _SHORT_ROW a block is one call of kernel.quadratic_steps, which chains
    each row's products from +0.0 as np.add.reduce does there; otherwise,
    and without a kernel, it is step_loop over the numpy formula below, in
    (agents, dim) scratch allocated once per run; compiled says which."""
    x = np.empty((rows + 1, agents, dim))
    # a step reads x2's rows as (agents, 1) rows of a (rows, agents, 1)
    # buffer, which broadcast against the (agents, 1) row sums
    x2_buf = np.empty((rows, agents, 1))
    x2 = x2_buf[..., 0]

    if kernel is not None and dim < _SHORT_ROW:
        return (x, x2), partial(kernel.quadratic_steps, x, x2_buf), True
    x1_rows, x2_rows = list(x[1:]), list(x2_buf)
    p = np.empty((agents, dim))
    s = np.empty((agents, 1))

    def step(Theta, t, eps, out):
        x1_t = x1_rows[t]
        np.multiply(x1_t, Theta, out=p)
        np.add.reduce(p, axis=-1, keepdims=True, out=s)
        np.subtract(x2_rows[t], s, out=s)
        np.multiply(s, 2.0, out=s)
        np.multiply(s, x1_t, out=p)
        np.multiply(p, eps, out=p)
        np.add(out, p, out=out)

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

    The max runs across the action rows of the gathered (actions, ...)
    block, one elementwise maximum per action in action order, not as a
    short inner loop per index. Up to 8 actions that is
    q[s_next].max(axis=-1) bit for bit, NaN and signed zeros included;
    numpy reduces a longer contiguous row with SIMD, which can pick the
    other zero of a tie of +0.0 and -0.0."""
    q = np.asarray(theta).reshape(features.n_states, features.n_actions)
    return (r + gamma * np.maximum.reduce(q.T.take(s_next, axis=1), axis=0)
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


def qlearning_block_drift(features: TabularFeatures, gamma, agents, rows,
                          kernel=None):
    """block, compiled: block(s, a, r, s') of a stack of `agents`
    Q-learning agents that share features and gamma, built once per run,
    and whether its steps are the compiled kernel's. For time-major blocks
    of (s, a, r, s') samples of shape (T, agents), T <= rows, it returns
    advance(theta, iterates, rows_mix, mixers, eps), which runs the
    block's T = len(eps) steps as step_loop describes: step t mixes into
    row t of iterates and adds eps[t] times each agent's Q-learning map at
    its t-th sample, at the pre-step iterate, to it in place. The
    map is nonzero in one slot per agent, so only those slots are added
    to; every slot equals W Theta + eps * eval, bit for bit.

    The iterates are read flat, as the stacked (agents * states) x actions
    table in which the state s of the agent in C-order row i is row
    i * states + s. Every buffer is allocated once per run, with `rows`
    steps: the gather indices (rows, actions + 1, agents), whose first
    `actions` rows at a step are each agent's flat Q(s', .) index, one
    action per row, and whose last row is its slot, its flat Q(s, a) index;
    the rewards; a contiguous (rows, agents) scratch for the block's row
    bases; and, for the numpy step, the lists of the per-step index, slot
    and reward rows, each slot row a view of its index row, and the step's
    scratch. A block checks its states and actions against the features,
    since take clips rather than checking them at every step, and fills the
    buffers' first T rows by ufuncs with out.

    kernel is the compiled step module (see _build), or None. With it, a
    block is one call of kernel.qlearning_steps on the index and reward
    buffers; without it, step_loop over a numpy step: one take of its
    gather indices into an (actions + 1, agents) scratch, a max across the
    contiguous action rows, one take of out's slots and one put. Both round
    as bellman_residual does: gamma * max, then + r, then - Q(s, a), then
    * eps, and out's slot plus that.
    """
    n_states, n_actions = features.n_states, features.n_actions
    index = np.empty((rows, n_actions + 1, agents), dtype=np.intp)
    base = np.empty((rows, agents), dtype=np.intp)
    reward = np.empty((rows, agents))
    offsets = n_states * np.arange(agents)
    action_rows = [index[:, action] for action in range(n_actions)]
    if kernel is not None:
        advance = partial(kernel.qlearning_steps, index, reward, float(gamma))
    else:
        index_rows, reward_rows = list(index), list(reward)
        slot_rows = [row[n_actions] for row in index_rows]
        gather = np.empty((n_actions + 1, agents))
        q_next, q = gather[:n_actions], gather[n_actions]  # Q(s', .), Q(s, a)
        res = np.empty(agents)

        def step(Theta, t, eps, out):
            Theta.take(index_rows[t], out=gather, mode="clip")
            np.maximum.reduce(q_next, axis=0, out=res)
            np.multiply(res, gamma, out=res)
            np.add(res, reward_rows[t], out=res)
            np.subtract(res, q, out=res)
            np.multiply(res, eps, out=res)
            out.take(slot_rows[t], out=q, mode="clip")
            np.add(q, res, out=q)
            out.put(slot_rows[t], q)

        advance = partial(step_loop, step)

    def block(s, a, r, s_next):
        T = len(s)
        if T and (max(s.max(), s_next.max()) >= n_states
                  or min(s.min(), s_next.min(), a.min()) < 0
                  or a.max() >= n_actions):
            raise OperatorError("a sampled state or action lies beyond the "
                                "features' states and actions")
        # the bases (s + i * states) * actions go into a contiguous scratch:
        # arithmetic on the strided slot rows makes one inner loop of
        # length agents per step
        bases = base[:T]
        # Q(s', .): (s' + i * states) * actions + a', one row per a' (one
        # add per action: a broadcast add over the rows costs more)
        np.add(s_next, offsets, bases)
        np.multiply(bases, n_actions, bases)
        for action, target in enumerate(action_rows):
            np.add(bases, action, target[:T])
        # the slots, Q(s, a): (s + i * states) * actions + a
        np.add(s, offsets, bases)
        np.multiply(bases, n_actions, bases)
        np.add(bases, a, index[:T, n_actions])
        np.copyto(reward[:T], r)
        return advance

    return block, kernel is not None


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
        # back inf or 0 without a warning, and RateConstants rejects them
        with np.errstate(all="ignore"):
            xmax = ar_state_bound(src.gains, src.noise_clip)
            x1_norm = float(np.linalg.norm(xmax))
            x2_max = float(np.abs(src.u) @ xmax) + src.noise_clip
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
