"""Decentralized stochastic approximation: the iteration, step schedules,
rate constants, and per-iteration metrics (R, S, V, lemma residuals).

The update is theta_i <- sum_j W(i,j) theta_j + eps_k F_i(X_i, theta_i),
executed bulk-synchronously from the pre-step iterate matrix.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .operators import bellman_residual


class CoreError(ValueError):
    """Raised for inconsistent dimensions or metric contract violations."""


# ---------------------------------------------------------------------------
# step schedules and delays


@dataclass(frozen=True)
class StepSchedule:
    """constant: eps;  diminishing: eps/(k+1)."""

    kind: str
    eps: float

    def __post_init__(self):
        if self.kind not in ("constant", "diminishing"):
            raise CoreError("step kind must be 'constant' or 'diminishing'")
        if self.eps <= 0:
            raise CoreError("eps must be positive")

    def value(self, k: int) -> float:
        if k < 0:
            raise CoreError("iteration index must be nonnegative")
        if self.kind == "constant":
            return self.eps
        return self.eps / (k + 1)


def tau_k(beta: float, eps_k: float, rho: float) -> int:
    """Delay horizon max{ceil(rho/(1-rho)), ceil(beta log(1/eps_k))}."""
    if not (0.0 <= rho < 1.0):
        raise CoreError("rho must lie in [0,1)")
    floor_term = _ceil_tol(rho / (1.0 - rho)) if rho > 0 else 0
    if eps_k >= 1.0:
        # log(1/eps_k) <= 0, and for eps_k = inf math.log would fail
        return floor_term
    if eps_k <= 0:
        raise CoreError("eps_k must be positive")
    return max(floor_term, _ceil_tol(beta * math.log(1.0 / eps_k)))


def _ceil_tol(x, tol=1e-9):
    """Ceiling that forgives round-off just above an integer."""
    return math.ceil(x - tol)


# ---------------------------------------------------------------------------
# rate constants


@dataclass(frozen=True)
class RateConstants:
    """Convergence-rate constants derived from (B, L, alpha, sigma2, N, theta*)."""

    C0: float
    C1: float
    C2: float
    C_eps1: float
    C_eps2: float
    c_tau: float
    B: float
    alpha: float

    @classmethod
    def from_problem(cls, B, L, alpha, sigma2, n_agents, theta_star_norm,
                     c_tau) -> "RateConstants":
        if not (0.0 < c_tau < 1.0):
            raise CoreError("c_tau must lie in (0,1)")
        tsq1 = theta_star_norm**2 + 1.0
        c0 = 16.0 * B**2 * tsq1
        c1 = (60.0 * B**2 + 45.0 / 2.0 + 90.0 * B * L + 6.0 * B**2) * tsq1
        c2 = 21.0 * B / 2.0 + 5.0 / 6.0 + 8.0 * L**2 / alpha + 10.0 * L
        c_eps1 = max(6.0 * B, (45.0 * B + 132.0 * B**2 + 192.0 * B * L) / alpha)
        c_eps2 = max(
            16.0 * B,
            768.0 * B**2 / (c_tau * alpha),
            alpha / 4.0 + 128.0 * B**2 / (c_tau * (1.0 - sigma2**2)) + 2.0 * c2,
            32.0 * B**2 / c2,
        )
        return cls(C0=c0, C1=c1, C2=c2, C_eps1=c_eps1, C_eps2=c_eps2,
                   c_tau=c_tau, B=B, alpha=alpha)


def fit_c_tau(schedule: StepSchedule, beta, rho, horizon) -> float:
    """Largest c in (0,1) with tau_k + 1 <= (1-c)(k+1) for all k > tau_k
    up to the horizon."""
    best = math.inf
    if schedule.kind == "constant" and horizon >= 1:
        # tau_k is one value t, and 1 - (t+1)/(k+1) is least at k = t+1
        t = tau_k(beta, schedule.eps, rho)
        if t + 1 <= horizon:
            best = 1.0 - (t + 1) / (t + 2)
    else:
        for k in range(1, horizon + 1):
            t = tau_k(beta, schedule.value(k), rho)
            if k > t:
                best = min(best, 1.0 - (t + 1) / (k + 1))
    if best == math.inf:
        raise CoreError(f"horizon {horizon} is too short to fit c_tau: "
                        f"no k <= {horizon} exceeds tau_k")
    if best <= 0.0:
        raise CoreError("no admissible c_tau: tau_k grows too fast for the horizon")
    return best


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    margins: dict


def admissible_step_check(rc: RateConstants, s: StepSchedule, n_agents,
                          sigma2, beta, rho, horizon=10_000) -> AdmissibilityReport:
    """Signed margins for the theoretical step-size conditions.

    Report-only: the theoretical bounds are far below practical steps and
    runs proceed regardless of the verdict.
    """
    bound = min(1.0 / (n_agents * rc.C_eps1),
                (1.0 - sigma2**2) / (n_agents * rc.C_eps2))
    margins = {}
    if s.kind == "constant":
        t = tau_k(beta, s.eps, rho)
        margins["constant_eps_tau"] = bound - s.eps * t
    else:
        margins["diminishing_eps_vs_8_over_alpha"] = s.eps - 8.0 / rc.alpha
        worst = math.inf
        for k in range(horizon + 1):
            t = tau_k(beta, s.value(k), rho)
            if k < t:
                continue
            worst = min(worst, bound - s.value(k - t) * t)
        margins["diminishing_delayed_eps_tau"] = worst
    passed = all(m >= 0 for m in margins.values() if not math.isnan(m))
    return AdmissibilityReport(passed=passed, margins=margins)


# ---------------------------------------------------------------------------
# metrics


def lyapunov(R: float, S_k: float, S_delayed: float) -> float:
    return R + S_k + S_delayed


def lemma3_residual(S_k, S_prev, R_prev, eps_prev, rc: RateConstants,
                    n_agents, sigma2) -> float:
    """Slack of the one-step consensus-error recursion; nonnegative pathwise
    under the step-size conditions."""
    gap = 1.0 - sigma2**2
    bound = ((1.0 + sigma2**2) / 2.0 * S_prev
             + 32.0 * eps_prev**2 * rc.B**2 * n_agents / gap * R_prev
             + n_agents * rc.C0 / gap * eps_prev**2)
    return bound - S_k


# Rows of k per array pass of lemma4_residual: its (rows, seeds) temporaries
# then stay far smaller than the (seeds, horizon+1) inputs.
_LEMMA4_ROWS = 256


def lemma4_residual(R_by_seed, S_by_seed, eps_fn, tau_fn, rc: RateConstants,
                    n_agents, min_seeds=30):
    """Expectation-level slack of the optimality-error recursion.

    R_by_seed, S_by_seed: arrays of shape (n_seeds, horizon+1) with the
    per-iteration metrics of seed-replicated runs.  Returns (ks, slack,
    stderr) for every k with tau_k <= k < horizon, where slack is the
    seed-averaged bound minus the seed-averaged R^{k+1} and stderr is the
    standard error of the per-seed slack.
    """
    R = np.asarray(R_by_seed, dtype=float)
    S = np.asarray(S_by_seed, dtype=float)
    if R.shape != S.shape or R.ndim != 2:
        raise CoreError("R and S seed arrays must share shape (n_seeds, horizon+1)")
    n_seeds, n_iters = R.shape
    if n_seeds < min_seeds:
        raise CoreError(f"need >= {min_seeds} seed replicates, got {n_seeds}")
    ks, taus = [], []
    for k in range(n_iters - 1):
        t = tau_fn(k)
        if k >= t:
            ks.append(k)
            taus.append(t)
    k_all = np.array(ks, dtype=int)
    t_all = np.array(taus, dtype=int)
    e_all = np.array([eps_fn(k) for k in ks], dtype=float)
    lag_all = np.array([eps_fn(k - t) for k, t in zip(ks, taus)], dtype=float)
    Rt, St = R.T, S.T
    slack = np.empty(len(ks))
    stderr = np.empty(len(ks))
    for lo in range(0, len(ks), _LEMMA4_ROWS):
        rows = slice(lo, lo + _LEMMA4_ROWS)
        k, t, e_k = k_all[rows], t_all[rows], e_all[rows]
        # one row per k and one column per seed, C-contiguous so that each
        # row reduces in the same order as a per-k 1-D array of seeds
        per_seed = np.ascontiguousarray(
            (1.0 - rc.alpha * e_k / 2.0)[:, None] * Rt[k]
            + (n_agents * rc.C1 * e_k * lag_all[rows] * t)[:, None]
            + (n_agents * rc.C2 * e_k)[:, None] * (St[k] + St[k - t])
            - Rt[k + 1])
        slack[rows] = per_seed.mean(axis=1)
        stderr[rows] = per_seed.std(axis=1, ddof=1) / math.sqrt(n_seeds)
    return k_all, slack, stderr


def td_error(theta_rows, eval_batches, ops) -> float:
    """Mean absolute Bellman residual over agents and their eval batches."""
    if not eval_batches or all(len(b) == 0 for b in eval_batches):
        raise CoreError("td_error needs a nonempty eval batch")
    total = 0.0
    count = 0
    for theta, batch, op in zip(theta_rows, eval_batches, ops):
        if op.kind != "qlearning":
            raise CoreError("td_error applies to Q-learning operators only")
        if len(batch) == 0:
            continue
        s, a, r, s_next = np.asarray(batch, dtype=float).T
        res = bellman_residual(op.params["features"], op.params["gamma"], theta,
                               s.astype(int), a.astype(int), r, s_next.astype(int))
        total += float(np.abs(res).sum())
        count += res.size
    return total / count


# ---------------------------------------------------------------------------
# metrics records and the outer loop


@dataclass(frozen=True)
class MetricsRecord:
    k: int
    eps_k: float
    tau_k: int
    R: float
    S: float
    S_delayed: float
    V: float
    td_error: float = math.nan
    lemma3_slack: float = math.nan


@dataclass
class Scenario:
    """Everything run() needs: the topology, per-agent sources and
    operators, schedule, horizon and metadata.

    weights is a non-empty tuple of WeightMatrix frames, and step k mixes
    with frame k mod len(weights): a fixed graph is a one-frame tuple.
    """

    sources: list
    ops: list
    step: StepSchedule
    horizon: int
    seed: int
    weights: tuple
    stride: int = 1
    theta0: np.ndarray = None
    theta_star: np.ndarray = None
    beta: float = 1.0
    rho: float = 0.0
    constants: RateConstants = None
    sigma2: float = math.nan
    eval_batches: list = None
    # optional fused sampler, used by run() in place of the per-agent
    # sample+eval loop: vector_drift(rngs, X, T) draws the next T
    # observations of every agent, advances X (the sources' stacked states,
    # one row per agent) in place to the last of them, and returns
    # drift(Theta, t), the drift rows at step t of the block
    vector_drift: callable = None

    def __post_init__(self):
        n = len(self.sources)
        if len(self.ops) != n:
            raise CoreError("one operator per source required")
        self.weights = tuple(self.weights)
        if not self.weights or any(np.shape(w.entries) != (n, n)
                                   for w in self.weights):
            raise CoreError(f"weight matrices must be {n} x {n}")
        d = self.ops[0].dim
        if self.theta0 is None:
            self.theta0 = np.zeros((n, d))
        self.theta0 = np.asarray(self.theta0, dtype=float)
        if self.theta0.shape != (n, d):
            raise CoreError(f"theta0 must have shape ({n},{d})")
        if self.horizon < 0 or self.stride < 1:
            raise CoreError("horizon must be >= 0 and stride >= 1")

    @property
    def n_agents(self):
        return len(self.sources)

    @property
    def dim(self):
        return self.ops[0].dim


@dataclass
class MetricsTrajectory:
    records: list
    R_hist: np.ndarray
    S_hist: np.ndarray
    theta_final: np.ndarray
    aborted: bool = False
    abort_reason: str = ""
    min_lemma3_slack: float = math.nan
    theta_bar_hist: np.ndarray = None

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])


# Steps per block of run(): observations are drawn, and metrics computed,
# once per block.
_BLOCK = 128


def run(scenario: Scenario, collect_theta_bar: bool = False) -> MetricsTrajectory:
    """Execute the iteration for k = 0..horizon-1, one sample per agent per
    iteration, logging a MetricsRecord every stride (and at k=0 and the end).

    The iteration advances in blocks of up to _BLOCK steps: each block's
    observations are drawn up front (they never depend on Theta), the steps
    fill a buffer of iterates, and R, S, theta_bar and the lemma-3 slack of
    the block are computed on that buffer. A non-finite iterate still stops
    the run at its exact k, before any operator sees it.

    Bit-deterministic for a fixed seed: per-agent sample streams are derived
    from (seed, agent, 'sample') and agents are reduced in index order.
    All stream state (the RNGs and the sources' Markov states) is per run,
    so the scenario is left unchanged and can be run again.
    """
    from .rng import derive_stream

    sc = scenario
    n, d = sc.n_agents, sc.dim
    rngs = [derive_stream(sc.seed, i, "sample") for i in range(n)]
    if sc.vector_drift is not None:
        X = np.array([src.state for src in sc.sources], dtype=float)
    else:
        sources = [copy.copy(src) for src in sc.sources]
        ops_eval = [op.eval for op in sc.ops]
    frames = [w.entries for w in sc.weights]
    Theta = sc.theta0.copy()

    horizon = sc.horizon
    R_hist = np.full(horizon + 1, math.nan)
    S_hist = np.full(horizon + 1, math.nan)
    tb_hist = np.zeros((horizon + 1, d)) if collect_theta_bar else None
    theta_star = None if sc.theta_star is None else np.asarray(sc.theta_star)
    check_lemma3 = sc.constants is not None and theta_star is not None
    min_slack = math.inf

    records = []
    aborted = False
    reason = ""

    def log_record(k, Theta, slack):
        t = tau_k(sc.beta, sc.step.value(k), sc.rho)
        r_val = R_hist[k]
        s_val = S_hist[k]
        s_del = S_hist[max(0, k - t)]
        td = math.nan
        if sc.eval_batches is not None:
            td = td_error(Theta, sc.eval_batches, sc.ops)
        records.append(MetricsRecord(
            k=k, eps_k=sc.step.value(k), tau_k=t, R=r_val, S=s_val,
            S_delayed=s_del, V=lyapunov(r_val, s_val, s_del),
            td_error=td, lemma3_slack=slack))

    def measure(k_lo, thetas, eps_prev):
        """Metrics and records of the iterates thetas = Theta_{k_lo..}, of
        shape (m, N, d); eps_prev holds the steps that produced them."""
        nonlocal min_slack
        m = len(thetas)
        ks = slice(k_lo, k_lo + m)
        theta_bar = thetas.mean(axis=1)
        if theta_star is not None:
            diff = theta_bar - theta_star
            R_hist[ks] = (diff[:, None, :] @ diff[:, :, None]).reshape(m)
        dev = thetas - theta_bar[:, None, :]
        S_hist[ks] = (dev * dev).reshape(m, n * d).sum(axis=1)
        if collect_theta_bar:
            tb_hist[ks] = theta_bar
        slack = np.full(m, math.nan)
        if check_lemma3 and k_lo >= 1:
            prev = slice(k_lo - 1, k_lo - 1 + m)
            slack = lemma3_residual(S_hist[ks], S_hist[prev], R_hist[prev],
                                    np.array(eps_prev), sc.constants, n,
                                    sc.sigma2)
            # NaN slacks are skipped, as min() over floats would skip them
            min_slack = float(np.fmin.reduce(slack, initial=min_slack))
        for k in range(k_lo, k_lo + m):
            if k % sc.stride == 0 or k == horizon:
                log_record(k, thetas[k - k_lo], slack[k - k_lo])

    measure(0, Theta[None], [])
    buf = np.empty((min(_BLOCK, horizon), n, d))
    for k0 in range(0, horizon, _BLOCK):
        T = min(_BLOCK, horizon - k0)
        if sc.vector_drift is not None:
            drift = sc.vector_drift(rngs, X, T)
        else:
            obs = [[src.sample(rng) for _ in range(T)]
                   for src, rng in zip(sources, rngs)]
            drift = _per_agent_drift(ops_eval, obs)
        eps = [sc.step.value(k) for k in range(k0, k0 + T)]
        done = T
        for t in range(T):
            Theta = (frames[(k0 + t) % len(frames)] @ Theta
                     + eps[t] * drift(Theta, t))
            if not np.isfinite(Theta).all():
                aborted = True
                reason = f"non-finite iterate at k={k0 + t + 1}"
                done = t
                break
            buf[t] = Theta
        measure(k0 + 1, buf[:done], eps[:done])
        if aborted:
            break

    return MetricsTrajectory(
        records=records, R_hist=R_hist, S_hist=S_hist,
        theta_final=Theta.copy(), aborted=aborted, abort_reason=reason,
        min_lemma3_slack=(min_slack if check_lemma3 else math.nan),
        theta_bar_hist=tb_hist)


def _per_agent_drift(ops_eval, obs):
    """drift(Theta, t): agent i's operator at its t-th observation of the
    block, obs[i][t]."""
    def drift(Theta, t):
        out = np.empty_like(Theta)
        for i, op_eval in enumerate(ops_eval):
            out[i] = op_eval(obs[i][t], Theta[i])
        return out

    return drift
