"""Decentralized stochastic approximation: the iteration, step schedules,
rate constants, and per-iteration metrics (R, S, V, lemma residuals).

The update is theta_i <- sum_j W(i,j) theta_j + eps_k F_i(X_i, theta_i),
executed bulk-synchronously from the pre-step iterate matrix.
"""

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import WeightMatrix
from .operators import bellman_residual


class CoreError(ValueError):
    """Raised for inconsistent dimensions or metric contract violations."""


class RunAborted(RuntimeError):
    """Raised when an iterate becomes NaN/Inf mid-run."""


# ---------------------------------------------------------------------------
# step schedules and delays


@dataclass(frozen=True)
class StepSchedule:
    """constant: eps;  diminishing: eps/(k+1).

    When alpha is known, a diminishing schedule must satisfy eps >= 8/alpha.
    """

    kind: str
    eps: float
    alpha: float = None

    def __post_init__(self):
        if self.kind not in ("constant", "diminishing"):
            raise CoreError("step kind must be 'constant' or 'diminishing'")
        if self.eps <= 0:
            raise CoreError("eps must be positive")
        if (self.kind == "diminishing" and self.alpha is not None
                and self.eps < 8.0 / self.alpha - 1e-12):
            raise CoreError(
                f"diminishing schedule needs eps >= 8/alpha = {8.0 / self.alpha:.6g}")

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
        warnings.warn("eps_k >= 1: log term vanishes, tau falls back to "
                      "ceil(rho/(1-rho))", stacklevel=2)
        return max(floor_term, 0)
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best = 1.0
        for k in range(1, horizon + 1):
            t = tau_k(beta, schedule.value(k), rho)
            if k > t:
                best = min(best, 1.0 - (t + 1) / (k + 1))
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    ks, slack, stderr = [], [], []
    for k in range(n_iters - 1):
        t = tau_fn(k)
        if k < t:
            continue
        e_k = eps_fn(k)
        per_seed = ((1.0 - rc.alpha * e_k / 2.0) * R[:, k]
                    + n_agents * rc.C1 * e_k * eps_fn(k - t) * t
                    + n_agents * rc.C2 * e_k * (S[:, k] + S[:, k - t])
                    - R[:, k + 1])
        ks.append(k)
        slack.append(float(per_seed.mean()))
        stderr.append(float(per_seed.std(ddof=1) / math.sqrt(n_seeds)))
    return np.array(ks), np.array(slack), np.array(stderr)


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
    """Everything run() needs: topology weights (fixed or cycling),
    per-agent sources and operators, schedule, horizon and metadata."""

    sources: list
    ops: list
    step: StepSchedule
    horizon: int
    seed: int
    stride: int = 1
    weights: WeightMatrix = None
    schedule_weights: tuple = None
    theta0: np.ndarray = None
    theta_star: np.ndarray = None
    beta: float = 1.0
    rho: float = 0.0
    constants: RateConstants = None
    sigma2: float = math.nan
    eval_batches: list = None
    name: str = "scenario"
    # optional fused (Theta, rngs, X) -> drift rows, equivalent to the
    # per-agent sample+eval loop and used by run() in its place; X stacks
    # the sources' states (one row per agent) and the drift advances it
    # in place
    vector_drift: callable = None

    def __post_init__(self):
        if (self.weights is None) == (self.schedule_weights is None):
            raise CoreError("provide exactly one of weights / schedule_weights")
        n = len(self.sources)
        if len(self.ops) != n:
            raise CoreError("one operator per source required")
        frames = ((self.weights,) if self.weights is not None
                  else tuple(self.schedule_weights))
        if not frames or any(np.shape(w.entries) != (n, n) for w in frames):
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

    def weight_entries_at(self, k):
        if self.weights is not None:
            return self.weights.entries
        return self.schedule_weights[k % len(self.schedule_weights)].entries


@dataclass
class MetricsTrajectory:
    records: list
    R_hist: np.ndarray
    S_hist: np.ndarray
    theta_final: np.ndarray
    step: StepSchedule
    aborted: bool = False
    abort_reason: str = ""
    min_lemma3_slack: float = math.nan
    theta_bar_hist: np.ndarray = None

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])


def _quiet_tau(beta, eps_k, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tau_k(beta, eps_k, rho)


def run(scenario: Scenario, collect_theta_bar: bool = False) -> MetricsTrajectory:
    """Execute the iteration for k = 0..horizon-1, one sample per agent per
    iteration, logging a MetricsRecord every stride (and at k=0 and the end).

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
    Theta = sc.theta0.copy()

    horizon = sc.horizon
    R_hist = np.full(horizon + 1, math.nan)
    S_hist = np.full(horizon + 1, math.nan)
    tb_hist = np.zeros((horizon + 1, d)) if collect_theta_bar else None
    theta_star = None if sc.theta_star is None else np.asarray(sc.theta_star)
    check_lemma3 = sc.constants is not None and theta_star is not None
    sigma2 = sc.sigma2
    min_slack = math.inf if check_lemma3 else math.nan

    records = []
    aborted = False
    reason = ""

    def log_record(k, Theta, slack=math.nan):
        t = _quiet_tau(sc.beta, sc.step.value(k), sc.rho)
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

    ops_eval = [op.eval for op in sc.ops]
    prev_slack = math.nan
    for k in range(horizon + 1):
        theta_bar = Theta.mean(axis=0)
        if theta_star is not None:
            diff = theta_bar - theta_star
            R_hist[k] = float(diff @ diff)
        dev = Theta - theta_bar
        S_hist[k] = float(np.sum(dev * dev))
        if collect_theta_bar:
            tb_hist[k] = theta_bar
        if check_lemma3 and k >= 1:
            prev_slack = lemma3_residual(
                S_hist[k], S_hist[k - 1], R_hist[k - 1],
                sc.step.value(k - 1), sc.constants, n, sigma2)
            min_slack = min(min_slack, prev_slack)
        if k % sc.stride == 0 or k == horizon:
            log_record(k, Theta, prev_slack)
        if k == horizon:
            break
        eps = sc.step.value(k)
        if sc.vector_drift is not None:
            drift = sc.vector_drift(Theta, rngs, X)
        else:
            drift = np.empty_like(Theta)
            for i in range(n):
                drift[i] = ops_eval[i](sources[i].sample(rngs[i]), Theta[i])
        Theta = sc.weight_entries_at(k) @ Theta + eps * drift
        if not np.all(np.isfinite(Theta)):
            aborted = True
            reason = f"non-finite iterate at k={k + 1}"
            break

    return MetricsTrajectory(
        records=records, R_hist=R_hist, S_hist=S_hist,
        theta_final=Theta.copy(), step=sc.step,
        aborted=aborted, abort_reason=reason,
        min_lemma3_slack=(min_slack if check_lemma3 else math.nan),
        theta_bar_hist=tb_hist)
