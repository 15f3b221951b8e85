"""Decentralized stochastic approximation: the iteration, step schedules,
rate constants, and per-iteration metrics (R, S, V, lemma residuals).

The update is theta_i <- sum_j W(i,j) theta_j + eps_k F_i(X_i, theta_i),
executed bulk-synchronously from the pre-step iterate matrix.
"""

import bisect
import copy
import dataclasses
import functools
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import operators
from .operators import (TabularFeatures, bellman_residual,
                        qlearning_block_drift, quadratic_block_drift,
                        step_loop)
from .sources import _SHORT_ROW, ordered_sum


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
        if not 0 < self.eps < math.inf:
            raise CoreError("eps must be positive and finite")

    def value(self, k: int) -> float:
        if k < 0:
            raise CoreError("iteration index must be nonnegative")
        if self.kind == "constant":
            return self.eps
        return self.eps / (k + 1)

    def values(self, k0: int, T: int) -> np.ndarray:
        """[value(k) for k in k0..k0+T-1] as a 1-D float64 array: for the
        diminishing kind, one division that rounds each as value(k) does."""
        if k0 < 0:
            raise CoreError("iteration index must be nonnegative")
        if self.kind == "constant":
            return np.full(T, self.eps, dtype=float)
        return self.eps / np.arange(k0 + 1, k0 + T + 1)


def tau_k(beta: float, eps_k: float, rho: float = 0.0) -> int:
    """Delay horizon ceil(beta log(1/eps_k)), and 0 for eps_k >= 1."""
    # rho: benchmarks/workloads.py passes 0.0 until the next benchmark change
    if rho != 0.0:
        raise CoreError(f"tau_k takes no mixing floor, got rho = {rho}")
    if eps_k >= 1.0:
        # log(1/eps_k) <= 0, and for eps_k = inf math.log would fail
        return 0
    if eps_k <= 0:
        raise CoreError("eps_k must be positive")
    log_term = beta * math.log(1.0 / eps_k)
    if not math.isfinite(log_term):
        # a subnormal eps_k or a huge beta overflows beta log(1/eps_k)
        raise CoreError(f"tau_k is not finite at beta = {beta}, "
                        f"eps_k = {eps_k}")
    # a ceiling that forgives round-off just above an integer; never below
    # 0 (for a negative beta), so a record's S_delayed reads no k beyond it
    return max(0, math.ceil(log_term - 1e-9))


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
        # B = 0 would make the step bounds 1/(N C_eps1) divide by zero, and
        # alpha <= 0 has no rate: both arise when the constants underflow
        if not (0.0 < B < math.inf and 0.0 < alpha < math.inf):
            raise CoreError(f"rate constants need finite B > 0 and alpha > 0, "
                            f"got B = {B}, alpha = {alpha}")
        tsq1 = theta_star_norm**2 + 1.0
        try:
            c0 = 16.0 * B**2 * tsq1
            c1 = (60.0 * B**2 + 45.0 / 2.0 + 90.0 * B * L + 6.0 * B**2) * tsq1
            c2 = 21.0 * B / 2.0 + 5.0 / 6.0 + 8.0 * L**2 / alpha + 10.0 * L
            c_eps1 = max(6.0 * B,
                         (45.0 * B + 132.0 * B**2 + 192.0 * B * L) / alpha)
            c_eps2 = max(
                16.0 * B,
                768.0 * B**2 / (c_tau * alpha),
                alpha / 4.0 + 128.0 * B**2 / (c_tau * (1.0 - sigma2**2))
                + 2.0 * c2,
                32.0 * B**2 / c2,
            )
            finite = all(map(math.isfinite, (c0, c1, c2, c_eps1, c_eps2)))
        except OverflowError:   # ** on a float raises where * gives inf
            finite = False
        if not finite:
            raise CoreError(f"rate constants overflow at B = {B}, L = {L}, "
                            f"alpha = {alpha}")
        return cls(C0=c0, C1=c1, C2=c2, C_eps1=c_eps1, C_eps2=c_eps2,
                   c_tau=c_tau, B=B, alpha=alpha)


def fit_c_tau(schedule: StepSchedule, beta, horizon) -> float:
    """Largest c in (0,1) with tau_k + 1 <= (1-c)(k+1) for all k > tau_k
    up to the horizon."""
    best = math.inf
    if schedule.kind == "constant" and horizon >= 1:
        # tau_k is one value t, and 1 - (t+1)/(k+1) is least at k = t+1
        t = tau_k(beta, schedule.eps)
        if t + 1 <= horizon:
            best = 1.0 - (t + 1) / (t + 2)
    else:
        # 1 - (t+1)/(k+1) grows with k, so a run of equal tau_k = t attains
        # its least value at its first k > t
        for first, last, t in _tau_runs(schedule, beta, 1, horizon):
            k = max(first, t + 1)
            if k <= last:
                best = min(best, 1.0 - (t + 1) / (k + 1))
    if best == math.inf:
        raise CoreError(f"horizon {horizon} is too short to fit c_tau: "
                        f"no k <= {horizon} exceeds tau_k")
    if best <= 0.0:
        raise CoreError("no admissible c_tau: tau_k grows too fast for the horizon")
    return best


def _tau_runs(schedule: StepSchedule, beta, lo, hi):
    """(first, last, t) for each run first..last of equal t = tau_k at the
    steps of the schedule, over lo <= k <= hi.

    tau_k is nondecreasing in k (eps_k does not grow), so the end of each
    run is found by bisection: O(runs * log(hi - lo)) tau_k calls, not one
    per k.
    """
    ks = range(lo, hi + 1)

    def tau(k):
        return tau_k(beta, schedule.value(k))

    i = 0
    while i < len(ks):
        t = tau(ks[i])
        j = bisect.bisect_right(ks, t, lo=i + 1, key=tau)
        yield ks[i], ks[j - 1], t
        i = j


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    margins: dict


def admissible_step_check(rc: RateConstants, s: StepSchedule, n_agents,
                          sigma2, beta, horizon=10_000) -> AdmissibilityReport:
    """Signed margins for the theoretical step-size conditions.

    Report-only: the theoretical bounds are far below practical steps and
    runs proceed regardless of the verdict.
    """
    bound = min(1.0 / (n_agents * rc.C_eps1),
                (1.0 - sigma2**2) / (n_agents * rc.C_eps2))
    margins = {}
    if s.kind == "constant":
        t = tau_k(beta, s.eps)
        margins["constant_eps_tau"] = bound - s.eps * t
    else:
        margins["diminishing_eps_vs_8_over_alpha"] = s.eps - 8.0 / rc.alpha
        worst = math.inf
        # the delayed step eps_{k-t} falls as k grows, so a run of equal
        # tau_k = t attains its least margin at its first k >= t
        for first, last, t in _tau_runs(s, beta, 0, horizon):
            k = max(first, t)
            if k <= last:
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
    # float_power calls C's pow per entry, as ** on a Python float does, so
    # a column of per-run B gives each run's bound bit for bit; ndarray ** 2
    # squares instead, which can round the last bit otherwise
    bound = ((1.0 + sigma2**2) / 2.0 * S_prev
             + 32.0 * eps_prev**2 * np.float_power(rc.B, 2) * n_agents / gap
             * R_prev
             + n_agents * rc.C0 / gap * eps_prev**2)
    return bound - S_k


# Rows of k per array pass of lemma4_residual: its (rows, seeds) temporaries
# then stay far smaller than the (seeds, horizon+1) inputs.
_LEMMA4_ROWS = 256


def lemma4_residual(R_by_seed, S_by_seed, eps_fn, tau_fn, rc: RateConstants,
                    n_agents):
    """Expectation-level slack of the optimality-error recursion.

    R_by_seed, S_by_seed: arrays of shape (n_seeds, horizon+1) with the
    per-iteration metrics of n_seeds >= 30 seed-replicated runs.  Returns
    (ks, slack, stderr) for every k with tau_k <= k < horizon, where slack is the
    seed-averaged bound minus the seed-averaged R^{k+1} and stderr is the
    standard error of the per-seed slack.
    """
    R = np.asarray(R_by_seed, dtype=float)
    S = np.asarray(S_by_seed, dtype=float)
    if R.shape != S.shape or R.ndim != 2:
        raise CoreError("R and S seed arrays must share shape (n_seeds, horizon+1)")
    n_seeds, n_iters = R.shape
    if n_seeds < 30:
        raise CoreError(f"need >= 30 seed replicates, got {n_seeds}")
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


def eval_columns(eval_batches, ops) -> tuple:
    """Per-agent batches of (s, a, r, s') rows as td_error's columns, built
    once: every agent's nonempty batch stacked in agent order, with the
    states of agent i offset by i * states as the Q-learning step offsets
    them, so that one bellman_residual call on the (agents * states) x
    actions table of the agents' theta rows serves them all. Returns
    (features, gamma, s, a, r, s', ends): the stacked features, each
    transition's agent's gamma, s, a and s' as int and r as float arrays,
    and the end of each agent's transitions. Raises CoreError for no
    transition at all, an operator that is not Q-learning, agents whose
    batches are not empty but whose features differ, or a state or action
    beyond them (which would read another agent's rows)."""
    if not eval_batches or all(len(b) == 0 for b in eval_batches):
        raise CoreError("td_error needs a nonempty eval batch")
    if any(op.kind != "qlearning" for op in ops):
        raise CoreError("td_error applies to Q-learning operators only")
    used = [(i, np.asarray(batch, dtype=float), op.params)
            for i, (batch, op) in enumerate(zip(eval_batches, ops))
            if len(batch) > 0]
    features = used[0][2]["features"]
    if any(params["features"] != features for _, _, params in used):
        raise CoreError("td_error needs one features for all agents")
    s, a, r, s_next = np.concatenate([batch for _, batch, _ in used]).T
    s, a, s_next = s.astype(int), a.astype(int), s_next.astype(int)
    if (min(s.min(), a.min(), s_next.min()) < 0
            or max(s.max(), s_next.max()) >= features.n_states
            or a.max() >= features.n_actions):
        raise CoreError("an eval transition's state or action lies beyond "
                        "the features' states and actions")
    offsets = np.concatenate([np.full(len(batch), i * features.n_states)
                              for i, batch, _ in used])
    gamma = np.concatenate([np.full(len(batch), params["gamma"])
                            for _, batch, params in used])
    ends = np.cumsum([len(batch) for _, batch, _ in used]).tolist()
    stacked = TabularFeatures(len(ops) * features.n_states,
                              features.n_actions)
    return (stacked, gamma, s + offsets, a, np.ascontiguousarray(r),
            s_next + offsets, ends)


def td_error(theta_rows, columns) -> float:
    """Mean absolute Bellman residual over agents and their eval batches,
    given as eval_columns: one bellman_residual call for all agents, whose
    |residuals| are then summed agent by agent and added in agent order,
    as a call per agent would sum them."""
    features, gamma, s, a, r, s_next, ends = columns
    res = np.abs(bellman_residual(features, gamma, theta_rows, s, a, r,
                                  s_next))
    total = 0.0
    lo = 0
    for hi in ends:
        total += float(res[lo:hi].sum())
        lo = hi
    return total / len(res)


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
    constants: RateConstants = None
    sigma2: float = math.nan
    eval_batches: list = None

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
        if not np.isfinite(self.theta0).all():
            raise CoreError("theta0 must be finite")
        if self.horizon < 0 or self.stride < 1:
            raise CoreError("horizon must be >= 0 and stride >= 1")

    @property
    def n_agents(self):
        return len(self.sources)

    @property
    def dim(self):
        return self.ops[0].dim

    @property
    def vector_drift(self):
        # None: benchmarks/tracing.py reads it until the next benchmark change
        return None

    @property
    def rho(self):
        # 0.0: benchmarks/workloads.py reads it until the next benchmark change
        return 0.0


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
    # seconds per phase of the engine (sample, step, measure, log); a
    # stacked pass is timed once, and each of its runs carries its totals
    phase_s: dict = dataclasses.field(default_factory=dict, compare=False)
    # whether the steps were the compiled kernel's (see _block_drift)
    compiled_step: bool = dataclasses.field(default=False, compare=False)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])


# Steps per block of run(): observations are drawn, and metrics computed,
# once per block.
_BLOCK = 128


def run(scenario: Scenario, collect_theta_bar: bool = False, *,
        _share=None) -> MetricsTrajectory:
    """Execute the iteration for k = 0..horizon-1, one sample per agent per
    iteration, logging a MetricsRecord every stride (and at k=0 and the end).

    The iteration advances in blocks of up to _BLOCK steps: each block's
    observations are drawn up front (they never depend on Theta), by a
    block sampler built once per run, and the block's steps are one call
    of the drift's advance from the pre-block iterate: each writes W Theta
    into its row of a time-major iterate buffer and adds eps F in place. The
    block is stepped under np.errstate(all="ignore"), so neither the
    engine nor an operator's eval warns about overflow inside it; an
    isfinite check of the buffer then finds the first non-finite iterate,
    and the run aborts at its exact k with that iterate as theta_final. R,
    S, theta_bar and the lemma-3 slack of the block's iterates before it
    are computed from the time-major buffer as it stands. No operator's
    eval ever sees a non-finite iterate. The trajectory's phase_s holds the
    seconds spent drawing, stepping, measuring and logging.

    Bit-deterministic for a fixed seed: per-agent sample streams are derived
    from (seed, agent, 'sample') and agents are reduced in index order.
    All stream state (the RNGs and the sources' Markov states) is per run,
    so the scenario is left unchanged and can be run again.

    The scenario is stepped as a stack of one by the one engine,
    _step_stack. `_share` is private to run_ensemble, which passes the
    function that returns this scenario's share of its stacked pass.
    """
    if _share is None:
        return _step_stack([scenario], collect_theta_bar)[0][0]
    return _share()


def run_ensemble(scenarios, collect_theta_bar: bool = False) -> list:
    """run() of each of S scenarios of one config, stepped together: one
    MetricsTrajectory per scenario, in order, each equal bit for bit to the
    one run() gives that scenario alone.

    The scenarios may differ in their seeds, sources, operators' parameters,
    theta0, theta* and constants. The iterates of all S are one (S, N, d)
    array, so each numpy call of a step, and of a block's metrics, serves
    every scenario; the shared weight frame mixes every scenario's rows.
    Raises CoreError when the scenarios differ in their weight frames,
    step, horizon, stride, beta, sigma2, dims or operator kinds, or in
    which of theta*, constants and eval batches they have.

    Every scenario's records are still logged inside one run() call of its
    own, so that a wrapper of run() sees each seed run: the first call
    makes the stacked pass, and each later one logs the records the pass
    kept for its scenario. A scenario whose iterate goes non-finite aborts
    at its own k, as it does alone, and the others step on.
    """
    scs = list(scenarios)
    if scs:
        _require_one_config(scs)
    stacked = []

    def share(i):
        if not stacked:
            stacked.append(_step_stack(scs, collect_theta_bar))
        traj, rows, columns = stacked[0][i]
        with np.errstate(all="ignore"):   # as the pass logs the first run's
            _log_records(rows, traj, columns)
        return traj

    return [run(sc, collect_theta_bar, _share=functools.partial(share, i))
            for i, sc in enumerate(scs)]


def _log_records(rows, traj, columns):
    """Append one MetricsRecord to traj.records per row (k, eps_k, tau_k,
    theta, lemma-3 slack), and empty rows; theta and the eval batches'
    columns are None without eval batches."""
    for k, eps_k, t, theta, slack in rows:
        r_val = traj.R_hist[k]
        s_val = traj.S_hist[k]
        s_del = traj.S_hist[max(0, k - t)]
        td = math.nan
        if columns is not None:
            td = td_error(theta, columns)
        traj.records.append(MetricsRecord(
            k=k, eps_k=eps_k, tau_k=t, R=r_val, S=s_val, S_delayed=s_del,
            V=lyapunov(r_val, s_val, s_del), td_error=td, lemma3_slack=slack))
    rows.clear()


def _step_stack(scs, collect_theta_bar):
    """The one iteration engine: step the scenarios scs of one config as an
    (S, N, d) stack and return one (MetricsTrajectory, rows, columns)
    triple per scenario. The first scenario's records are logged as they
    are measured; rows holds each other scenario's records still to be
    logged, and columns its eval batches as td_error's index columns (see
    _log_records), with eps_k and tau_k computed once per logged k for the
    whole stack. Each run aborts on its own: its first non-finite iterate,
    at k = end[s], is its theta_final, and nothing from that k on is kept
    for it. The stack steps on until every run has aborted.

    Each block's iterates are a (T, S, N, d) buffer, and its T steps are
    one call of the drift's advance (see _block_drift), from the pre-block
    iterate theta, with the block's steps as one float64 array and its
    frames' mixers, sliced from a cycled list built once per run: at each
    step mix(Theta, out) writes W Theta into the row, as one 2-D gemm by
    the frame's bound ndarray.dot for a stack of one (of N >= 2 agents),
    and a broadcast (S, N, d) np.matmul with the frame bound otherwise, and
    the drift then adds eps F to the row's (S*N, d) form. theta and the
    rows_mix items are in the mixers' shape: (N, d) views from a list built
    once per run for S = 1, (S, N, d) rows of the buffer itself otherwise.

    Each block is timed in four phases, one perf_counter reading at the
    end of each: sample (block_drift draws the block), step (the T steps
    and the finiteness check), measure (R, S, theta_bar and the lemma-3
    slack) and log (the records, TD error included). Every trajectory
    gets the pass's totals as phase_s and _block_drift's compiled_step.
    """
    from .rng import derive_stream

    sc = scs[0]
    n_runs, n, d = len(scs), sc.n_agents, sc.dim
    rngs = [derive_stream(s.seed, i, "sample") for s in scs for i in range(n)]
    block_drift, compiled_step = _block_drift(
        [op for s in scs for op in s.ops],
        [copy.copy(src) for s in scs for src in s.sources], rngs)
    Theta = np.stack([s.theta0 for s in scs])

    horizon = sc.horizon
    R_hist = np.full((n_runs, horizon + 1), math.nan)
    S_hist = np.full((n_runs, horizon + 1), math.nan)
    tb_hist = np.zeros((n_runs, horizon + 1, d)) if collect_theta_bar else None
    theta_star = None
    if sc.theta_star is not None:
        theta_star = np.stack([np.asarray(s.theta_star) for s in scs])
    check_lemma3 = sc.constants is not None and theta_star is not None
    if check_lemma3:
        # lemma3_residual broadcasts each run's B and C0, held as (S, 1)
        # columns, over that run's row of slacks
        constants = dataclasses.replace(
            sc.constants, **{name: np.array([[getattr(s.constants, name)]
                                             for s in scs])
                             for name in ("B", "C0")})
    min_slack = np.full(n_runs, math.inf)
    keep_theta = sc.eval_batches is not None
    # each run's eval batches as index columns, converted once per run
    columns = [eval_columns(s.eval_batches, s.ops) if keep_theta else None
               for s in scs]

    trajs = [MetricsTrajectory(records=[], R_hist=R_hist[s], S_hist=S_hist[s],
                               theta_final=None) for s in range(n_runs)]
    rows = [[] for _ in scs]
    end = [horizon + 1] * n_runs   # each run's abort k; horizon + 1 if none

    def measure(k_lo, thetas, eps_prev):
        """R, S, theta_bar and the lemma-3 slack of the iterates thetas =
        Theta_{k_lo..} of every run, time-major of shape (m, S, N, d);
        eps_prev holds the steps that produced them. Returns the (S, m)
        slacks.

        theta_bar sums the agents' slices in order and divides by N (for
        d = 1 it is numpy's mean), and S is np.add.reduce over each (step,
        run)'s N*d squared deviations in C order, bit for bit (see
        ordered_sum). With the compiled step, deviations makes theta_bar
        and the squared deviations in one call, and the row sums of a short
        N*d too. R and S go into the histories through their transposes."""
        m = len(thetas)
        ks = slice(k_lo, k_lo + m)
        theta_bar, dev = bar_buf[:m], dev_buf[:m]
        rows = m * n_runs
        if deviations is not None:
            deviations(thetas.reshape(rows, n, d),
                       *[out[:rows] for out in outs])
        else:
            if d == 1:
                thetas.mean(axis=2, out=theta_bar)
            else:
                ordered_sum(thetas.transpose(2, 0, 1, 3), theta_bar)
                theta_bar /= n
            np.subtract(thetas, theta_bar[:, :, None], out=dev)
            np.multiply(dev, dev, out=dev)
        if sums is not None:
            S_hist.T[ks] = sums[:rows].reshape(m, n_runs)
        else:
            S_hist.T[ks] = np.add.reduce(dev.reshape(m, n_runs, n * d),
                                         axis=-1)
        if theta_star is not None:
            diff = theta_bar - theta_star
            R_hist.T[ks] = (diff[..., None, :] @ diff[..., None]).reshape(
                m, n_runs)
        if collect_theta_bar:
            tb_hist.swapaxes(0, 1)[ks] = theta_bar
        slack = np.full((n_runs, m), math.nan)
        if check_lemma3 and k_lo >= 1:
            prev = slice(k_lo - 1, k_lo - 1 + m)
            slack = lemma3_residual(S_hist[:, ks], S_hist[:, prev],
                                    R_hist[:, prev], eps_prev,
                                    constants, n, sc.sigma2)
            # NaN slacks are skipped, as min() over floats would skip them
            np.fmin(min_slack, np.fmin.reduce(slack, axis=1,
                                              initial=math.inf),
                    out=min_slack)
        return slack

    def log(k_lo, thetas, slack):
        """Each run s's records of the logged k < end[s] among thetas =
        Theta_{k_lo..}: the first run's are logged, the others' kept in
        rows; eps_k and tau_k are computed once per k for all runs."""
        for k in range(k_lo, k_lo + len(thetas)):
            if k % sc.stride == 0 or k == horizon:
                eps_k = sc.step.value(k)
                t = tau_k(sc.beta, eps_k)
                for s in range(n_runs):
                    if k >= end[s]:
                        continue
                    theta = thetas[k - k_lo, s].copy() if keep_theta else None
                    rows[s].append((k, eps_k, t, theta, slack[s, k - k_lo]))
                _log_records(rows[0], trajs[0], columns[0])

    phase_s = dict.fromkeys(("sample", "step", "measure", "log"), 0.0)
    tick = perf_counter()

    def lap(phase):
        """Add the time since the last lap to phase: one perf_counter
        reading per phase of a block."""
        nonlocal tick
        now = perf_counter()
        phase_s[phase] += now - tick
        tick = now

    def measure_and_log(k_lo, thetas, eps_prev):
        slack = measure(k_lo, thetas, eps_prev)
        lap("measure")
        log(k_lo, thetas, slack)
        lap("log")

    # the block's iterates, time-major so that each step's (S, N, d) row is
    # contiguous, and the two temporaries of measure, reused by every block:
    # fresh block-sized temporaries cost the allocator more than the
    # arithmetic; one row at least, for the k = 0 measure
    buf = np.empty((max(1, min(_BLOCK, horizon)), n_runs, n, d))
    dev_buf = np.empty_like(buf)
    bar_buf = np.empty(buf.shape[:2] + (d,))
    # the compiled measure, unless d = 1 and N >= _SHORT_ROW, where numpy's
    # mean sums each contiguous agent row pairwise: it writes theta_bar and
    # dev as (m*S, d) and (m*S, N, d) rows, and for a short N*d it also sums
    # each row's squares into sums, as np.add.reduce chains them
    deviations = sums = None
    if operators.STEP is not None and (d > 1 or n < _SHORT_ROW):
        deviations = operators.STEP.deviations
        outs = [bar_buf.reshape(-1, d), dev_buf.reshape(-1, n, d)]
        if n * d < _SHORT_ROW:
            sums = np.empty(len(outs[0]))
            outs.append(sums)
    # the drift reads and writes each row as (S*N, d), and a stack of one
    # is mixed in that form too, one gemm, from a list of the rows' views
    # built once per run; S > 1 keeps the (S, N, d) broadcast matmul and
    # takes each row's view as a block reaches it, since a list of them
    # raised a 30-run stack's peak RSS. theta is in the mixers' shape
    iterates, rows_mix = buf.reshape(len(buf), n_runs * n, d), buf
    theta = Theta
    if n_runs == 1:
        rows_mix, theta = list(iterates), Theta[0]
    # mix(Theta, out) writes W Theta into out, one per frame. A frame's
    # bound dot makes the gemm call without matmul's ufunc machinery and
    # without np.dot's __array_function__ dispatch, and rounds as matmul
    # does, but for a 1 x 1 W, which it takes for a scalar
    frames = [w.entries for w in sc.weights]
    if n_runs == 1 and n > 1:
        mixers = [w.dot for w in frames]
    else:
        mixers = [functools.partial(np.matmul, w) for w in frames]
    # frame (k0 + t) mod F of a block is item (k0 mod F) + t of this list
    mix_cycle = mixers * (_BLOCK // len(mixers) + 2)
    # a diverging run overflows before its iterate does: its iterates and
    # metrics may be inf or NaN, which the block's check turns into its
    # abort, without a warning per operation. S is NaN at every non-finite
    # iterate, so np.fmin skips the slacks of a run from its abort on
    with np.errstate(all="ignore"):
        measure_and_log(0, Theta[None], [])
        for k0 in range(0, horizon, _BLOCK):
            T = min(_BLOCK, horizon - k0)
            advance = block_drift(T)
            lap("sample")
            eps = sc.step.values(k0, T)
            first = k0 % len(mixers)
            advance(theta, iterates, rows_mix, mix_cycle[first:first + T], eps)
            theta = rows_mix[T - 1]
            if not np.isfinite(buf[:T]).all():
                # split by run only for a block that holds a non-finite value
                finite = np.isfinite(buf[:T]).all(axis=(2, 3))
                for s, t in enumerate(finite.argmin(axis=0).tolist()):
                    if end[s] > horizon and not finite[t, s]:
                        end[s] = k0 + t + 1
                        # a copy: the next block overwrites the buffer
                        trajs[s].theta_final = buf[t, s].copy()
            lap("step")
            measure_and_log(k0 + 1, buf[:T], eps)
            if max(end) <= horizon:
                break

    for s, traj in enumerate(trajs):
        traj.aborted = end[s] <= horizon
        if traj.aborted:   # its later iterates were measured with the block
            traj.abort_reason = f"non-finite iterate at k={end[s]}"
            R_hist[s, end[s]:] = S_hist[s, end[s]:] = math.nan
            if tb_hist is not None:
                tb_hist[s, end[s]:] = 0.0
        else:
            traj.theta_final = theta.reshape(n_runs, n, d)[s].copy()
        traj.min_lemma3_slack = (float(min_slack[s]) if check_lemma3
                                 else math.nan)
        traj.theta_bar_hist = None if tb_hist is None else tb_hist[s]
        traj.phase_s = dict(phase_s)
        traj.compiled_step = compiled_step
    return list(zip(trajs, rows, columns))


def _require_one_config(scs):
    """Raise CoreError unless the scenarios can be stepped as one stack."""

    def shared(sc):
        sigma2 = None if math.isnan(sc.sigma2) else sc.sigma2
        return (sc.n_agents, sc.dim, sc.step, sc.horizon, sc.stride, sc.beta,
                sigma2, tuple(op.kind for op in sc.ops),
                len(sc.weights), sc.theta_star is None, sc.constants is None,
                sc.eval_batches is None)

    first = shared(scs[0])
    for sc in scs[1:]:
        if shared(sc) != first or not all(
                np.array_equal(w.entries, w0.entries)
                for w, w0 in zip(sc.weights, scs[0].weights)):
            raise CoreError(
                "stacked scenarios must share weight frames, step, horizon, "
                "stride, beta, sigma2, dims and operator kinds, and "
                "agree in which of theta*, constants and eval batches they "
                "have")


def _block_drift(ops, sources, rngs):
    """(block_drift, compiled): block_drift(T) draws the next T
    observations of every one of the S*N agents of a stack from its source
    and stream (agents in C order) and returns the block's
    advance(theta, iterates, rows_mix, mixers, eps), which runs its T =
    len(eps) steps (see operators.step_loop): at step t, mixers[t](prev,
    rows_mix[t]) writes W Theta into row t of iterates, a (>= T, S*N, d)
    array, and the drift adds eps[t] times prev's drift rows, read as
    (S*N, d), to it; prev is theta, the pre-block iterate in the mixers'
    shape, at t = 0 and row t - 1 after. theta, iterates and the 1-D eps
    are C-contiguous float64.
    Over sources of one class with a block_sampler, built-in
    quadratic-gradient operators, or built-in Q-learning ones with one
    features and gamma, share one batched advance. The sampler and the
    operators' builder, with its _BLOCK-row buffers, are then made once,
    here, for the whole run, and a block is one draw whose samples the
    builder's advance steps through; the quadratic builder's buffers are
    the ones the sampler draws into. Each builder gets operators.STEP, the
    compiled step where it loaded, read here at every run, and compiled is
    the builder's report of whether its advance is one call of it. Anything
    else is sampled and evaluated agent by agent, and makes no builder; its
    advance is step_loop over a per-agent step. That step never hands an
    operator's eval a non-finite iterate: an agent whose row of Theta has a
    non-finite entry gets a NaN drift row instead, and its run aborts at
    that step all the same."""
    source_class = type(sources[0])
    if (hasattr(source_class, "block_sampler")
            and all(type(src) is source_class for src in sources)):
        kinds = {op.kind for op in ops}
        if kinds == {"quadratic-gradient"}:
            out, advance, compiled = quadratic_block_drift(
                ops[0].dim, len(ops), _BLOCK, operators.STEP)
            draw = source_class.block_sampler(sources, rngs)

            def sampled(T):
                draw(T, out)
                return advance

            return sampled, compiled
        if kinds == {"qlearning"}:
            shared = {(op.params["features"], op.params["gamma"])
                      for op in ops}
            if len(shared) == 1:
                block, compiled = qlearning_block_drift(
                    *shared.pop(), len(ops), _BLOCK, operators.STEP)
                draw = source_class.block_sampler(sources, rngs)

                def sampled(T):
                    return block(*draw(T))

                return sampled, compiled
    ops_eval = [op.eval for op in ops]

    def per_agent(T):
        obs = [[src.sample(rng) for _ in range(T)]
               for src, rng in zip(sources, rngs)]

        def step(Theta, t, eps, out):
            drift = np.empty_like(Theta)
            for i, ok in enumerate(np.isfinite(Theta).all(axis=1).tolist()):
                drift[i] = ops_eval[i](obs[i][t], Theta[i]) if ok else math.nan
            out += eps * drift

        return functools.partial(step_loop, step)

    return per_agent, False
