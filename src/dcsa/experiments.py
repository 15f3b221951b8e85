"""Scenario builders for the two reference experiments (autoregressive
system identification and multi-task GridWorld Q-learning), plus rate
fitting and policy rollout diagnostics."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, frame_specs, maze_paths, parse_topology
from .core import (CoreError, RateConstants, Scenario, StepSchedule, fit_c_tau,
                   run_ensemble)
from .graphs import (GraphSchedule, lazy_metropolis, time_varying_eta,
                     validate_graph)
from .operators import (TabularFeatures, qlearning_operator,
                        quadratic_grad_operator, system_id_constants)
from .rng import derive_stream
from .sources import ARSource, MDPSource, Maze, load_maze


class ScenarioError(ValueError):
    pass


def _topology_for(cfg: ScenarioConfig, n_agents):
    """(weight frames, effective sigma2) per the config; a fixed graph is
    one frame."""
    specs = frame_specs(cfg)
    if specs:
        graphs = tuple(parse_topology(f, n_agents) for f in specs)
        schedule = GraphSchedule(frames=graphs, period_B=cfg.period_b)
        frames = tuple(lazy_metropolis(g, require_connected=False) for g in graphs)
        return frames, time_varying_eta(schedule, frames)
    g = parse_topology(cfg.topology, n_agents)
    if not validate_graph(g).connected:
        raise ScenarioError("fixed-graph scenarios require a connected topology")
    w = lazy_metropolis(g)
    return (w,), w.sigma2


def sample_unit_ball(rng, dim):
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g) * rng.random() ** (1.0 / dim)


def build_system_id_scenario(cfg: ScenarioConfig) -> Scenario:
    """Decentralized quadratic regression on clipped-noise AR sources.

    Each A_i's subdiagonal gains are uniform in [0.8, 0.99]; the regression
    target u is shared across agents and drawn uniformly in the unit ball,
    making theta* = u the root of the aggregate mean field.
    """
    if cfg.scenario != "system_id":
        raise ScenarioError(f"expected scenario system_id, got {cfg.scenario}")
    n, d = cfg.n_agents, cfg.dim
    u = sample_unit_ball(derive_stream(cfg.seed, 0, "init"), d)
    sources = []
    for i in range(n):
        rng = derive_stream(cfg.seed, i, "scenario")
        gains = [rng.uniform(0.8, 0.99) for _ in range(d - 1)]
        sources.append(ARSource(gains=gains, u=u, noise_clip=cfg.noise_clip))
    ops = [quadratic_grad_operator(d) for _ in range(n)]
    frames, sigma2 = _topology_for(cfg, n)
    step = StepSchedule(kind=cfg.step_kind, eps=cfg.step_eps)
    constants = None
    if cfg.compute_constants:
        oc = system_id_constants(sources)
        # c_tau is fitted over k <= 2 at least, so that a horizon of 0 or 1
        # still gets the constants of the first steps
        span = max(cfg.horizon, 2)
        try:
            c_tau = fit_c_tau(step, cfg.beta, span)
        except CoreError:
            if span == cfg.horizon:
                raise
            raise CoreError(
                f"horizon {cfg.horizon} is too short to fit c_tau: no k <= "
                f"{span} exceeds tau_k (a horizon below {span} is fitted "
                f"over k <= {span})") from None
        constants = RateConstants.from_problem(
            B=oc.B, L=oc.L, alpha=oc.alpha, sigma2=sigma2, n_agents=n,
            theta_star_norm=float(np.linalg.norm(u)), c_tau=c_tau)
    return Scenario(
        sources=sources, ops=ops, step=step, horizon=cfg.horizon,
        seed=cfg.seed, stride=cfg.stride, weights=frames, theta_star=u,
        beta=cfg.beta, constants=constants, sigma2=sigma2)


def build_gridworld_scenario(cfg: ScenarioConfig, mazes=None) -> Scenario:
    """Multi-task Q-learning over GridWorld mazes on a communication graph.

    One maze per agent (mazes must share grid dimensions so the tabular
    one-hot features live in one space, of the config's dim).  theta* is
    unknown; the TD error over a frozen eval batch is the convergence
    surrogate.
    """
    if cfg.scenario != "gridworld":
        raise ScenarioError(f"expected scenario gridworld, got {cfg.scenario}")
    if mazes is None:
        mazes = [load_maze(p) for p in maze_paths(cfg)]
    if not mazes:
        raise ScenarioError("gridworld scenario needs at least one maze")
    n = len(mazes)
    if cfg.n_agents != n:
        raise ScenarioError(f"config N={cfg.n_agents} but {n} mazes supplied")
    shapes = {(m.width, m.height) for m in mazes}
    if len(shapes) != 1:
        raise ScenarioError("all mazes must share the same grid size")
    feats = TabularFeatures(mazes[0].n_cells, mazes[0].n_actions)
    if cfg.dim != feats.dim:
        raise ScenarioError(
            f"config dim={cfg.dim} but the mazes' {feats.n_states} cells x "
            f"{feats.n_actions} actions make dim={feats.dim}")
    sources = [MDPSource(maze=m) for m in mazes]
    ops = [qlearning_operator(feats, cfg.gamma) for _ in range(n)]
    frames, sigma2 = _topology_for(cfg, n)
    # each agent's batch is an (m, 4) array of (s, a, r, s') rows, float
    # because r is
    eval_batches = []
    for i, m in enumerate(mazes):
        probe = MDPSource(maze=m)
        rng = derive_stream(cfg.seed, i, "eval")
        eval_batches.append(np.column_stack(
            probe.sample_block(rng, cfg.eval_batch_size)))
    step = StepSchedule(kind=cfg.step_kind, eps=cfg.step_eps)
    return Scenario(
        sources=sources, ops=ops, step=step, horizon=cfg.horizon,
        seed=cfg.seed, stride=cfg.stride, weights=frames, theta_star=None,
        beta=cfg.beta, sigma2=sigma2, eval_batches=eval_batches)


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    if cfg.scenario == "system_id":
        return build_system_id_scenario(cfg)
    return build_gridworld_scenario(cfg)


# ---------------------------------------------------------------------------
# rate diagnostics


@dataclass(frozen=True)
class RateFit:
    slope: float
    r2: float
    n_points: int


# points per block of a rate fit: its two log buffers take 64 KB each
_FIT_BLOCK = 8192


def fit_rate_series(ks, values) -> RateFit:
    """Least-squares slope of log(value) against log(k) over the points with
    k >= 1, in closed form: with x = log k and y = log value each centered,
    slope = sum(xy) / sum(xx) and r2 = slope sum(xy) / sum(yy), that is
    1 - sum((y - slope x)^2) / sum(yy)."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = ks >= 1
    if not keep.all():
        ks, values = ks[keep], values[keep]
    if len(ks) < 2:
        raise CoreError("rate fit needs at least two points with k >= 1")
    return _log_log_fit(values, ks.min(), ks.max(),
                        lambda lo, x: np.log(ks[lo:lo + len(x)], out=x))


def _log_log_fit(values, k_min, k_max, log_ks):
    """fit_rate_series's line through at least two points (k, values) with
    1 <= k_min <= k <= k_max; log_ks(lo, x) writes log k of the points lo,
    lo + 1, ... into the buffer x and returns it.

    The centered sums are taken block by block in two reused buffers, each
    block centered on its own mean and merged into the running sums by the
    pairwise update of Chan, Golub & LeVeque, so a fit allocates nothing of
    the series' length."""
    if not np.isfinite(values).all() or (values <= 0).any():
        raise CoreError("rate fit requires positive finite metric values")
    # k's so close that their logs are equal leave no line either
    log_lo, log_hi = np.log(k_min), np.log(k_max)
    if log_lo == log_hi:
        raise CoreError("rate fit needs at least two distinct k")
    if not np.isfinite(log_hi):
        raise CoreError("rate fit requires finite k")
    x_buf = np.empty(min(_FIT_BLOCK, len(values)))
    y_buf = np.empty_like(x_buf)
    n, mean_x, mean_y, sxx, sxy, syy = 0, 0.0, 0.0, 0.0, 0.0, 0.0
    for lo in range(0, len(values), _FIT_BLOCK):
        m = min(_FIT_BLOCK, len(values) - lo)
        x = log_ks(lo, x_buf[:m])
        y = np.log(values[lo:lo + m], out=y_buf[:m])
        block_x, block_y = x.mean(), y.mean()
        x -= block_x
        y -= block_y
        dx, dy = block_x - mean_x, block_y - mean_y
        w = n * m / (n + m)
        sxx += float(x @ x) + dx * dx * w
        sxy += float(x @ y) + dx * dy * w
        syy += float(y @ y) + dy * dy * w
        n += m
        mean_x += dx * m / n
        mean_y += dy * m / n
    slope = sxy / sxx
    # slope * sxy = sxy^2 / sxx <= syy, but may round a few ulps above it
    r2 = 1.0 if syy == 0 else min(1.0, slope * sxy / syy)
    return RateFit(slope=float(slope), r2=float(r2), n_points=n)


def _metric_values(traj, metric):
    """R and S for every k (the history index), td at the logged records."""
    if metric == "R":
        return traj.R_hist
    if metric == "S":
        return traj.S_hist
    if metric == "td":
        return traj.column("td_error")
    raise CoreError(f"unknown metric {metric!r} (use R, S, or td)")


def fit_rate(traj, metric, window) -> RateFit:
    """Log-log slope of a trajectory metric over window = (k_min, k_max).

    The window must span at least one decade of k. R and S are fitted on a
    view of their history over the window, with each block's log k filled
    from the window's integer bounds.
    """
    k_min, k_max = window
    if k_max < 10 * k_min or k_min < 1:
        raise CoreError("fit window must span at least one decade with k_min >= 1")
    vals = _metric_values(traj, metric)
    if metric == "td":
        ks = traj.column("k")
        keep = (ks >= k_min) & (ks <= k_max)
        return fit_rate_series(ks[keep], vals[keep])
    lo = math.ceil(k_min)
    vals = vals[lo:int(min(k_max, len(vals))) + 1]
    if len(vals) < 2:
        raise CoreError("rate fit needs at least two points with k >= 1")

    def log_ks(i, x):   # the block's k from lo + i on, exact in float64
        return np.log(np.arange(lo + i, lo + i + len(x), dtype=float), out=x)

    return _log_log_fit(vals, float(lo), float(lo + len(vals) - 1), log_ks)


def plateau_level(traj, metric, tail_fraction) -> float:
    """Median metric over the finite values of the trailing tail_fraction
    of iterations."""
    if not (0.0 < tail_fraction <= 1.0):
        raise CoreError("tail_fraction must lie in (0,1]")
    vals = _metric_values(traj, metric)
    tail = vals[int(math.floor(len(vals) * (1.0 - tail_fraction))):]
    finite = np.isfinite(tail)
    if not finite.all():
        # a copy only when there is a value to drop: np.median copies the
        # tail again to partition it
        tail = tail[finite]
    if len(tail) < 10:
        raise CoreError("horizon too short for a plateau estimate")
    return float(np.median(tail))


# ---------------------------------------------------------------------------
# policy evaluation


@dataclass(frozen=True)
class RolloutResult:
    reached: bool
    path: tuple


def greedy_policy_rollout(theta, maze: Maze, max_steps: int) -> RolloutResult:
    """Follow argmax_a Q(s,a) from the start (ties -> smallest action index)
    until a goal is reached or max_steps elapse."""
    if max_steps < 0:
        raise ScenarioError(f"max_steps must be >= 0, got {max_steps}")
    feats = TabularFeatures(maze.n_cells, maze.n_actions)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (feats.dim,):
        raise ScenarioError(f"theta has shape {theta.shape}; the maze needs "
                            f"{feats.dim} entries")
    s = maze.start
    path = [s]
    for _ in range(max_steps):
        a = int(np.argmax(feats.q_values(theta, s)))
        s, _ = maze.move(s, a)
        path.append(s)
        if s in maze.goals:
            return RolloutResult(reached=True, path=tuple(path))
    return RolloutResult(reached=False, path=tuple(path))


def run_seed_ensemble(cfg: ScenarioConfig, seeds, collect_theta_bar=False):
    """Independent runs of the configured scenario, one per seed, in seed
    order (aggregation is order-fixed by seed index): every seed is built
    on its own and all are stepped together by one run_ensemble call."""
    scenarios = [build_scenario(dataclasses.replace(cfg, seed=int(seed)))
                 for seed in seeds]
    return run_ensemble(scenarios, collect_theta_bar=collect_theta_bar)
