"""Scenario builders for the two reference experiments (autoregressive
system identification and multi-task GridWorld Q-learning), plus rate
fitting and policy rollout diagnostics."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, frame_specs, maze_paths, parse_topology
from .core import (CoreError, RateConstants, Scenario, StepSchedule, fit_c_tau)
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

    A_i is subdiagonal with entries uniform in [0.8, 0.99]; the regression
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
        A = np.zeros((d, d))
        for m in range(1, d):
            A[m, m - 1] = rng.uniform(0.8, 0.99)
        sources.append(ARSource(A=A, u=u, noise_clip=cfg.noise_clip))
    ops = [quadratic_grad_operator(d) for _ in range(n)]
    frames, sigma2 = _topology_for(cfg, n)
    step = StepSchedule(kind=cfg.step_kind, eps=cfg.step_eps)
    rho = 0.0  # every A is nilpotent: X(1) forgets its start after d steps
    constants = None
    if cfg.compute_constants:
        oc = system_id_constants(sources)
        # c_tau is fitted over k <= 2 at least, so that a horizon of 0 or 1
        # still gets the constants of the first steps
        span = max(cfg.horizon, 2)
        try:
            c_tau = fit_c_tau(step, cfg.beta, rho, span)
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
        beta=cfg.beta, rho=rho, constants=constants, sigma2=sigma2)


def build_gridworld_scenario(cfg: ScenarioConfig, mazes=None) -> Scenario:
    """Multi-task Q-learning over GridWorld mazes on a communication graph.

    One maze per agent (mazes must share grid dimensions so the tabular
    one-hot features live in one space).  theta* is unknown; the TD error
    over a frozen eval batch is the convergence surrogate.
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
        beta=cfg.beta, rho=0.0, sigma2=sigma2, eval_batches=eval_batches)


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


def fit_rate_series(ks, values) -> RateFit:
    """Least-squares slope of log(value) against log(k)."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = ks >= 1
    ks, values = ks[keep], values[keep]
    if len(ks) < 2:
        raise CoreError("rate fit needs at least two points with k >= 1")
    if np.any(~np.isfinite(values)) or np.any(values <= 0):
        raise CoreError("rate fit requires positive finite metric values")
    x = np.log(ks)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), r2=r2, n_points=len(ks))


def _metric_series(traj, metric):
    if metric == "R":
        vals = traj.R_hist
        return np.arange(len(vals)), vals
    if metric == "S":
        vals = traj.S_hist
        return np.arange(len(vals)), vals
    if metric == "td":
        ks = traj.column("k")
        return ks, traj.column("td_error")
    raise CoreError(f"unknown metric {metric!r} (use R, S, or td)")


def fit_rate(traj, metric, window) -> RateFit:
    """Log-log slope of a trajectory metric over window = (k_min, k_max).

    The window must span at least one decade of k.
    """
    k_min, k_max = window
    if k_max < 10 * k_min or k_min < 1:
        raise CoreError("fit window must span at least one decade with k_min >= 1")
    ks, vals = _metric_series(traj, metric)
    keep = (ks >= k_min) & (ks <= k_max)
    return fit_rate_series(ks[keep], vals[keep])


def plateau_level(traj, metric, tail_fraction) -> float:
    """Median metric over the trailing tail_fraction of iterations."""
    if not (0.0 < tail_fraction <= 1.0):
        raise CoreError("tail_fraction must lie in (0,1]")
    ks, vals = _metric_series(traj, metric)
    start = int(math.floor(len(ks) * (1.0 - tail_fraction)))
    tail = vals[start:]
    tail = tail[np.isfinite(tail)]
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
    from .core import run_ensemble

    scenarios = [build_scenario(dataclasses.replace(cfg, seed=int(seed)))
                 for seed in seeds]
    return run_ensemble(scenarios, collect_theta_bar=collect_theta_bar)
