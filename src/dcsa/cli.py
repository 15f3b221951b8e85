"""Command-line entry points: run, check, fit, rollout."""

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
from time import perf_counter

import numpy as np

from . import operators
from .config import ConfigError, config_to_text, parse_config, maze_paths
from .core import CoreError, admissible_step_check, run
from .experiments import (ScenarioError, build_scenario, fit_rate_series,
                          greedy_policy_rollout, plateau_level)
from .graphs import GraphError
from .io import (FormatError, clean_json, emit_metrics, emit_summary,
                 read_metrics)
from .operators import OperatorError, system_id_constants
from .sources import SourceError, load_maze

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

_VALIDATION_ERRORS = (ConfigError, ScenarioError, GraphError, SourceError,
                      OperatorError, CoreError, FormatError, OSError)


def _load_config(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "stride", None) is not None:
        cfg.stride = args.stride
    return cfg


def _admissibility(cfg, scenario):
    if scenario.constants is None:
        return {"checked": False,
                "note": "rate constants unavailable (alpha unknown or "
                        "compute_constants=false)"}
    report = admissible_step_check(
        scenario.constants, scenario.step, scenario.n_agents, scenario.sigma2,
        scenario.beta, scenario.rho, horizon=min(cfg.horizon, 10_000))
    return {"checked": True, "passed": report.passed, "margins": report.margins}


def cmd_run(args):
    cfg = _load_config(args)
    scenario = build_scenario(cfg)
    os.makedirs(args.out, exist_ok=True)
    t0 = perf_counter()
    traj = run(scenario)
    wall_s = perf_counter() - t0
    emit_metrics(traj, os.path.join(args.out, "metrics.csv"))
    np.save(os.path.join(args.out, "theta_final.npy"), traj.theta_final)

    slope = r2 = plateau = math.nan
    if not traj.aborted and cfg.horizon >= 100:
        window_lo = max(1, cfg.horizon // 100)
        metric = "td" if cfg.scenario == "gridworld" else "R"
        try:
            fit = _fit_traj(traj, metric, window_lo, cfg.horizon)
            slope, r2 = fit.slope, fit.r2
        except CoreError:
            pass
        if cfg.step_kind == "constant":
            try:
                plateau = plateau_level(traj, metric, 0.25)
            except CoreError:
                pass
    solved = None
    if cfg.scenario == "gridworld" and not traj.aborted:
        theta_bar = traj.theta_final.mean(axis=0)
        solved = sum(greedy_policy_rollout(theta_bar, src.maze,
                                           4 * src.maze.n_cells).reached
                     for src in scenario.sources)
    emit_summary({
        "scenario": cfg.scenario, "seed": cfg.seed, "slope": slope, "r2": r2,
        "plateau": plateau, "solved_mazes": solved,
        "admissibility": _admissibility(cfg, scenario),
        "aborted": traj.aborted, "abort_reason": traj.abort_reason,
        # timings of run() alone; an aborted run has no rate over its horizon
        "wall_s": wall_s,
        "iters_per_s": None if traj.aborted else cfg.horizon / wall_s,
        **{f"{phase}_s": secs for phase, secs in traj.phase_s.items()},
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "compiled_step": operators.STEP is not None,
        "config": config_to_text(cfg),
    }, os.path.join(args.out, "summary.json"))
    if traj.aborted:
        print(f"run aborted: {traj.abort_reason}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"run complete: {len(traj.records)} records -> {args.out}")
    return EXIT_OK


def _fit_traj(traj, metric, k_min, k_max):
    from .experiments import fit_rate
    return fit_rate(traj, metric, (k_min, k_max))


def cmd_check(args):
    cfg = _load_config(args)
    scenario = build_scenario(dataclasses.replace(cfg, compute_constants=True))
    report = {
        "scenario": cfg.scenario,
        "n_agents": scenario.n_agents,
        "dim": scenario.dim,
        "sigma2": scenario.sigma2,
        "rho": scenario.rho,
        "beta": scenario.beta,
    }
    if cfg.scenario == "system_id":
        oc = system_id_constants(scenario.sources)
        report["constants"] = {"B": oc.B, "L": oc.L, "alpha": oc.alpha}
    report["admissibility"] = _admissibility(cfg, scenario)
    report = clean_json(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        emit_summary(report, os.path.join(args.out, "check.json"))
    return EXIT_OK


def cmd_fit(args):
    cols = read_metrics(args.csv)
    ks = cols["k"]
    name = {"R": "R", "S": "S", "td": "td_error"}.get(args.metric)
    if name is None:
        raise CoreError(f"unknown metric {args.metric!r} (use R, S, or td)")
    vals = cols[name]
    keep = (ks >= args.kmin) & (ks <= args.kmax) & np.isfinite(vals)
    fit = fit_rate_series(ks[keep], vals[keep])
    print(json.dumps({"metric": args.metric, "slope": fit.slope,
                      "r2": fit.r2, "n_points": fit.n_points}))
    return EXIT_OK


def cmd_rollout(args):
    cfg = _load_config(args)
    paths = maze_paths(cfg)
    if not paths:
        raise ConfigError("rollout needs a config that names maze_files")
    try:
        theta = np.asarray(np.load(args.theta), dtype=float)
    except (ValueError, TypeError, EOFError) as exc:
        raise FormatError(f"cannot read theta from {args.theta}: {exc}") from exc
    if theta.ndim == 2:
        if len(theta) == 0:
            raise FormatError(f"theta in {args.theta} has no rows")
        theta = theta.mean(axis=0)
    results = []
    for path in paths:
        maze = load_maze(path)
        res = greedy_policy_rollout(theta, maze, args.max_steps)
        results.append({"maze": path, "reached": res.reached,
                        "steps": len(res.path) - 1})
    print(json.dumps(results, indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcsa", description="Decentralized stochastic approximation "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_run = sub.add_parser("run", help="execute a scenario")
    common(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--stride", type=int, default=None, help="log stride")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="admissibility and assumption probes")
    common(p_check)
    p_check.add_argument("--out", default=None, help="optional output directory")
    p_check.set_defaults(func=cmd_check)

    p_fit = sub.add_parser("fit", help="rate fit on an existing metrics CSV")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--metric", default="R", help="R, S, or td")
    p_fit.add_argument("--kmin", type=int, default=1)
    p_fit.add_argument("--kmax", type=int, default=10**9)
    p_fit.set_defaults(func=cmd_fit)

    p_roll = sub.add_parser("rollout", help="greedy policy evaluation")
    common(p_roll)
    p_roll.add_argument("--theta", required=True, help="theta .npy file")
    p_roll.add_argument("--max-steps", type=int, default=100)
    p_roll.set_defaults(func=cmd_rollout)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
