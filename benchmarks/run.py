"""dcsa benchmark: runs the workloads and reports their metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. NAME is sysid_cli, gridworld_td,
lemma4_ensemble, or `all` for the three in turn. Each job runs in a fresh
single-threaded interpreter (benchmarks/worker.py); jobs follow one another
in a closed loop for about S seconds.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
Each untraced job is followed by IMPORT_PROBES import-only interpreters.
Every timing is taken next to a calibration and scaled to the speed of an
undisturbed host (calibration.py, e2e_metrics), because the shared host
this was built on runs up to 2x slower for seconds to minutes at a time;
the plain medians are printed too. With --trace 1 it alternates untraced
and traced jobs and reports the per-layer metrics of the traced ones, as
measured, plus the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import calibration

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_PACKAGE = os.path.join(ROOT, "src", "dcsa")
WORKLOADS = ("sysid_cli", "gridworld_td", "lemma4_ensemble")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
DEADLINE_S = 165.0     # every run must end within 180 s
IMPORT_PROBES = 2      # import-only interpreters after each untraced job
E2E_UNITS = {"import_s": "s", "setup_s": "s", "us_per_iter": "us",
             "wall_s": "s", "peak_rss_mb": "MB"}


def child_env():
    """Single-threaded BLAS, dcsa only from this checkout, and byte code
    cached as in an installed package."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment():
    """Where and on what the run was measured."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "blas_threads": {var: "1" for var in THREAD_VARS}}


def run_job(workload, seed, trace, timeout):
    """One worker process; returns (wall seconds, report dict or None)."""
    if timeout < 5.0:
        print(f"{workload}: no time left for another job", file=sys.stderr)
        return 0.0, None
    outdir = tempfile.mkdtemp(prefix=".job-", dir=BENCH_DIR)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
           str(seed), "1" if trace else "0", outdir]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"{workload}: job timed out after {timeout:.0f} s",
              file=sys.stderr)
        return perf_counter() - t0, None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    wall = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return wall, None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if "error" in report:
        sys.stderr.write(proc.stderr)
    return wall, report


def job_ok(report):
    """True when the job passed every gate and matched the reference."""
    return (report["result"]["failed"] == 0
            and not report.get("reference_mismatches"))


def import_probe(timeout):
    """One fresh interpreter that imports dcsa.cli with a calibration at
    every module lookup. Returns (measured, normalized) seconds or None."""
    code = ("import sys; from time import perf_counter; "
            "sys.path[:0] = ['src', 'benchmarks']; import calibration; "
            "clock = calibration.CalibratedImports(); "
            "sys.meta_path.insert(0, clock); t0 = perf_counter(); "
            "import dcsa.cli; t1 = perf_counter(); "
            "print(*clock.seconds(t0, t1))")
    try:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    measured, normalized = proc.stdout.split()
    return float(measured), float(normalized)


def run_workload(workload, seed, seconds, trace, started):
    """Closed loop of jobs for about `seconds`, alternating untraced and
    traced jobs when tracing; untraced jobs are each followed by
    IMPORT_PROBES import-only interpreters. A new round starts only while
    at least half of it fits in `seconds`. Returns (correct, attempted,
    failed, metrics, versions); a job that crashes or times out ends the
    loop."""
    plan = (False, True) if trace else (False,)
    jobs = {False: [], True: []}
    imports = []
    attempted = failed = 0
    t0 = perf_counter()
    round_s = 0.0
    while not jobs[plan[-1]] or perf_counter() - t0 + round_s / 2 < seconds:
        r0 = perf_counter()
        for traced in plan:
            wall, report = run_job(workload, seed, traced,
                                   DEADLINE_S - (perf_counter() - started))
            if report is None or "result" not in report:
                runs = 1 if report is None else report["seed_runs"]
                return (False, attempted + runs, failed + runs, {},
                        {} if report is None else report["versions"])
            res = report["result"]
            attempted += res["seed_runs"]
            failed += res["failed"]
            if report.get("reference_mismatches"):
                print(f"{workload}: differs from reference.json in "
                      f"{report['reference_mismatches']}", file=sys.stderr)
            jobs[traced].append((wall, report))
            if not trace:
                for _ in range(IMPORT_PROBES):
                    probe = import_probe(
                        DEADLINE_S - (perf_counter() - started))
                    if probe is not None:
                        imports.append(probe)
        round_s = perf_counter() - r0
    reports = [r for runs in jobs.values() for _, r in runs]
    # Every job of a run uses the same seed, so all must agree bit for bit.
    correct = (all(job_ok(r) for r in reports)
               and len({r["result"]["digest"] for r in reports}) == 1)
    if trace:
        metrics = layer_metrics(jobs)
        correct &= all(run_split_ok(r["layers"]) for _, r in jobs[True])
    else:
        metrics = e2e_metrics(jobs[False], imports)
        print_raw(workload, jobs[False], imports)
    return correct, attempted, failed, metrics, reports[0]["versions"]


def job_wall(wall, report):
    """A job's wall time without the calibrations and set-up repeats that
    the benchmark adds to untraced jobs."""
    return wall - report["repeat_s"] - report["calibration_s"]


def e2e_metrics(jobs, probes):
    """End-to-end metrics of a run's untraced jobs.

    The shared host slows every process by up to 2x, for milliseconds to
    minutes at a time. So each phase is timed next to a calibration
    (calibration.py) and scaled to the speed of an undisturbed host:

    - import_s: the median over the run's import probes, each the sum of
      its segments between module lookups, scaled by the calibrations at
      their two ends;
    - setup_s: per set-up function, the median over the run's set-up
      repeats, times the number of calls a job makes;
    - us_per_iter: every block of `stride` iterations, scaled by the
      calibrations at its two ends, summed over the run, plus the
      simulation time that no block covers, as measured;
    - wall_s: those three phases plus the median over the jobs of the rest
      of the job's wall time (interpreter start, analysis, output), so
      every part of the job is counted.
    """
    ref = calibration.REFERENCE_S
    results = [r["result"] for _, r in jobs]
    import_s = statistics.median(normalized for _, normalized in probes)

    parse, build = [], []
    for _, report in jobs:
        for parse_s, build_s, cal in report["setup_samples"]:
            parse.append(parse_s * ref / cal)
            build.append(build_s * ref / cal)
    calls = {name: statistics.median(r["setup_calls"][name] for _, r in jobs)
             for name in ("config.parse_config", "experiments.build_scenario")}
    setup_s = (calls["config.parse_config"] * statistics.median(parse)
               + calls["experiments.build_scenario"] * statistics.median(build))

    simulate_s = iterations = 0.0
    for res, (_, rep) in zip(results, jobs):
        uncovered = res["simulate_s"] - rep["calibration_s"] - sum(rep["blocks"])
        simulate_s += uncovered + sum(
            b * ref / cal for b, cal in zip(rep["blocks"], rep["block_cals"]))
        iterations += res["iterations"]
    simulate_s /= len(jobs)

    rest_s = statistics.median(
        wall - rep["repeat_s"] - rep["import_s"] - r["setup_s"]
        - r["simulate_s"] for r, (wall, rep) in zip(results, jobs))
    values = {
        "import_s": import_s,
        "setup_s": setup_s,
        "us_per_iter": 1e6 * simulate_s * len(jobs) / iterations,
        "wall_s": import_s + setup_s + simulate_s + rest_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in jobs),
    }
    return {name: {"value": values[name], "unit": E2E_UNITS[name]}
            for name in E2E_UNITS}


def print_raw(workload, jobs, probes):
    """The plain medians over the run's jobs, not scaled, for comparison."""
    results = [r["result"] for _, r in jobs]
    raw = {
        "import_s": statistics.median([r["import_s"] for _, r in jobs]
                                      + [s for s, _ in probes]),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "us_per_iter": statistics.median(
            1e6 * (res["simulate_s"] - rep["calibration_s"])
            / res["iterations"] for res, (_, rep) in zip(results, jobs)),
        "wall_s": statistics.median(job_wall(w, r) for w, r in jobs),
    }
    print(f"{workload:16s} {len(jobs)} jobs, {len(jobs) + len(probes)} "
          "imports; plain medians:")
    for name, value in raw.items():
        print(f"{workload:16s} {'  ' + name:36s} {value:14.6f} "
              f"{E2E_UNITS[name]}")


def layer_metrics(jobs):
    traced = [r["layers"] for _, r in jobs[True]]
    metrics = {}
    for name in traced[0]:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": statistics.median(t[name] for t in traced),
                         "unit": unit}
    overhead = (statistics.median(w for w, _ in jobs[True])
                / statistics.median(job_wall(w, r) for w, r in jobs[False])
                - 1.0)
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


def run_split_ok(layers):
    """core.run's self time plus its timed children must equal its time."""
    total = layers["core.run_s"]
    parts = layers["core.run_self_s"] + layers["core.run_children_s"]
    return abs(parts - total) <= 1e-9 * max(total, 1.0)


def print_metrics(workload, metrics, attempted, failed):
    for name, m in metrics.items():
        print(f"{workload:16s} {name:36s} {m['value']:14.6f} {m['unit']}")
    print(f"{workload:16s} {'failed_frac':36s} {failed / attempted:14.6f} "
          f"frac ({failed}/{attempted} seed runs)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"no dcsa sources at {SRC_PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    # Compiles the byte code once, so that no job pays for it.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = ['src', "
         "'benchmarks']; import dcsa.cli, tracing, workloads"],
        cwd=ROOT, env=child_env(), check=False)
    if warm.returncode != 0:
        print("importing dcsa failed", file=sys.stderr)
        return 2

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        ok, att, fail, wmetrics, versions = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), started)
        print_metrics(workload, wmetrics, att, fail)
        correct &= ok
        attempted += att
        failed += fail
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in wmetrics.items()})
        env.update(versions)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
