"""Run one benchmark workload in this fresh interpreter.

    python3 benchmarks/worker.py WORKLOAD SEED TRACE OUTDIR

Times `import dcsa.cli`, runs the workload once with a Tracer (per-layer
wrappers only when TRACE is 1), and prints one JSON line with the timings,
the correctness gates, the values compared with reference.json and, when
traced, the per-layer counters. The timings include the time of every
block of `stride` iterations; an untraced job then repeats its set-up,
each time right after a calibration (calibration.py), for more samples.
run.py starts this script; it is not meant to be run by hand.
"""

import json
import os
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def layer_counters(tracer, result):
    """Per-layer metrics of one traced job, keyed by BENCHMARK.json name."""
    out = {"core.run_s": tracer.busy["core.run"],
           "core.run_self_s": tracer.self_time["core.run"],
           "core.run_children_s": tracer.child_time("core.run"),
           "core.records": result.records, "io.csv_rows": result.csv_rows}
    for name in ("core.td_error", "core.lemma3_residual",
                 "experiments.vector_drift", "sources.sample",
                 "operators.eval", "rng.derive_stream"):
        out[name + "_calls"] = tracer.calls[name]
    for name in ("core.td_error", "core.lemma3_residual",
                 "core.lemma4_residual", "core.fit_c_tau",
                 "experiments.vector_drift", "experiments.build_scenario",
                 "experiments.fit_rate", "experiments.greedy_policy_rollout",
                 "sources.sample", "sources.load_maze", "operators.eval",
                 "operators.system_id_constants", "graphs.lazy_metropolis",
                 "graphs.validate_graph", "rng.derive_stream",
                 "config.parse_config", "io.emit_metrics", "io.read_metrics",
                 "io.emit_summary"):
        out[name + "_s"] = tracer.busy[name]
    return out


def main(argv):
    workload, seed, trace, outdir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import dcsa.cli
    t1 = perf_counter()
    if not dcsa.cli.__file__.startswith(SRC + os.sep):
        print(f"dcsa imported from {dcsa.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    import tracing
    import workloads

    report = {"import_s": t1 - t0, "versions": {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: v for k, v in numpy.show_config(mode="dicts")[
            "Build Dependencies"]["blas"].items()
            if k in ("name", "version", "openblas configuration")}}}
    tracer = tracing.Tracer(layers=trace)
    try:
        with tracer:
            result = workloads.WORKLOADS[workload](seed, outdir, tracer)
    except Exception:
        traceback.print_exc()
        report["error"] = traceback.format_exc(limit=1)
        report["seed_runs"] = workloads.SEED_RUNS[workload]
    else:
        report["result"] = result.__dict__
        report["blocks"] = tracer.blocks
        report["block_iters"] = tracer.block_iters
        report["block_cals"] = tracer.block_cals
        report["calibration_s"] = tracer.calibration_s
        if seed == workloads.DEFAULT_SEED:
            report["reference_mismatches"] = workloads.reference_mismatches(
                workload, result.observed)
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if "result" in report and trace:
        report["layers"] = layer_counters(tracer, result)
    elif "result" in report:
        # Not part of the job: run.py takes repeat_s and calibration_s off
        # its wall time.
        report["setup_calls"] = {
            name: tracer.calls[name]
            for name in ("config.parse_config", "experiments.build_scenario")}
        t0 = perf_counter()
        report["setup_samples"] = workloads.repeat_setup(workload, seed)
        report["repeat_s"] = perf_counter() - t0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
