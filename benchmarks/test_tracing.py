"""The benchmark's tracing must not change what it measures.

Each workload runs at a short horizon once as an end-to-end job (only the
end-to-end wrappers, calibrating at every record) and once with every layer
wrapped; the trajectories must be identical and every patched binding must
be restored afterwards.
"""

import json
import os

import pytest

import calibration
import dcsa.core
import run
import tracing
import worker
import workloads

SHORT_HORIZON = {"sysid_cli": 2000, "gridworld_td": 2000,
                 "lemma4_ensemble": 300}


def _bindings():
    targets = dict(tracing.ALWAYS, **tracing.LAYERS)
    found = {(m.__name__, a): getattr(m, a)
             for bindings in targets.values() for m, a in bindings}
    found[("dcsa.core", "lyapunov")] = dcsa.core.lyapunov
    return found


def _run(name, tmp_path, layers):
    outdir = tmp_path / ("traced" if layers else "plain")
    outdir.mkdir()
    with tracing.Tracer(layers=layers) as tracer:
        result = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(outdir),
                                           tracer, SHORT_HORIZON[name])
    return tracer, result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced(name, tmp_path):
    before = _bindings()
    plain_tracer, plain = _run(name, tmp_path, layers=False)
    tracer, traced = _run(name, tmp_path, layers=True)
    assert _bindings() == before
    assert traced.digest == plain.digest
    assert traced.observed == plain.observed
    assert traced.iterations == plain.iterations > 0
    layers = worker.layer_counters(tracer, traced)
    assert run.run_split_ok(layers)
    assert layers["core.run_children_s"] > 0.0
    # One block per stride, each with its calibration, inside core.run.
    assert sum(plain_tracer.block_iters) == plain.iterations
    assert all(cal > 0.0 for cal in plain_tracer.block_cals)
    assert (sum(plain_tracer.blocks) + plain_tracer.calibration_s
            <= plain_tracer.busy["core.run"])


def test_calibrated_imports_split_time_at_lookups():
    clock = calibration.CalibratedImports()
    ref = calibration.REFERENCE_S
    clock.stamps = [(1.0, 1.5, ref), (2.0, 2.5, 2 * ref)]
    measured, normalized = clock.seconds(0.0, 3.0)
    assert measured == pytest.approx(1.0 + 0.5 + 0.5)
    # Segments at full, mean (1.5x) and half speed.
    assert normalized == pytest.approx(1.0 + 0.5 / 1.5 + 0.5 / 2)


def test_benchmark_json_lists_the_reported_metrics(tmp_path):
    with open(os.path.join(os.path.dirname(workloads.BENCH_DIR),
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    tracer, result = _run("lemma4_ensemble", tmp_path, layers=True)
    reported = list(worker.layer_counters(tracer, result))
    assert ([m["name"] for m in spec["per_layer"]]
            == reported + ["trace_overhead_frac"])
