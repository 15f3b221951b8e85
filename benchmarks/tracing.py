"""Outside-in timing of dcsa's layers.

A Tracer replaces public dcsa functions with wrappers that count calls and
add up busy time per layer, and puts the originals back when it exits. It
keeps per-layer totals rather than one span per call, because the per-agent
layers are called hundreds of thousands of times in one run.

Every wrapped call also books its duration against the wrapped call that
encloses it, so a layer's self time is its busy time minus that of its
timed children, and `children` keeps the split per (parent, child) pair.
"""

import dataclasses
from collections import defaultdict
from time import perf_counter

import dcsa.cli
import dcsa.config
import dcsa.core
import dcsa.experiments
import dcsa.graphs
import dcsa.io
import dcsa.rng
import dcsa.sources

import calibration

# Layer name -> every module binding through which the workloads reach it.
# Modules import these names with `from .x import y`, so each binding is
# patched separately.
ALWAYS = {
    "config.parse_config": [(dcsa.cli, "parse_config"),
                            (dcsa.config, "parse_config")],
    "experiments.build_scenario": [(dcsa.cli, "build_scenario"),
                                   (dcsa.experiments, "build_scenario")],
    "core.run": [(dcsa.cli, "run"), (dcsa.core, "run")],
}
LAYERS = {
    "core.td_error": [(dcsa.core, "td_error")],
    "core.lemma3_residual": [(dcsa.core, "lemma3_residual")],
    "core.lemma4_residual": [(dcsa.core, "lemma4_residual")],
    "core.fit_c_tau": [(dcsa.experiments, "fit_c_tau")],
    "experiments.fit_rate": [(dcsa.experiments, "fit_rate")],
    "experiments.greedy_policy_rollout": [
        (dcsa.cli, "greedy_policy_rollout"),
        (dcsa.experiments, "greedy_policy_rollout")],
    "sources.load_maze": [(dcsa.cli, "load_maze"),
                          (dcsa.experiments, "load_maze"),
                          (dcsa.sources, "load_maze")],
    "operators.system_id_constants": [
        (dcsa.cli, "system_id_constants"),
        (dcsa.experiments, "system_id_constants")],
    "graphs.lazy_metropolis": [(dcsa.experiments, "lazy_metropolis")],
    "graphs.validate_graph": [(dcsa.experiments, "validate_graph"),
                              (dcsa.graphs, "validate_graph")],
    "rng.derive_stream": [(dcsa.experiments, "derive_stream"),
                          (dcsa.rng, "derive_stream")],
    "io.emit_metrics": [(dcsa.cli, "emit_metrics"), (dcsa.io, "emit_metrics")],
    "io.read_metrics": [(dcsa.cli, "read_metrics"), (dcsa.io, "read_metrics")],
    "io.emit_summary": [(dcsa.cli, "emit_summary"), (dcsa.io, "emit_summary")],
}


class Tracer:
    """Context manager that times dcsa's layers from outside.

    With layers=False only parse_config, build_scenario and run are wrapped:
    they are called a few times per job and give the end-to-end split into
    set-up and simulation, and every record of a run is time-stamped around
    a calibration. With layers=True every entry of LAYERS is wrapped too,
    and so are each built scenario's sources, operators and drift.
    """

    def __init__(self, layers=False):
        self.layers = layers
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.children = defaultdict(float)
        # Blocks of a run: the seconds from one record to the next, their
        # iterations and, with layers=False, the mean of the calibrations
        # run at the two records; calibration_s is the time those took.
        self.blocks = []
        self.block_iters = []
        self.block_cals = []
        self.calibration_s = 0.0
        self._stamps = None
        self._stack = []
        self._undo = []

    def timed(self, name, fn):
        calls, busy, self_time = self.calls, self.busy, self.self_time
        children, stack = self.children, self._stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                busy[name] += dt
                self_time[name] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    children[(parent[0], name)] += dt

        return wrapper

    def _patch(self, module, attr, name):
        original = getattr(module, attr)
        timed = self.timed(name, original)
        if name == "core.run":
            def run(scenario, *args, **kwargs):
                self._stamps = []
                try:
                    return timed(scenario, *args, **kwargs)
                finally:
                    self._add_blocks(self._stamps, scenario)
                    self._stamps = None
            setattr(module, attr, run)
        elif self.layers and name == "experiments.build_scenario":
            def build(*args, **kwargs):
                return self._instrument(timed(*args, **kwargs))
            setattr(module, attr, build)
        else:
            setattr(module, attr, timed)
        self._undo.append(lambda: setattr(module, attr, original))

    def _stamp(self, lyapunov):
        """core.run computes one lyapunov value per record: time-stamp it,
        around a calibration when timing end to end."""
        def stamped(*args, **kwargs):
            if self._stamps is not None:
                t_in = perf_counter()
                cal = 0.0 if self.layers else calibration.calibrate()
                self._stamps.append((t_in, perf_counter(), cal))
            return lyapunov(*args, **kwargs)
        return stamped

    def _add_blocks(self, stamps, sc):
        """Turn one run's record stamps into blocks of `stride` iterations;
        the block that ends at the horizon may be shorter."""
        self.calibration_s += sum(t_out - t_in for t_in, t_out, _ in stamps)
        ks = list(range(0, sc.horizon, sc.stride)) + [sc.horizon]
        if len(stamps) != len(ks):   # aborted, or records logged otherwise
            return
        for j in range(1, len(ks)):
            self.blocks.append(stamps[j][0] - stamps[j - 1][1])
            self.block_iters.append(ks[j] - ks[j - 1])
            self.block_cals.append((stamps[j][2] + stamps[j - 1][2]) / 2)

    def _instrument(self, sc):
        """Wrap one scenario's per-agent sample and eval and its drift."""
        for src in sc.sources:
            src.sample = self.timed("sources.sample", src.sample)
            self._undo.append(lambda s=src: delattr(s, "sample"))
        ops = sc.ops
        sc.ops = [dataclasses.replace(op, eval=self.timed("operators.eval",
                                                          op.eval))
                  for op in ops]
        self._undo.append(lambda: setattr(sc, "ops", ops))
        if sc.vector_drift is not None:
            drift = sc.vector_drift
            sc.vector_drift = self.timed("experiments.vector_drift", drift)
            self._undo.append(lambda: setattr(sc, "vector_drift", drift))
        return sc

    def __enter__(self):
        targets = dict(ALWAYS, **LAYERS) if self.layers else ALWAYS
        for name, bindings in targets.items():
            for module, attr in bindings:
                self._patch(module, attr, name)
        lyapunov = dcsa.core.lyapunov
        dcsa.core.lyapunov = self._stamp(lyapunov)
        self._undo.append(lambda: setattr(dcsa.core, "lyapunov", lyapunov))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def child_time(self, parent):
        """Busy time of the timed calls made directly inside `parent`."""
        return sum(t for (p, _), t in self.children.items() if p == parent)
