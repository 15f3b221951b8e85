"""Golden trajectories: every run below must give the trajectory recorded
in golden.json.

The file holds, per case, SHA-256 digests of R_hist, S_hist, theta_final,
theta_bar_hist, the records and the least lemma-3 slack over all of the
case's runs, plus a sample of their values (R and S every 200 steps,
theta_final, the TD-error column and the least slack) and the abort
reasons. The digests are compared when numpy's version and OpenBLAS's
runtime core match the recorded ones; on any other machine, whose BLAS
kernels may round W @ Theta differently in the last bit, the sampled values
are compared at rtol 1e-12 instead. The test output names the mode used.

Regenerate the file only for a change that is meant to alter trajectories:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import json
import os
import re
import sys

import numpy as np
import pytest

from dcsa.config import ScenarioConfig
from dcsa.core import MetricsRecord, run, run_ensemble
from dcsa.experiments import (build_gridworld_scenario, build_scenario,
                              run_seed_ensemble)
from dcsa.io import blas_core
from dcsa.sources import parse_maze

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
SAMPLE_EVERY = 200

# the mazes of benchmarks/mazes and acceptance criterion 8
MAZES = ["S.###\n#.#..\n#....\n###.#\n###.G\n",
         "S.###\n#.##.\n#....\n###.#\n###.G\n",
         "S.###\n#.###\n#....\n###.#\n###.G\n"]


def sysid_cli():
    """The benchmark's system-id config at H = 2 000."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1,
                         horizon=2000, stride=100, step_kind="diminishing",
                         step_eps=1.0)
    return [run(build_scenario(cfg))]


def gridworld_td():
    """The benchmark's three-maze Q-learning config at H = 2 000."""
    cfg = ScenarioConfig(scenario="gridworld", n_agents=3, dim=100, seed=1,
                         horizon=2000, stride=100, step_kind="constant",
                         step_eps=0.05, gamma=0.5, maze_files="inline",
                         eval_batch_size=200)
    mazes = [parse_maze(text) for text in MAZES]
    return [run(build_gridworld_scenario(cfg, mazes=mazes))]


def lemma4_ensemble():
    """The benchmark's 30-seed lemma ensemble at H = 2 000."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=1,
                         horizon=2000, stride=100, step_kind="constant",
                         step_eps=1e-4, compute_constants=True)
    return run_seed_ensemble(cfg, range(1, 31))


def sysid_ensemble():
    """A 5-seed stack on two alternating frames, with constants and
    theta_bar histories."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=4, dim=3,
                         horizon=2000, stride=50, step_kind="diminishing",
                         step_eps=0.5, frames='edges:[[0,1],[2,3]];'
                                              'edges:[[1,2]]',
                         period_b=2, compute_constants=True)
    scs = [build_scenario(dataclasses.replace(cfg, seed=seed))
           for seed in range(11, 16)]
    return run_ensemble(scs, collect_theta_bar=True)


def diverging():
    """A system-id run whose iterates overflow: it aborts, and theta_final
    is its first non-finite iterate."""
    cfg = ScenarioConfig(scenario="system_id", n_agents=3, dim=2, seed=3,
                         horizon=600, stride=7, step_kind="constant",
                         step_eps=5.0, compute_constants=True)
    return [run(build_scenario(cfg), collect_theta_bar=True)]


CASES = {f.__name__: f for f in (sysid_cli, gridworld_td, lemma4_ensemble,
                                 sysid_ensemble, diverging)}


def machine():
    return {"numpy": np.__version__, "blas_core": blas_core()}


def _records(traj):
    return np.array([dataclasses.astuple(r) for r in traj.records],
                    dtype=float).reshape(-1, len(dataclasses.fields(
                        MetricsRecord)))


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _floats(a):
    return [float(x) for x in np.ravel(a)]


def summarize(trajs):
    """The digests, sampled values and abort reasons of one case."""
    return {
        "digests": {
            "R_hist": _digest(t.R_hist for t in trajs),
            "S_hist": _digest(t.S_hist for t in trajs),
            "theta_final": _digest(t.theta_final for t in trajs),
            "theta_bar_hist": _digest(t.theta_bar_hist for t in trajs
                                      if t.theta_bar_hist is not None),
            "records": _digest(_records(t) for t in trajs),
            "min_lemma3_slack": _digest(t.min_lemma3_slack for t in trajs),
        },
        "abort_reasons": [t.abort_reason for t in trajs],
        "samples": [{
            "R": _floats(t.R_hist[::SAMPLE_EVERY]),
            "S": _floats(t.S_hist[::SAMPLE_EVERY]),
            "theta_final": _floats(t.theta_final),
            "min_lemma3_slack": float(t.min_lemma3_slack),
            **({} if np.isnan(t.column("td_error")).all()
               else {"td_error": _floats(t.column("td_error"))}),
        } for t in trajs],
    }


def write_golden():
    golden = {"machine": machine(),
              "cases": {name: summarize(case())
                        for name, case in CASES.items()}}
    text = json.dumps(golden, indent=1, sort_keys=True)
    # each list of numbers on one line
    text = re.sub(r"\[[^][{}\"]*\]", lambda m: " ".join(m[0].split()), text)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_trajectory(name, golden):
    want = golden["cases"][name]
    got = summarize(CASES[name]())
    assert got["abort_reasons"] == want["abort_reasons"]
    exact = machine() == golden["machine"]
    print(f"golden {name}: "
          + ("exact digests" if exact else
             f"rtol 1e-12 on sampled values ({machine()} differs from the "
             f"recorded {golden['machine']})"))
    if exact:
        assert got["digests"] == want["digests"]
        return
    assert len(got["samples"]) == len(want["samples"])
    for g, w in zip(got["samples"], want["samples"]):
        for key in w:
            np.testing.assert_allclose(g[key], w[key], rtol=1e-12, atol=0,
                                       equal_nan=True, err_msg=key)


if __name__ == "__main__":
    sys.exit(write_golden())
