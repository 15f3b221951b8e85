"""Metrics CSV and summary JSON emission.

CSV columns (fixed order): k,eps_k,tau_k,R,S,S_delayed,V,td_error,
lemma3_slack.  NaN is encoded as an empty field; floats are written in
decimal notation with 12 significant digits.
"""

import csv
import ctypes
import json
import math
import os

import numpy as np

CSV_COLUMNS = ("k", "eps_k", "tau_k", "R", "S", "S_delayed", "V",
               "td_error", "lemma3_slack")


class FormatError(ValueError):
    """Raised for an input file whose contents are not in the expected
    format."""


def blas_core():
    """OpenBLAS's runtime core name (its kernels), or None when numpy's
    OpenBLAS cannot be found. The mix's gemm rounds per core, so the core
    is part of what a trajectory's bytes depend on."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:   # numpy without a bundled BLAS directory
        return None
    for name in names:
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return np.format_float_positional(v, precision=12, unique=False,
                                      fractional=False, trim="0")


def emit_metrics(traj, path):
    """Write a trajectory's records as CSV (header row mandatory)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rec in traj.records:
                writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])
    except OSError as exc:
        raise OSError(f"failed writing metrics CSV at {path}: {exc}") from exc


def read_metrics(path):
    """Read a metrics CSV back into a dict of numpy arrays (NaN for blanks)."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise FormatError(f"unexpected CSV header in {path}: {header}")
        cols = {name: [] for name in CSV_COLUMNS}
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise FormatError(f"{path} line {reader.line_num}: expected "
                                  f"{len(CSV_COLUMNS)} fields, got {len(row)}")
            for name, cell in zip(CSV_COLUMNS, row):
                try:
                    cols[name].append(float(cell) if cell else math.nan)
                except ValueError:
                    raise FormatError(f"{path} line {reader.line_num}: "
                                      f"non-numeric {name} {cell!r}") from None
    return {name: np.array(vals) for name, vals in cols.items()}


def clean_json(obj):
    """obj with numpy scalars made Python scalars and every non-finite
    float (NaN, +-inf) made None, so that json.dumps writes strict JSON."""
    if isinstance(obj, dict):
        return {k: clean_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean_json(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit_summary(analysis: dict, path):
    """Write the run summary JSON (scenario, seed, slope, r2, plateau,
    solved_mazes, admissibility)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(clean_json(analysis), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing summary JSON at {path}: {exc}") from exc
