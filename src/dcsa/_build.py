"""Build and load the compiled block module, _step.c: the samplers' draws
after numpy's random numbers, the drift steps and the measure, one call
per block each.

load_step() runs once, when dcsa.operators is imported. The built module
is cached in this package's __pycache__, as _step.<sha>.<EXT_SUFFIX>, keyed
by the first 16 hex digits of the source's sha256 and by the interpreter's
extension suffix. A cache hit is one module load. On a miss the source is
compiled with sysconfig's CC and include directory into a temporary file,
which then replaces the cached name in one os.replace, so concurrent
builds never load a partial file. When the compiler is missing, the build
or the write fails, or the module does not load, load_step returns None and
the engine keeps its numpy draws, steps and measure.
"""

import hashlib
import importlib.machinery
import importlib.util
import os

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def load_step(cc=None, cache_dir=CACHE_DIR):
    """The compiled _step module, built into cache_dir on a cache miss, or
    None. cc is the compiler command as a list, sysconfig's CC by default."""
    # EXTENSION_SUFFIXES[0] is sysconfig's EXT_SUFFIX, without importing
    # sysconfig on a cache hit
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        with open(SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        path = os.path.join(cache_dir, f"_step.{digest}{suffix}")
        if not os.path.exists(path):
            _compile(cc, path)
        loader = importlib.machinery.ExtensionFileLoader("dcsa._step", path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader("dcsa._step", loader))
        loader.exec_module(module)
        return module
    except (OSError, ImportError):   # no compiler, a failed build or load
        return None


def _compile(cc, path):
    # imported on a cache miss only: they add about 2 ms to an import
    import shlex
    import subprocess
    import sysconfig

    if cc is None:
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run(
            [*cc, *FLAGS, "-I", sysconfig.get_paths()["include"], SOURCE,
             "-o", tmp], capture_output=True, check=False)
        if proc.returncode != 0:
            raise OSError(f"compiling {SOURCE} failed")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
