"""How fast the shared host runs right now.

The host slows every process by up to 2x, for milliseconds to minutes at a
time. calibrate() times a fixed piece of interpreter work (builtins only, so
that it can run before `import dcsa.cli` without importing anything), and a
timing taken right next to it is scaled to the speed of an undisturbed host:

    normalized = measured * REFERENCE_S / calibrate()
"""

from time import perf_counter

ITEMS = 1500
# One pass of the work on an undisturbed 2.1 GHz Xeon vCPU with Python
# 3.11: the scale of every normalized timing, fixed once released.
REFERENCE_S = 320e-6


def calibrate(passes=1):
    """Fastest of `passes` runs of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(passes):
        t0 = perf_counter()
        table = {}
        for i in range(ITEMS):
            table[str(i)] = i * 3 + len(table)
        best = min(best, perf_counter() - t0)
    return best


class CalibratedImports:
    """A sys.meta_path finder that finds nothing but calibrates at every
    module lookup, so that an import is timed in short segments, each next
    to a calibration, as core.run's blocks are."""

    def __init__(self):
        self.stamps = []   # (time in, time out, calibration seconds)

    def find_spec(self, name, path=None, target=None):
        t_in = perf_counter()
        cal = calibrate()
        self.stamps.append((t_in, perf_counter(), cal))
        return None

    def seconds(self, start, end):
        """(measured, normalized) seconds from `start` to `end`, without the
        calibrations; each segment is scaled by the mean of the
        calibrations at its two ends."""
        cuts = [(start, start, self.stamps[0][2])] + self.stamps + [
            (end, end, self.stamps[-1][2])]
        measured = normalized = 0.0
        for (_, out, cal0), (t_in, _, cal1) in zip(cuts, cuts[1:]):
            measured += t_in - out
            normalized += (t_in - out) * REFERENCE_S * 2 / (cal0 + cal1)
        return measured, normalized
