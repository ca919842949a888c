"""Machine-speed calibration for short, repeated timings.

On a shared machine the speed of pure-Python code drifts by 30-40% over
seconds to minutes.  A fixed calibration loop timed just before and just
after a short operation tracks that drift: over three minutes of alternating
demo replays and calibrations on a 2-vCPU machine, replay times spread by
0.27 (interquartile range over median) and their ratio to the calibrations
around them by 0.11.  The benchmark scales each replay and each repeated
trace generation by the calibrations around it, to a machine on which the
loop takes REFERENCE_S seconds, and reports the median.  For single
operations of several seconds, and for server start-ups in a child process,
the same scaling added noise instead of removing it, so those are reported
as wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Median calibration time on the 2-vCPU machine the first figures came from.
REFERENCE_S = 0.015


def _work() -> int:
    """Dictionary, sorting and string work, like the engine's inner loops."""
    counts: dict[int, int] = {}
    for i in range(80000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(";".join(str(k) for k, _ in ranked))


def calibration_s() -> float:
    """Median time of three runs of the calibration loop, in seconds."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _work()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Calibrated:
    """Times operations one after another, calibrating between them."""

    def __init__(self):
        self._last = calibration_s()

    def time(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); returns (result, wall seconds, scaled seconds).

        The wall time is scaled by the mean of the calibrations just before
        and just after the call.
        """
        start = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - start
        now = calibration_s()
        scaled = wall * REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        return result, wall, scaled
