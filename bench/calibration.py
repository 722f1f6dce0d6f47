"""Machine-speed calibration for the benchmark's wall-clock metrics.

A shared 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4) alternates,
for seconds to minutes, between its normal speed and one about 1.5x slower;
a pure-Python loop slows by the same factor as the zoft commands (measured
correlation about 0.8 per command).  Timing this fixed loop just before and after a
measured interval and scaling the interval by nominal/measured loop time
cancels those swings: uncalibrated throughput spread 13-27% between runs of
the same workload, calibrated 2-7%.  Calibrated seconds equal wall seconds
when the machine runs the loop at its nominal speed.
"""

from __future__ import annotations

import time

CAL_ITERATIONS = 200_000
CAL_NOMINAL_S = 0.011  # the loop on an unloaded 2-vCPU x86-64 host, Python 3.11


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def calibrated(seconds: float, loop_before: float, loop_after: float) -> float:
    """Wall seconds scaled to the machine's nominal speed."""
    return seconds * CAL_NOMINAL_S / ((loop_before + loop_after) / 2)
