"""Host speed, from a fixed calibration loop.

On a shared host the CPU runs slower for phases lasting seconds to
minutes; on a 2-vCPU x86-64 host the same pipeline call swung by 1.3-2x
within a quarter of an hour, and every wall time moved with it.  So the
benchmark times this loop, which uses nothing from dsopmin, between
consecutive functions, and divides each function's wall time by how much
slower than ``REFERENCE_S`` the loop ran on either side of it.  The
reported times are then seconds on a host running at reference speed,
which is the idle speed of the host the benchmark was defined on.  A
change to dsopmin cannot move the loop, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

# The loop's time on an idle x86-64 core (5th percentile of 1500 runs).
REFERENCE_S = 0.0062


def _mix(i: int) -> int:
    return (i * 2654435761) & 1023


def _loop() -> int:
    # Tuple hashing, dict traffic, small calls and big-int bit operations:
    # the interpreter work the pipeline itself is made of.
    table: dict = {}
    bits = 0
    acc = 0
    for i in range(12000):
        key = (i & 63, (i >> 6) & 15, i % 3)
        table[key] = table.get(key, 0) + 1
        bits |= 1 << ((i * 7) & 4095)
        acc += _mix(i)
    return acc + len(table) + (bits & (bits >> 3)).bit_count()


def sample() -> float:
    """Median wall time of three runs of the calibration loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """How many times slower than reference the host ran between two samples."""
    return (before + after) / (2 * REFERENCE_S)
