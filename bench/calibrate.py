"""Host-speed calibration for the benchmark's time metrics.

The benchmark is meant to run on shared hosts, whose speed can drift by a
third or more for minutes at a time.  On the host where it was defined
(2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11), the medians of raw
wall time of ten 24-second runs of identical work spread by 9 to 26%
(interquartile range over median), and by up to 33% over an 8-minute
series; that is as wide as the loosest bound a regression check can use.  The drift slows all pure-Python work about
alike, so a fixed loop timed right before and right after each sample
measures the host's speed at that moment, and the time metrics are
reported as seconds at a fixed nominal speed:

    calibrated seconds = raw seconds * NOMINAL_S / reference-loop seconds

Over the same ten runs the calibrated medians spread by 3 to 4%.  The loop
imitates the library's hot paths: method calls, table lookups, list
comprehensions over small integers and small sets sorted into tuples.  It
must never change, and neither may NOMINAL_S; changing either changes every
time metric, as changing a workload would.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.2
ROUNDS = 8_000
_P = 251


class _TableOps:
    def __init__(self) -> None:
        self.table = [(i * 7919) % _P for i in range(_P * _P)]

    def mul(self, a: int, b: int) -> int:
        return self.table[a * _P + b]


def reference_seconds() -> float:
    """Seconds the fixed reference loop takes on the current host, now."""
    mul = _TableOps().mul
    row = [(i * 31) % _P for i in range(40)]
    t0 = time.perf_counter()
    for i in range(ROUNDS):
        g = i % _P
        row = [mul(g, v) ^ 1 for v in row]
        row = [x % _P for x in row]
        orbit = tuple(sorted({x * 3 % _P for x in row}))
        row[i % 40] = orbit[0]
    return time.perf_counter() - t0
