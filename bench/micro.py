"""Field-operation micro-benchmark: nanoseconds per Field.mul/add/sub/inv call.

Three fields: GF(13^2) is table-driven, GF(37^2) is above the lookup-table
cap and GF(13^4) is a tower top field.  Operands are nonzero and drawn from
a fixed seed, every result is consumed, and the lookup tables are built
before timing.  A figure is the median over REPEATS samples of one call
made from a Python loop, loop overhead included.
"""

from __future__ import annotations

import random
import statistics
import time

FIELDS = {"gf13_2": (13, 2), "gf37_2": (37, 2), "gf13_4": (13, 4)}
OPS = ("mul", "add", "sub", "inv")
OPERAND_SEED = 2018
OPERANDS = 8192
REPEATS = 5
SAMPLE_S = 0.02


def _time_calls(fn, unary: bool, a: list[int], b: list[int]) -> tuple[float, int]:
    acc = 0
    t0 = time.perf_counter()
    if unary:
        for x in a:
            acc ^= fn(x)
    else:
        for x, y in zip(a, b):
            acc ^= fn(x, y)
    return time.perf_counter() - t0, acc


def _ns_per_call(fn, unary: bool, a: list[int], b: list[int]) -> float:
    probe, _ = _time_calls(fn, unary, a[:64], b[:64])
    count = max(64, min(len(a), int(SAMPLE_S / max(probe / 64, 1e-9))))
    a, b = a[:count], b[:count]
    samples = [_time_calls(fn, unary, a, b)[0] / count for _ in range(REPEATS)]
    return statistics.median(samples) * 1e9


def measure() -> dict[str, float]:
    """Metric name -> ns per call, for every op on every field."""
    from eaqmds import fields
    out = {}
    for label, (p, degree) in FIELDS.items():
        field = fields.make_field(p, degree)
        fields.Matrix(field, [[1]]).rank()  # builds the lookup tables where the field has them
        rng = random.Random(OPERAND_SEED)
        a = [rng.randrange(1, field.order) for _ in range(OPERANDS)]
        b = [rng.randrange(1, field.order) for _ in range(OPERANDS)]
        for op in OPS:
            out[f"fields.{op}_ns.{label}"] = _ns_per_call(getattr(field, op), op == "inv", a, b)
    return out
