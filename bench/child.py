"""One execution of a workload in a fresh Python process.

    python3 bench/child.py WORKLOAD SEED [--traced]
    python3 bench/child.py --micro
    python3 bench/child.py --entry TABLE FAMILY Q H      (H is "-" when none)

run.py starts this with PYTHONPATH pointing at the library sources.  It
prints one JSON object.  For a workload that is the set-up and workload
seconds (raw, and calibrated to the host's speed as measured by calibrate.py
right before and after), peak RSS, the output's sha256 and invariant
summary, and with --traced the per-layer spans.  --micro prints the field-op
micro-benchmark, and --entry the row counts of one published table entry at
rank-oracle level, for probe.py.  A fresh process matters: make_field, build_tower and
make_spec are process-wide caches, so a second run in one process would
start warm, which no CLI user ever does.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time

import calibrate
import workloads
from tracer import Tracer


def execute(name: str, seed: int, traced: bool = False, size: str = "full") -> dict:
    """Set up, run and check one workload; the caller owns the process."""
    workload = workloads.WORKLOADS[name]
    params = workload.full if size == "full" else workload.smoke
    ref_before = calibrate.reference_seconds()
    t0 = time.perf_counter()
    import eaqmds  # noqa: F401  (the package import is part of set-up)
    from eaqmds import codes
    with Tracer() if traced else contextlib.nullcontext() as tracer:
        for spec in workload.specs(params):
            codes.build_tower(spec)
        t1 = time.perf_counter()
        out = workload.run(seed, params)
        t2 = time.perf_counter()
    ref_after = calibrate.reference_seconds()
    scale = calibrate.NOMINAL_S / ((ref_before + ref_after) / 2)
    record = {
        "setup_s": (t1 - t0) * scale,
        "wall_s": (t2 - t1) * scale,
        "raw_setup_s": t1 - t0,
        "raw_wall_s": t2 - t1,
        "reference_s": [ref_before, ref_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sha256": hashlib.sha256(out.text.encode()).hexdigest(),
        "items": out.items,
        "summary": out.summary,
        "library": eaqmds.__file__,
    }
    if tracer is not None:
        record.update(tracer.report())
    return record


def table_entry(table: str, family: str, q: str, h: str) -> dict:
    """Row counts of one published table entry built at rank-oracle level."""
    from eaqmds import catalog, families
    rows = workloads.table_entry_rows(int(table), families.FamilyId(family), int(q),
                                      None if h == "-" else int(h))
    ranked = sum(1 for r in rows if r.verified == catalog.VERIFIED_RANK)
    return {"rows": len(rows), "rank-oracle": ranked}


def main(argv: list[str]) -> int:
    if argv == ["--micro"]:
        import micro
        print(json.dumps(micro.measure()))
        return 0
    if argv[:1] == ["--entry"] and len(argv) == 5:
        print(json.dumps(table_entry(*argv[1:])))
        return 0
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["--traced"]):
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(execute(argv[0], int(argv[1]), traced=argv[2:] == ["--traced"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
