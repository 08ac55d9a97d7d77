"""North-star probe: the published tables at rank-oracle level, one entry at a time.

    python3 bench/probe.py

Each distinct entry of tables 1, 2, 4, 5 and 6 runs rows_for_combo(...,
rank_oracle=True) in its own fresh process (child.py --entry).  An entry
that exceeds ENTRY_BUDGET_S is stopped and recorded as "did not finish";
once TOTAL_BUDGET_S is spent, the remaining entries are recorded as "not
started".  This tracks the roadmap's target (q <= 53, n <= 2810) without
hanging anything, and is run on demand only: it is not one of the
benchmark's workloads.  Results go to stdout and to bench/results/probe.json.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads

ENTRY_BUDGET_S = 300.0
TOTAL_BUDGET_S = 1800.0


def main() -> int:
    if not (run.SRC / "eaqmds" / "__init__.py").is_file():
        print(f"probe: no library sources at {run.SRC / 'eaqmds'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from eaqmds import families

    start = time.perf_counter()
    records = []
    for table, family, q, h in workloads.table_entries():
        n = families.family_spec(family, q, h).n
        record = {"table": table, "family": family.value, "q": q, "h": h, "n": n}
        left = TOTAL_BUDGET_S - (time.perf_counter() - start)
        if left <= 0:
            record["status"] = "not started"
        else:
            out, seconds, error = run.run_child(
                ["--entry", str(table), family.value, str(q), "-" if h is None else str(h)],
                timeout=min(ENTRY_BUDGET_S, left))
            record["seconds"] = seconds
            if error == run.TIMED_OUT:
                record["status"] = "did not finish"
            elif error is not None:
                record.update(status="failed", error=error)
            elif out["rank-oracle"] != out["rows"]:
                record.update(status="failed", error=f"rows not all rank-oracle: {out}")
            else:
                record.update(status="ok", rows=out["rows"])
        records.append(record)
        seconds = f"{record['seconds']:9.2f} s" if "seconds" in record else " " * 11
        print(f"table {table} {family.value:12s} q={q:<3d} h={h or '-':<2} n={n:<5d} {seconds}  "
              f"{record['status']}", flush=True)

    results = run.BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / "probe.json").write_text(json.dumps(
        {"entry_budget_s": ENTRY_BUDGET_S, "total_budget_s": TOTAL_BUDGET_S,
         "entries": records}, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["status"] != "failed" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
