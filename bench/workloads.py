"""The benchmark's workloads.

Each workload runs one CLI command's work through the library's public API,
with workers=1, and returns the bytes that command would print together with
a summary of invariants that run.py checks against golden.json.  `specs`
lists the CodeSpecs whose field towers set-up builds.

eaqmds is imported inside the functions, never at module level, so that a
child process can time the package import as part of set-up.  Library
functions are looked up on their module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Output(NamedTuple):
    text: str        # the serialized output, hashed against golden.json
    items: int       # verify instances or catalog rows
    summary: dict    # invariants compared with golden.json


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, dict], Output]   # (seed, size) -> Output
    specs: Callable[[dict], list]        # size -> CodeSpecs built in set-up
    full: dict                           # the size the benchmark measures
    smoke: dict                          # a reduced size for the tests


def _combo_specs(size: dict) -> list:
    """Specs of the applicable (family, q, h) with q_min <= q <= q_max."""
    from eaqmds import families
    wanted = size.get("families")
    return [families.family_spec(family, q, h)
            for family, q, h in families.applicable_combos(families.odd_prime_powers(size["q_max"]))
            if q >= size.get("q_min", 3) and (wanted is None or family.value in wanted)]


def _csv(rows: list, notes: list) -> str:
    from eaqmds import catalog
    return catalog.serialize_csv(rows, notes)


# -- verify: `eaqmds verify --q-max Q --no-exact-distance` ---------------------

def _verify(seed: int, size: dict) -> Output:
    from eaqmds import verify
    report = verify.run_verification(q_max=size["q_max"], exact_distance=False,
                                     workers=1)
    lines = [r.line() for r in report.instances]
    lines.extend(f"note: {n}" for n in report.notes)
    lines.append(report.summary())
    ok = sum(1 for r in report.instances if r.ok)
    return Output("\n".join(lines) + "\n", len(report.instances),
                  {"lines": len(report.instances), "ok": ok})


# -- exact: `eaqmds catalog --q-range LO:HI --exact-distance` ------------------

def _exact(seed: int, size: dict) -> Output:
    from eaqmds import catalog
    config = catalog.RunConfig(q_range=(size["q_min"], size["q_max"]), exact_distance=True,
                               families=size.get("families"))
    rows, notes = catalog.generate_catalog(config)
    exact = sum(1 for r in rows if r.verified == catalog.VERIFIED_EXACT)
    return Output(_csv(rows, notes), len(rows), {"rows": len(rows), "exact-distance": exact})


# -- rank tables: `eaqmds catalog --tables 1,2,4,5,6 --rank-oracle`, cut -------

def table_entries(q_max: int | None = None, n_max: int | None = None) -> list[tuple]:
    """(table, family, q, h) for every distinct published entry within the cut."""
    from eaqmds import catalog, families
    out, seen = [], set()
    for table in sorted(catalog.TABLE_ENTRIES):
        for q, h in catalog.TABLE_ENTRIES[table]:
            family = catalog.TABLE_FAMILY[table] or catalog.table1_family(q)
            if (family, q, h) in seen or (q_max is not None and q > q_max):
                continue
            if n_max is not None and families.family_spec(family, q, h).n > n_max:
                continue
            seen.add((family, q, h))
            out.append((table, family, q, h))
    return out


def table_entry_rows(table: int, family, q: int, h: int | None) -> list:
    """The rank-oracle catalog rows of one published table entry."""
    from eaqmds import catalog
    return catalog.rows_for_combo(family, q, h, rank_oracle=True, source_table=table)


def _rank_tables(seed: int, size: dict) -> Output:
    from eaqmds import catalog
    entries = table_entries(size["q_max"], size["n_max"])
    # The seed only changes the order in which entries are built; rows are
    # sorted before serialization, so the output bytes do not depend on it.
    random.Random(seed).shuffle(entries)
    rows, seen = [], set()
    for table, family, q, h in entries:
        for row in table_entry_rows(table, family, q, h):
            key = tuple(row.serialized_fields().items())
            if key not in seen:
                seen.add(key)
                rows.append(row)
    rows.sort(key=catalog.CatalogRow.sort_key)
    tenth = ("TENTH_3", "TENTH_7")
    notes = [catalog.TENTH_RANGE_NOTE] if any(r.family in tenth for r in rows) else []
    ranked = sum(1 for r in rows if r.verified == catalog.VERIFIED_RANK)
    return Output(_csv(rows, notes), len(rows), {"rows": len(rows), "rank-oracle": ranked})


def _rank_specs(size: dict) -> list:
    from eaqmds import families
    return [families.family_spec(family, q, h)
            for _, family, q, h in table_entries(size["q_max"], size["n_max"])]


# -- bch: `eaqmds catalog --q-range 3:Q` ---------------------------------------

def _bch(seed: int, size: dict) -> Output:
    from eaqmds import catalog
    rows, notes = catalog.generate_catalog(catalog.RunConfig(q_range=(3, size["q_max"])))
    return Output(_csv(rows, notes), len(rows), {"rows": len(rows)})


WORKLOADS: dict[str, Workload] = {
    "verify-q9": Workload(_verify, _combo_specs,
                          full={"q_max": 9}, smoke={"q_max": 7}),
    "exact-q7-9": Workload(_exact, _combo_specs,
                           full={"q_min": 7, "q_max": 9},
                           smoke={"q_min": 5, "q_max": 9, "families": ["QM1_H"]}),
    "rank-tables-q17": Workload(_rank_tables, _rank_specs,
                                full={"q_max": 17, "n_max": 90},
                                smoke={"q_max": 17, "n_max": 30}),
    "bch-q120": Workload(_bch, lambda size: [],
                         full={"q_max": 120}, smoke={"q_max": 60}),
}
