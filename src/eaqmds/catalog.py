"""Catalog rows, run configuration, and CSV/JSON serialization.

The published parameter tables are reproduced row-for-row: each table is a
list of (q, h) entries expanded into one catalog row per admissible
distance, and each row is the checked output of families.instance_params.
A q or family selection filters the table entries too.
Output ordering is deterministic (family, q, h, d ascending) and
serialization re-checks the Singleton equality of every MDS row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codes import DEFAULT_DISTANCE_BUDGET
from .eaq import VERIFIED_BCH, VERIFIED_EXACT, VERIFIED_RANK  # noqa: F401 (row schema)
from .families import (FAMILY_ORDER, FamilyId, applicable_combos,
                       family_instances, fan_out, instance_params)

CSV_HEADER = "family,q,h,n,k,d,c,mds,verified"

# Published parameter tables: table id -> list of (q, h).  The length-q^2+1
# tables resolve to the negacyclic or constacyclic branch by q mod 4; note
# the q = 19 entry of table 1 is only constructible through the r = q+1
# branch.
TABLE_ENTRIES: dict[int, list[tuple[int, int | None]]] = {
    1: [(9, None), (13, None), (17, None), (19, None), (25, None), (29, None)],
    2: [(7, None), (11, None), (19, None), (23, None), (31, None), (43, None)],
    4: [(13, None), (23, None), (43, None), (53, None)],
    5: [(17, None), (27, None), (37, None), (47, None)],
    6: [(11, 3), (17, 3), (19, 5), (29, 5), (13, 7), (41, 7)],
}

TABLE_FAMILY: dict[int, FamilyId | None] = {
    1: None,  # by q mod 4
    2: FamilyId.Q2P1_CONSTA,
    4: FamilyId.TENTH_3,
    5: FamilyId.TENTH_7,
    6: FamilyId.QM1_H,
}

TENTH_RANGE_NOTE = (
    "summary-table d-ranges 4m+2 / 4m+4 for the (q^2+1)/10 families "
    "understate the proven maxima 6m+2 / 6m+4; rows above use the proven ranges"
)


class ConfigError(ValueError):
    """The run configuration is malformed."""


@dataclass(frozen=True)
class CatalogRow:
    family: str
    q: int
    h: int | None
    n: int
    k: int
    d: int
    c: int
    mds: bool
    verified: str
    source_table: int | None = None

    def sort_key(self) -> tuple[int, int, int, int]:
        order = [f.value for f in FAMILY_ORDER]
        return (order.index(self.family), self.q, self.h or 0, self.d)

    def serialized_fields(self) -> dict[str, object]:
        return {"family": self.family, "q": self.q, "h": self.h, "n": self.n,
                "k": self.k, "d": self.d, "c": self.c, "mds": self.mds,
                "verified": self.verified}

    def csv_line(self) -> str:
        h = "" if self.h is None else str(self.h)
        mds = "true" if self.mds else "false"
        return f"{self.family},{self.q},{h},{self.n},{self.k},{self.d},{self.c},{mds},{self.verified}"


@dataclass
class RunConfig:
    """Catalog/verification run parameters; flat keys for the config file."""

    tables: list[int] | None = None
    families: list[str] | None = None
    q_list: list[int] | None = None
    q_range: tuple[int, int] | None = None
    rank_oracle: bool = False
    exact_distance: bool = False
    distance_cap: int | None = None
    distance_budget: int = DEFAULT_DISTANCE_BUDGET
    format: str = "csv"
    out: str | None = None
    workers: int = 1
    include_qmds_datapoints: bool = True

    def validate(self) -> None:
        for key, value in vars(self).items():
            _check_key_type(key, value)
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.distance_cap is not None and self.distance_cap < 1:
            raise ConfigError("distance cap must be positive")
        if self.distance_budget < 1:
            raise ConfigError("distance budget must be positive")
        if self.tables is not None:
            bad = [t for t in self.tables if t not in TABLE_ENTRIES]
            if bad:
                raise ConfigError(f"unknown tables {bad}; available: {sorted(TABLE_ENTRIES)}")
        if self.families is not None:
            valid = {f.value for f in FamilyId}
            bad = [f for f in self.families if f.upper() not in valid]
            if bad:
                raise ConfigError(f"unknown families {bad}; available: {sorted(valid)}")
        if self.q_range is not None and self.q_range[0] > self.q_range[1]:
            raise ConfigError(f"q_range low {self.q_range[0]} exceeds high {self.q_range[1]}")

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        unknown = set(data) - set(_KEY_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        if cfg.q_range is not None:
            cfg.q_range = tuple(cfg.q_range)  # type: ignore[assignment]
        return cfg

    def selected_q(self) -> list[int]:
        qs: set[int] = set(self.q_list or [])
        if self.q_range is not None:
            lo, hi = self.q_range
            qs.update(range(lo, hi + 1))
        return sorted(qs)

    def family_filter(self) -> list[FamilyId]:
        if self.families is None:
            return list(FAMILY_ORDER)
        return [FamilyId(f.upper()) for f in self.families]


# config key -> (element type, shape, null allowed); shape is "one", "list"
# or "pair", where a pair is a two-element list
_KEY_TYPES: dict[str, tuple[type, str, bool]] = {
    "tables": (int, "list", True),
    "families": (str, "list", True),
    "q_list": (int, "list", True),
    "q_range": (int, "pair", True),
    "rank_oracle": (bool, "one", False),
    "exact_distance": (bool, "one", False),
    "distance_cap": (int, "one", True),
    "distance_budget": (int, "one", False),
    "format": (str, "one", False),
    "out": (str, "one", True),
    "workers": (int, "one", False),
    "include_qmds_datapoints": (bool, "one", False),
}
_TYPE_NAMES = {int: ("an int", "ints"), str: ("a string", "strings"),
               bool: ("a boolean", "booleans")}


def _has_type(value: object, kind: type) -> bool:
    # bool is a subclass of int, but true/false is no count
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _check_key_type(key: str, value: object) -> None:
    kind, shape, nullable = _KEY_TYPES[key]
    if value is None and nullable:
        return
    if shape == "one":
        ok = _has_type(value, kind)
    else:
        ok = (isinstance(value, (list, tuple))
              and (shape == "list" or len(value) == 2)
              and all(_has_type(v, kind) for v in value))
    if not ok:
        one, many = _TYPE_NAMES[kind]
        expected = {"one": one, "list": f"a list of {many}",
                    "pair": f"a [low, high] pair of {many}"}[shape]
        null = " or null" if nullable else ""
        raise ConfigError(f"config key {key!r} must be {expected}{null}, got {value!r}")


def read_config_file(path: str) -> dict:
    """The keys a config file sets, checked on their own as a RunConfig."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    RunConfig.from_dict(data)
    return data


def table1_family(q: int) -> FamilyId:
    return FamilyId.Q2P1_NEGA if q % 4 == 1 else FamilyId.Q2P1_CONSTA


def rows_for_combo(family: FamilyId, q: int, h: int | None, *,
                   rank_oracle: bool = False, exact_distance: bool = False,
                   distance_budget: int = DEFAULT_DISTANCE_BUDGET,
                   include_qmds_datapoints: bool = False,
                   source_table: int | None = None) -> list[CatalogRow]:
    rows = []
    for instance in family_instances(family, q, h, include_qmds_datapoints):
        p = instance_params(instance, rank_oracle=rank_oracle,
                            exact_distance=exact_distance,
                            distance_budget=distance_budget)
        rows.append(CatalogRow(family=family.value, q=q, h=h, n=p.n, k=p.k,
                               d=p.d, c=p.c, mds=p.mds, verified=p.verified,
                               source_table=source_table))
    return rows


def _combo_task(args: tuple) -> list[CatalogRow]:
    family, q, h, opts, source_table = args
    return rows_for_combo(family, q, h, source_table=source_table, **opts)


def generate_catalog(config: RunConfig) -> tuple[list[CatalogRow], list[str]]:
    """All requested rows plus footnote lines, deterministically ordered."""
    config.validate()
    opts = dict(rank_oracle=config.rank_oracle,
                exact_distance=config.exact_distance,
                distance_budget=config.distance_budget)
    combos: dict[tuple, int | None] = {}  # (family, q, h) -> source table
    if config.tables:
        # an entry listed in two tables is built once, for the first table
        for table in sorted(config.tables):
            for q, h in TABLE_ENTRIES[table]:
                combos.setdefault((TABLE_FAMILY[table] or table1_family(q), q, h), table)
        opts["include_qmds_datapoints"] = False
    else:
        q_values = config.selected_q()
        if not q_values:
            raise ConfigError("no q values selected: set tables, q_list, or q_range")
        combos = dict.fromkeys(applicable_combos(q_values))
        opts["include_qmds_datapoints"] = config.include_qmds_datapoints
    # one selection for both modes; an unset q or family selection keeps all
    qs, families = set(config.selected_q()), config.family_filter()
    tasks = [(family, q, h, opts, table) for (family, q, h), table in combos.items()
             if family in families and (not qs or q in qs)]

    rows = [row for chunk in fan_out(_combo_task, tasks, config.workers) for row in chunk]
    rows.sort(key=CatalogRow.sort_key)

    notes = []
    if any(row.family in (FamilyId.TENTH_3.value, FamilyId.TENTH_7.value) for row in rows):
        notes.append(TENTH_RANGE_NOTE)
    return rows, notes


def _check_row_consistency(row: CatalogRow) -> None:
    if row.mds and row.n + row.c - row.k != 2 * (row.d - 1):
        raise RuntimeError(f"row {row} marked MDS but Singleton equality fails")


def serialize_csv(rows: list[CatalogRow], notes: list[str] | None = None) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        _check_row_consistency(row)
        lines.append(row.csv_line())
    for note in notes or []:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"


def serialize_json(rows: list[CatalogRow]) -> str:
    payload = []
    for row in rows:
        _check_row_consistency(row)
        payload.append(row.serialized_fields())
    return json.dumps(payload, indent=2) + "\n"


def serialize(rows: list[CatalogRow], fmt: str, notes: list[str] | None = None) -> str:
    if fmt == "csv":
        return serialize_csv(rows, notes)
    if fmt == "json":
        return serialize_json(rows)
    raise ConfigError(f"unknown format {fmt!r}")
