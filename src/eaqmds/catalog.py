"""Catalog rows, run configuration, and CSV/JSON serialization.

The published parameter tables are reproduced row-for-row: each table is a
list of (q, h) entries expanded into one catalog row per admissible
distance, and each row is the checked output of families.instance_params.
A q or family selection filters the table entries too, by membership, so a
table run never builds a q range.  Each construction (family, q, h) is one
fan_out task of rows_for_combo, built once however many tables list it.
A RunConfig is frozen and checks its keys when it is made, so whatever
holds one, generate_catalog included, holds valid settings.
Output ordering is deterministic (family, q, h, d ascending) and
serialization re-checks the Singleton equality of every MDS row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from .codes import DEFAULT_DISTANCE_BUDGET, VerificationError
from .codes import VERIFIED_BCH, VERIFIED_EXACT, VERIFIED_RANK  # noqa: F401 (row schema)
from .families import (FAMILY_ORDER, FamilyId, applicable_combos, construction,
                       fan_out, instance_params)
from .fields import FACTOR_LIMIT, unfactorable_message

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

_FAMILY_RANK = {f.value: i for i, f in enumerate(FAMILY_ORDER)}


class ConfigError(ValueError):
    """The run configuration is malformed."""


def check_q_limit(q: int) -> None:
    """Reject a q of 2^32 or more, which factorize cannot take."""
    if q >= FACTOR_LIMIT:
        raise ConfigError(unfactorable_message(q))


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
    source_table: int | None = None  # set only by the benchmark's table-entry runs

    def sort_key(self) -> tuple[int, int, int, int]:
        return (_FAMILY_RANK[self.family], self.q, self.h or 0, self.d)

    def serialized_fields(self) -> dict[str, object]:
        return {"family": self.family, "q": self.q, "h": self.h, "n": self.n,
                "k": self.k, "d": self.d, "c": self.c, "mds": self.mds,
                "verified": self.verified}

    def csv_line(self) -> str:
        h = "" if self.h is None else str(self.h)
        mds = "true" if self.mds else "false"
        return f"{self.family},{self.q},{h},{self.n},{self.k},{self.d},{self.c},{mds},{self.verified}"


@dataclass(frozen=True)
class RunConfig:
    """Catalog/verification run parameters, checked when made; flat config keys.

    A list-valued key is stored as a tuple, so a config is immutable all the
    way down and hashable.
    """

    tables: tuple[int, ...] | None = None
    families: tuple[str, ...] | None = None
    q_list: tuple[int, ...] | None = None
    q_range: tuple[int, int] | None = None
    rank_oracle: bool = False
    exact_distance: bool = False
    distance_cap: int | None = None
    distance_budget: int = DEFAULT_DISTANCE_BUDGET
    format: str = "csv"
    out: str | None = None
    workers: int = 1
    include_qmds_datapoints: bool = True

    def __post_init__(self) -> None:
        for key, value in vars(self).items():
            _check_key_type(key, value)
            if value is not None and _KEY_TYPES[key][1] != "one":
                object.__setattr__(self, key, tuple(value))
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
        # before selected_q builds a range up to such a bound
        for q in [*(self.q_list or ()), *(self.q_range or ())]:
            check_q_limit(q)
        if self.q_range is not None:
            if self.q_range[0] > self.q_range[1]:
                raise ConfigError(f"q_range low {self.q_range[0]} exceeds high {self.q_range[1]}")

    @classmethod
    def from_dict(cls, data: dict) -> RunConfig:
        unknown = set(data) - set(_KEY_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def selected_q(self) -> list[int] | None:
        """The q values selected in ascending order, None when none is set;
        no construction takes a q below 3, so a range is built from 3."""
        if not self.q_list and self.q_range is None:
            return None
        qs: set[int] = set(self.q_list or [])
        if self.q_range is not None:
            lo, hi = self.q_range
            qs.update(range(max(lo, 3), hi + 1))
        return sorted(qs)

    def selects_q(self, q: int) -> bool:
        """Whether the q selection takes q; with none set, every q is taken."""
        if not self.q_list and self.q_range is None:
            return True
        in_range = self.q_range is not None and self.q_range[0] <= q <= self.q_range[1]
        return in_range or q in (self.q_list or ())

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
    """The rows of one construction (family, q, h), in ascending k, at the
    level the oracle flags ask for; FamilyError when it does not apply.

    include_qmds_datapoints defaults to False here, so the zero-ebit rows
    below the threshold are left out, whereas Construction.indices and
    RunConfig default to True (the `family` command passes RunConfig's
    value).  The benchmark's table-entry runs call this without the
    keyword and rely on that default: published table entries hold no
    QMDS datapoint rows.
    """
    c = construction(family, q, h)
    name = family.value
    rows = []
    for k, t in c.defining_sets(c.indices(include_qmds_datapoints)):
        p = instance_params(c, k, t, rank_oracle=rank_oracle,
                            exact_distance=exact_distance,
                            distance_budget=distance_budget)
        # positional, in CatalogRow's field order: cheaper per row than keywords
        rows.append(CatalogRow(name, q, h, p.n, p.k, p.d, p.c, p.mds, p.verified,
                               source_table))
    return rows


def generate_catalog(config: RunConfig) -> tuple[list[CatalogRow], list[str]]:
    """All requested rows plus footnote lines, deterministically ordered."""
    families = config.family_filter()
    if config.tables:
        # an entry listed in two tables is built once; the q and family
        # selections filter the entries without building the q selection
        combos = [combo for combo in dict.fromkeys(
                      (TABLE_FAMILY[table] or table1_family(q), q, h)
                      for table in sorted(config.tables) for q, h in TABLE_ENTRIES[table])
                  if combo[0] in families and config.selects_q(combo[1])]
    elif (qs := config.selected_q()) is None:
        raise ConfigError("no q values selected: set tables, q_list, or q_range")
    else:
        combos = applicable_combos(qs, families)
    datapoints = config.include_qmds_datapoints and not config.tables  # no table lists one
    rows_of = partial(rows_for_combo, rank_oracle=config.rank_oracle,
                      exact_distance=config.exact_distance,
                      distance_budget=config.distance_budget, include_qmds_datapoints=datapoints)
    rows = [row for chunk in fan_out(rows_of, combos, config.workers) for row in chunk]
    rows.sort(key=CatalogRow.sort_key)

    notes = []
    if any(row.family in (FamilyId.TENTH_3.value, FamilyId.TENTH_7.value) for row in rows):
        notes.append(TENTH_RANGE_NOTE)
    return rows, notes


def _check_row_consistency(row: CatalogRow) -> None:
    if row.mds and row.n + row.c - row.k != 2 * (row.d - 1):
        raise VerificationError(f"row {row} marked MDS but Singleton equality fails")


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
