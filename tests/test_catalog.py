import dataclasses
import json
import sys

import pytest

from eaqmds import catalog, codes, cosets
from eaqmds.catalog import (CatalogRow, ConfigError, RunConfig, TABLE_ENTRIES,
                            generate_catalog, read_config_file, rows_for_combo,
                            serialize, serialize_csv, serialize_json, table1_family)
from eaqmds.codes import distance_check_feasible
from eaqmds.families import FamilyId, construction
from eaqmds.verify import run_verification


def test_table1_family_resolution():
    assert table1_family(9) is FamilyId.Q2P1_NEGA
    assert table1_family(19) is FamilyId.Q2P1_CONSTA


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(format="xml")
    with pytest.raises(ConfigError):
        RunConfig(workers=0)
    with pytest.raises(ConfigError):
        RunConfig(distance_cap=0)
    with pytest.raises(ConfigError):
        RunConfig(tables=[3])
    with pytest.raises(ConfigError):
        RunConfig(families=["NOPE"])
    RunConfig(tables=[1, 6], families=["qm1_h"], workers=2)


def test_config_is_frozen_and_rechecked_on_replace():
    cfg = RunConfig.from_dict({"q_range": [3, 7]})
    assert cfg.q_range == (3, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.workers = 2
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, workers=0)


# a frozen config once held its lists as given: appending a table to one
# made generate_catalog fail with KeyError 3, and hash() raised TypeError
def test_config_holds_its_lists_as_tuples():
    cfg = RunConfig(tables=[4], families=["tenth_3"], q_list=[5, 13], q_range=[3, 7])
    assert (cfg.tables, cfg.families, cfg.q_list, cfg.q_range) == (
        (4,), ("tenth_3",), (5, 13), (3, 7))
    with pytest.raises(AttributeError):
        cfg.tables.append(3)
    assert hash(cfg) == hash(RunConfig(tables=(4,), families=("tenth_3",), q_list=(5, 13),
                                       q_range=(3, 7)))
    assert dataclasses.replace(cfg, tables=[1]).tables == (1,)


# run_verification once took any budget or worker count: a budget of 0 or -1
# dropped every row to rank-oracle, and 0 workers ran serially
@pytest.mark.parametrize("keywords,message", [
    ({"distance_budget": 0}, "distance budget must be positive"),
    ({"distance_budget": -1}, "distance budget must be positive"),
    ({"workers": 0}, "workers must be >= 1"),
], ids=["budget-0", "budget-negative", "workers-0"])
def test_run_verification_checks_its_settings(keywords, message):
    with pytest.raises(ConfigError) as err:
        run_verification(q_max=5, **keywords)
    assert str(err.value) == message


def test_config_from_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tables": [4], "format": "json", "workers": 2}))
    cfg = RunConfig.from_dict(read_config_file(str(path)))
    assert cfg.tables == (4,) and cfg.format == "json" and cfg.workers == 2
    path.write_text("not json")
    with pytest.raises(ConfigError):
        read_config_file(str(path))
    path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ConfigError):
        read_config_file(str(path))


def test_selected_q_merges_list_and_range():
    cfg = RunConfig(q_list=[5, 13], q_range=(7, 9))
    assert cfg.selected_q() == [5, 7, 8, 9, 13]


def test_generate_catalog_requires_scope():
    with pytest.raises(ConfigError):
        generate_catalog(RunConfig())


def test_table_rows_shape():
    rows, notes = generate_catalog(RunConfig(tables=[4]))
    assert notes  # the published summary-table range discrepancy is surfaced
    by_q = {}
    for row in rows:
        assert row.family == "TENTH_3" and row.c == 1 and row.mds
        by_q.setdefault(row.q, []).append(row)
    assert sorted(by_q) == [13, 23, 43, 53]
    for q, qrows in by_q.items():
        m = (q - 3) // 10
        assert [r.d for r in qrows] == list(range(2, 6 * m + 3, 2))
        n = (q * q + 1) // 10
        assert all(r.n == n and r.k == n + 3 - 2 * r.d for r in qrows)


def test_catalog_general_mode_includes_qmds_datapoints():
    rows, _ = generate_catalog(RunConfig(q_list=[5], families=["Q2P1_NEGA"]))
    assert [(r.d, r.c) for r in rows] == \
        [(2, 0), (4, 0), (6, 0), (8, 4), (10, 4), (12, 4), (14, 4)]


def test_catalog_deterministic_and_sorted():
    cfg = RunConfig(tables=[1, 2, 4, 5, 6])
    rows1, notes1 = generate_catalog(cfg)
    rows2, notes2 = generate_catalog(cfg)
    assert serialize_csv(rows1, notes1) == serialize_csv(rows2, notes2)
    keys = [r.sort_key() for r in rows1]
    assert keys == sorted(keys)


def test_q19_appears_once_with_consta_family():
    rows, _ = generate_catalog(RunConfig(tables=[1, 2]))
    q19 = [r for r in rows if r.q == 19]
    assert len(q19) == len({r.d for r in q19})
    assert all(r.family == "Q2P1_CONSTA" for r in q19)
    assert sorted(r.d for r in q19) == list(range(22, 57, 2))


def test_an_entry_in_two_tables_is_built_once(monkeypatch):
    # Q2P1_CONSTA q=19 is listed in tables 1 and 2
    calls = []
    original = catalog.rows_for_combo

    def counted(family, q, h, **kwargs):
        calls.append((family, q, h))
        return original(family, q, h, **kwargs)

    monkeypatch.setattr(catalog, "rows_for_combo", counted)
    generate_catalog(RunConfig(tables=[1, 2]))
    assert len(calls) == 11
    assert [c for c in calls if c[1] == 19] == [(FamilyId.Q2P1_CONSTA, 19, None)]


def test_csv_and_json_hold_identical_rows():
    rows, notes = generate_catalog(RunConfig(tables=[6]))
    csv_text = serialize_csv(rows, notes)
    json_rows = json.loads(serialize_json(rows))
    csv_lines = [l for l in csv_text.splitlines()[1:] if not l.startswith("#")]
    assert len(csv_lines) == len(json_rows)
    for line, obj in zip(csv_lines, json_rows):
        family, q, h, n, k, d, c, mds, verified = line.split(",")
        assert obj["family"] == family and obj["q"] == int(q)
        assert obj["h"] == (None if h == "" else int(h))
        assert (obj["n"], obj["k"], obj["d"], obj["c"]) == (int(n), int(k), int(d), int(c))
        assert obj["mds"] == (mds == "true") and obj["verified"] == verified
        assert isinstance(obj["n"], int) and not isinstance(obj["n"], bool)


def test_serialization_recomputes_singleton():
    bogus = CatalogRow(family="TENTH_3", q=13, h=None, n=17, k=10, d=2, c=1,
                       mds=True, verified="bch-only")
    with pytest.raises(RuntimeError):
        serialize_csv([bogus])
    with pytest.raises(RuntimeError):
        serialize_json([bogus])


def test_serialize_rejects_an_unknown_format():
    rows = rows_for_combo(FamilyId.TENTH_3, 13, None)
    with pytest.raises(ConfigError) as err:
        serialize(rows, "xml")
    assert str(err.value) == "unknown format 'xml'"


def test_rows_for_combo_exact_distance_level():
    rows = rows_for_combo(FamilyId.TENTH_3, 13, None, rank_oracle=True,
                          exact_distance=True)
    assert all(r.verified == "exact-distance" for r in rows)
    rows = rows_for_combo(FamilyId.TENTH_3, 13, None, rank_oracle=True)
    assert all(r.verified == "rank-oracle" for r in rows)


def test_distance_feasibility_rule():
    assert distance_check_feasible(26, 7, 10**6)
    assert not distance_check_feasible(26, 8, 10**6)
    assert not distance_check_feasible(170, 37, 10**6)


def test_worker_pool_matches_sequential():
    cfg1 = RunConfig(tables=[4, 6], workers=1)
    cfg2 = RunConfig(tables=[4, 6], workers=2)
    rows1, n1 = generate_catalog(cfg1)
    rows2, n2 = generate_catalog(cfg2)
    assert serialize_csv(rows1, n1) == serialize_csv(rows2, n2)


def test_all_table_entries_cover_published_q():
    assert [q for q, _ in TABLE_ENTRIES[1]] == [9, 13, 17, 19, 25, 29]
    assert [q for q, _ in TABLE_ENTRIES[2]] == [7, 11, 19, 23, 31, 43]
    assert [q for q, _ in TABLE_ENTRIES[4]] == [13, 23, 43, 53]
    assert [q for q, _ in TABLE_ENTRIES[5]] == [17, 27, 37, 47]
    assert TABLE_ENTRIES[6] == [(11, 3), (17, 3), (19, 5), (29, 5), (13, 7), (41, 7)]


def test_rows_for_combo_builds_each_code_once(monkeypatch):
    calls = []
    original = codes.build_code

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that bound build_code under its own name
    for name, module in list(sys.modules.items()):
        if name.startswith("eaqmds") and getattr(module, "build_code", None) is original:
            monkeypatch.setattr(module, "build_code", counted)
    rows = rows_for_combo(FamilyId.TENTH_3, 13, None, rank_oracle=True,
                          exact_distance=True)
    assert len(rows) == 4
    assert len(calls) == len(rows)


def test_a_sweep_walks_one_orbit_per_index(monkeypatch):
    calls: list[int] = []
    original = cosets.coset

    def counted(spec, s):
        calls.append(s)
        return original(spec, s)

    monkeypatch.setattr(cosets, "coset", counted)
    rows = rows_for_combo(FamilyId.Q2P1_NEGA, 13, None)
    c = construction(FamilyId.Q2P1_NEGA, 13)
    # the sweep grows T from lo, so the indices below the threshold count too
    assert calls == [c.start + c.spec.r * i for i in range(c.lo, c.hi + 1)]
    assert len(rows) == c.hi - c.threshold + 1
