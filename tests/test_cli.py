import hashlib
import json
import os
import subprocess
import sys

import pytest

import eaqmds
from eaqmds import cli, codes
from eaqmds.cli import main
from eaqmds.codes import exact_distance_small


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------

def test_cosets_negacyclic_partition(capsys):
    code, out, _ = run_cli(capsys, "cosets", "5", "2", "26")
    assert code == 0
    assert "cosets: 14" in out
    assert "C_13 = {13}" in out
    assert "C_7 = {7, 19}  paired-with-C_9" in out


def test_cosets_skew_symmetric_flag(capsys):
    code, out, _ = run_cli(capsys, "cosets", "13", "2", "17")
    assert code == 0
    assert "C_17 = {17}  skew-symmetric" in out


def test_cosets_all_singletons(capsys):
    code, out, _ = run_cli(capsys, "cosets", "5", "3", "8")
    assert code == 0
    assert "cosets: 8" in out
    assert "C_4 = {4}  skew-symmetric" in out


def test_cosets_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "cosets", "5", "3", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["rn"] == 24 and len(payload["cosets"]) == 8


def test_cosets_invalid_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "cosets", "5", "4", "26")
    assert code == 2 and "divide" in err


# ---------------------------------------------------------------------------
# decompose and code
# ---------------------------------------------------------------------------

def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "5", "2", "26",
                           "--cosets", "13,15,17,19")
    assert code == 0
    assert "T_ss  = [7, 9, 17, 19]" in out
    assert "|T_ss| = 4" in out
    assert "dual-containing: false" in out


def test_code_command_with_oracles(capsys):
    code, out, _ = run_cli(capsys, "code", "5", "3", "8", "--cosets", "1,4,7",
                           "--rank-oracle", "--exact-distance")
    assert code == 0
    assert "[8, 5, >=4]" in out
    assert "[[8, 3, 4; 1]]_5" in out
    assert "exact distance: 4" in out


def test_code_command_corrupted_elements_exit_1(capsys):
    code, _, err = run_cli(capsys, "code", "5", "2", "26", "--elements", "13,15")
    assert code == 1
    assert "not closed" in err


def test_code_command_split_coset_message_and_verify_canary(capsys):
    message = ("generator coefficients left F_5^2; defining set [13, 15] "
               "is not closed under multiplication by q^2")
    code, out, err = run_cli(capsys, "code", "5", "2", "26", "--elements", "13,15")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "verify", "--q-max", "5", "--no-exact-distance")
    assert code == 0
    assert ("[ok] descent-canary q=5 (drop one coset element) -> rejected as expected "
            "(negative-control)") in out.splitlines()


# gen_poly_coeffs is the one output that shows the subfield descent map;
# digests taken before descent became a table lookup
@pytest.mark.parametrize("spec,digest", [
    ("3 4 10 --cosets 1", "9ea9cc6e9e89205844a85c666dc7cc9e34702b05c17396d58725131f00b4185c"),
    ("5 2 26 --cosets 13,15,17,19",
     "24dbbe8dbfb3d2af1fd556b43d429422dfc2b40e5a6fd8e1709d7f82c9c29860"),
    ("7 8 50 --cosets 1,9", "6a7c0ce2035c12dec40d3287e30dbe8cf49a647cc81889f90fba574a489269cd"),
    ("9 2 82 --cosets 1,3", "5a9a411df582d14a3b7daa3874c1a313c6d62a7c041b3acb657dbe1c7d6e47d9"),
    ("11 12 122 --cosets 1,13",
     "9b7d15258f211741a7dcb9ad6c6db34bc3235390b4622bd42d90d19ad8a238e9"),
    ("13 2 17 --cosets 1", "cf2fc8e3948d2ea2bd83ae2d06f9f4bca1158fe9a6c54794591ba79e08449c9f"),
    ("17 2 29 --cosets 1", "e7f052c255ee48e4f00c3f59d014779bc4b19c8e2e186e0ae07f5a858e59c67e"),
], ids=lambda v: v.split()[0] if " " in v else None)
def test_code_json_bytes_are_pinned(capsys, spec, digest):
    code, out, _ = run_cli(capsys, "--format", "json", "code", *spec.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,searches,digest", [
    (["code", "7", "8", "50", "--cosets", "1,9", "--exact-distance"], 1,
     "56f94dea1f4a5d5dd8d45577f3021c3774cf230385a0b0f147559b2550f8e822"),
    (["code", "5", "2", "26", "--cosets", "1,3", "--exact-distance"], 1,
     "13019e81a731976fc2100977008561f11730060dc4017d0306a9759e1ecfda6e"),
    # a cap below n - k + 1 = 5 leaves the distance open for the verdict
    (["--distance-cap", "2", "code", "7", "8", "50", "--cosets", "1,9", "--exact-distance"], 2,
     "b764a6acf6ff6f577d7ca0c3f8a85cff3980395a85706d14c51198ab956bb58a"),
], ids=["q7", "q5", "q7-capped"])
def test_code_exact_distance_searches_once_unless_capped(capsys, monkeypatch, argv,
                                                         searches, digest):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("cap"))
        return exact_distance_small(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_distance_small", counted)
    monkeypatch.setattr(codes, "exact_distance_small", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == searches
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_code_empty_cosets_exit_2(capsys):
    code, out, err = run_cli(capsys, "code", "5", "3", "8", "--cosets", "")
    assert (code, out, err) == (2, "", "error: defining set is empty\n")


def test_code_distance_cap_flag(capsys):
    code, out, _ = run_cli(capsys, "--distance-cap", "2", "--format", "json",
                           "code", "5", "3", "8", "--cosets", "1,4,7",
                           "--exact-distance")
    assert code == 0
    assert json.loads(out)["exact_distance"] == "exceeds-cap"


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def test_family_rows_csv(capsys):
    code, out, _ = run_cli(capsys, "family", "QM1_H", "13", "--h", "7",
                           "--no-qmds-datapoints")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,q,h,n,k,d,c,mds,verified"
    assert lines[1] == "QM1_H,13,7,24,21,3,1,true,bch-only"
    assert len(lines) == 1 + 7  # d = 3..9


def test_family_rows_json_rank_oracle(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "family", "TENTH_3", "13",
                           "--rank-oracle")
    assert code == 0
    rows = json.loads(out)
    assert [r["d"] for r in rows] == [2, 4, 6, 8]
    assert all(r["verified"] == "rank-oracle" for r in rows)


def test_family_inapplicable_exit_2(capsys):
    code, _, err = run_cli(capsys, "family", "Q2P1_NEGA", "7")
    assert code == 2 and "mod 4" in err


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_table_1_reproduction(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--tables", "1")
    assert code == 0
    lines = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
    qs = sorted({int(l.split(",")[1]) for l in lines})
    assert qs == [9, 13, 17, 19, 25, 29]
    for line in lines:
        family, q, h, n, k, d, c, mds, _ = line.split(",")
        q, n, k, d, c = int(q), int(n), int(k), int(d), int(c)
        assert n == q * q + 1 and c == 4 and k == q * q + 7 - 2 * d
        assert q + 3 <= d <= 3 * q - 1 and d % 2 == 0
        assert mds == "true"


def test_catalog_out_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--out", str(out1), "catalog", "--tables", "5,6"]) == 0
    assert main(["--out", str(out2), "catalog", "--tables", "5,6"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_catalog_empty_family_filter(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--families", "TENTH_7", "--q", "13")
    assert code == 0
    assert out.strip() == "family,q,h,n,k,d,c,mds,verified"


def test_catalog_tables_filtered_by_q_and_family(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--tables", "4", "--q", "13")
    assert code == 0
    rows = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert rows and {l.split(",")[1] for l in rows} == {"13"}
    _, every, _ = run_cli(capsys, "catalog", "--tables", "4")
    assert [l for l in every.splitlines() if l.startswith("TENTH_3,13,")] == rows
    code, out, _ = run_cli(capsys, "catalog", "--tables", "4", "--families", "QM1_H")
    assert code == 0
    assert out == "family,q,h,n,k,d,c,mds,verified\n"
    code, out, _ = run_cli(capsys, "catalog", "--tables", "4,6", "--q-range", "11:17",
                           "--families", "qm1_h")
    assert code == 0
    assert {l.split(",")[1] for l in out.splitlines()[1:]} == {"11", "13", "17"}


def test_catalog_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tables": [4], "format": "csv"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--format", "json", "catalog")
    assert code == 0
    rows = json.loads(out)
    assert {r["q"] for r in rows} == {13, 23, 43, 53}


def test_catalog_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "catalog", "--tables", "4")
    assert code == 2 and "format" in err


def test_catalog_bad_table_exit_2(capsys):
    code, _, err = run_cli(capsys, "catalog", "--tables", "3")
    assert code == 2 and "unknown tables" in err


def test_catalog_json_has_no_comment_rows(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "catalog", "--tables", "4")
    assert code == 0
    rows = json.loads(out)
    assert all(set(r) == {"family", "q", "h", "n", "k", "d", "c", "mds", "verified"}
               for r in rows)


def test_catalog_q_range(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--q-range", "5:9",
                           "--families", "QM1_H")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert {int(l.split(",")[1]) for l in lines} == {5, 9}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q-max", "5", "--no-exact-distance")
    assert code == 0
    assert "0 failed" in out
    assert "[ok] Q2P1_NEGA q=5" in out
    assert "descent-canary" in out
    assert "note:" in out


def test_verify_family_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q-max", "9",
                           "--families", "QM1_H", "--no-exact-distance")
    assert code == 0
    assert "Q2P1_NEGA" not in out.replace("note:", "")  # only notes may mention others
    assert "[ok] QM1_H q=5 h=3" in out


# the exact-distance sweep is verify's default; digest taken before the
# flags and the config file became one settings namespace
def test_verify_exact_distance_default_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q-max", "9", "--families", "QM1_H")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "293469ae93745b682285ba9dc27f5a2a4634438e907e5b68fbc3fe38be865382")


def test_verify_unknown_family_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--families", "QM1_H,foo")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown families ['foo']; available: ")


def test_verify_with_no_family_instance_in_scope_exit_2(capsys):
    # the descent canary alone must not pass for a verification run
    code, out, err = run_cli(capsys, "verify", "--q-max", "3")
    assert code == 2 and out == "" and "no family instance" in err
    code, _, err = run_cli(capsys, "verify", "--q-max", "11", "--families", "TENTH_3")
    assert code == 2 and "no family instance" in err


@pytest.mark.parametrize("argv,config", [
    (["--families", ""], None),
    (["--families", ","], None),
    ([], {"families": []}),
], ids=["empty", "comma", "config"])
def test_verify_empty_family_selection_exit_2(tmp_path, capsys, argv, config):
    prefix = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        prefix = ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, *prefix, "verify", "--q-max", "5", *argv)
    assert (code, out) == (2, "")
    assert err == ("error: no family instance in scope for q <= 5: "
                   "the family selection is empty\n")


# ---------------------------------------------------------------------------
# the config file and the flags are one settings namespace
# ---------------------------------------------------------------------------

# (base argv, key, file value, flag, contrary file value)
SETTINGS = {
    "code-rank_oracle": (["code", "5", "3", "8", "--cosets", "1,4,7"],
                         "rank_oracle", True, ["--rank-oracle"], False),
    "code-exact_distance": (["code", "5", "3", "8", "--cosets", "1,4,7"],
                            "exact_distance", True, ["--exact-distance"], False),
    "code-distance_cap": (["code", "7", "8", "50", "--cosets", "1,9", "--exact-distance"],
                          "distance_cap", 2, ["--distance-cap", "2"], 10),
    "family-rank_oracle": (["family", "TENTH_3", "13"],
                           "rank_oracle", True, ["--rank-oracle"], False),
    "family-exact_distance": (["family", "TENTH_3", "13"],
                              "exact_distance", True, ["--exact-distance"], False),
    "family-include_qmds_datapoints": (["family", "Q2P1_NEGA", "5"],
                                       "include_qmds_datapoints", False,
                                       ["--no-qmds-datapoints"], True),
    "catalog-tables": (["catalog"], "tables", [4], ["--tables", "4"], [6]),
    "catalog-families": (["catalog", "--q", "13"], "families", ["TENTH_3"],
                         ["--families", "TENTH_3"], ["QM1_H"]),
    "catalog-q_list": (["catalog", "--families", "TENTH_3"], "q_list", [13],
                       ["--q", "13"], [23]),
    "catalog-q_range": (["catalog", "--families", "QM1_H"], "q_range", [5, 9],
                        ["--q-range", "5:9"], [11, 13]),
    "catalog-rank_oracle": (["catalog", "--q", "7"], "rank_oracle", True,
                            ["--rank-oracle"], False),
    "catalog-exact_distance": (["catalog", "--q", "7"], "exact_distance", True,
                               ["--exact-distance"], False),
    "verify-families": (["verify", "--q-max", "5", "--no-exact-distance"], "families",
                        ["QM1_H"], ["--families", "QM1_H"], ["Q2P1_NEGA"]),
    "verify-exact_distance": (["verify", "--q-max", "9", "--families", "QM1_H"],
                              "exact_distance", False, ["--no-exact-distance"], True),
    "cosets-format": (["cosets", "5", "3", "8"], "format", "json", ["--format", "json"],
                      "csv"),
    "family-out": (["family", "QM1_H", "5", "--h", "3"], "out", "rows.csv",
                   ["--out", "rows.csv"], "other.csv"),
    "code-distance_budget": (["code", "5", "2", "26", "--cosets", "1,3", "--exact-distance"],
                             "distance_budget", 10, ["--distance-budget", "10"], 10**6),
}


@pytest.mark.parametrize("case", SETTINGS.values(), ids=SETTINGS.keys())
def test_config_key_matches_its_flag(tmp_path, monkeypatch, capsys, case):
    base, key, value, flag, contrary = case
    monkeypatch.chdir(tmp_path)

    def run(config, *extra):
        argv = list(base) + list(extra)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps({key: config}))
            argv = ["--config", "cfg.json"] + argv
        result = run_cli(capsys, *argv)
        written = {p.name: p.read_text() for p in tmp_path.glob("*.csv")}
        for p in tmp_path.glob("*.csv"):
            p.unlink()
        return result, written

    by_flag = run(None, *flag)
    assert by_flag != run(None)  # the key changes the run
    assert run(value) == by_flag
    assert run(contrary, *flag) == by_flag


# ---------------------------------------------------------------------------
# bad input: exit 2 with a one-line message, never a traceback
# ---------------------------------------------------------------------------

def test_catalog_reversed_q_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "catalog", "--q-range", "9:5")
    assert code == 2 and out == ""
    assert err == "error: q_range low 9 exceeds high 5\n"


@pytest.mark.parametrize("config", [
    {"workers": "4"},
    {"workers": True},
    {"distance_budget": "10"},
    {"distance_cap": 2.5},
    {"q_range": 5},
    {"q_range": [5]},
    {"q_range": [5, "9"]},
    {"families": "QM1_H"},
    {"families": [1]},
    {"tables": [4, "5"]},
    {"q_list": "5,7"},
    {"rank_oracle": 1},
    {"format": ["csv"]},
    {"out": 3},
])
def test_config_key_types_exit_2(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eaqmds.__file__)))
    proc = subprocess.run([sys.executable, "-m", "eaqmds.cli", "--config", str(path),
                           "catalog", "--tables", "4"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: config key ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# output bytes pinned to digests taken before the single-pipeline refactor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,digest", [
    (["catalog", "--tables", "1,2,4,5,6"],
     "6d074b4ad62ebeb6d9583176eec0ba2513f01e2122e2b672f4bc1055177e13fd"),
    (["--format", "json", "catalog", "--tables", "1,2,4,5,6"],
     "7e7e89e1dfd019c1e551dd47994e091c9b30cd711d86f80d30fde6b6f802ffc0"),
    (["verify", "--q-max", "7", "--no-exact-distance"],
     "a14bb4a9cbbc75742dcf8e7dda3b8eb8e0c0db7bc0d60ed078a9d1d179d3de5c"),
], ids=["tables-csv", "tables-json", "verify-q7"])
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
