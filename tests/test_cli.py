import hashlib
import json
import resource
import subprocess

import pytest

from eaqmds import cli, codes, verify
from eaqmds.cli import main
from eaqmds.codes import exact_distance_small
from eaqmds.cosets import all_cosets, make_spec
from pins import run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv, timeout, preexec_fn=None):
    """pins.run's result for argv, with stdout and stderr decoded."""
    proc = run(argv, timeout, preexec_fn=preexec_fn)
    return subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout.decode(),
                                       proc.stderr.decode())


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


def test_cosets_listed_by_leader_when_omega_ends_with_class_0(capsys):
    # for r = 1, Omega in index order is 1, 2, ..., rn - 1, 0
    assert [c.leader for c in all_cosets(make_spec(4, 1, 5))] == [0, 1, 2, 3, 4]
    code, out, _ = run_cli(capsys, "cosets", "4", "1", "5")
    assert code == 0
    assert out.splitlines()[2] == "C_0 = {0}  skew-symmetric"


def test_cosets_invalid_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "cosets", "5", "4", "26")
    assert code == 2 and "divide" in err


# rn = r*n = 1 once made the order loop of make_spec run forever, so
# these run in a child process with a timeout
@pytest.mark.parametrize("argv,rc,out,err", [
    (["cosets", "3", "1", "1"], 0,
     "spec: q=3 r=1 n=1 rn=1 m=1\ncosets: 1\nC_0 = {0}  skew-symmetric\n", ""),
    (["decompose", "3", "1", "1", "--cosets", "0"], 0,
     "spec: q=3 r=1 n=1 rn=1\nT     = [0]\nT^-q  = [0]\nT_ss  = [0]  (|T_ss| = 1)\n"
     "T_sas = []\ndual-containing: false\n", ""),
    (["code", "3", "1", "1", "--cosets", "0", "--rank-oracle"], 2,
     "", "error: ebit count 1 outside [0, 0]\n"),
], ids=["cosets", "decompose", "code-rank-oracle"])
def test_length_one_spec_terminates(argv, rc, out, err):
    proc = run_child(argv, 60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)


# a q near 10^18 once started a trial division of about 5*10^8 divisors,
# before factorize took only n < 2^32; these run in a child process with a
# timeout, like those above
HUGE_Q = "1000000000000000009"


@pytest.mark.parametrize("argv", [
    ["cosets", HUGE_Q, "2", "5"],
    ["family", "Q2P1_NEGA", HUGE_Q],
    ["catalog", "--q", HUGE_Q],
], ids=["cosets", "family", "catalog"])
def test_huge_q_is_rejected_without_factoring(argv):
    proc = run_child(argv, 60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: cannot factor {HUGE_Q}: trial division takes 1 <= n < 2^32\n")


def _cap_address_space():
    cap = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


# a q range up to 2^32 once built a 4.3-billion-element set and verify
# --q-max 2^32 once looped over every odd q below it; the address-space cap
# and the timeout make such a run fail here instead of exhausting the host
@pytest.mark.parametrize("argv", [
    ["catalog", "--q-range", "3:4294967296"],
    ["verify", "--q-max", "4294967296"],
    ["catalog", "--q", "4294967296"],
    ["--config", "{config}", "catalog"],
], ids=["q-range", "verify-q-max", "q-list", "config-q-range"])
def test_q_of_2_to_the_32_exits_2_at_once(argv, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"q_range": [3, 4294967296]}', encoding="utf-8")
    proc = run_child([a.format(config=config) for a in argv], 20,
                     preexec_fn=_cap_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cannot factor 4294967296: trial division takes 1 <= n < 2^32"]


# a range from -2^32 once built a 4.3-billion-element set; no construction
# takes a q below 3, so each of these selects what --q-range 3:3 selects,
# nothing, and prints the header only instead of falling back to the tables
@pytest.mark.parametrize("argv", [
    ["catalog", "--q-range=-4294967296:3"],
    ["catalog", "--q-range=-5:-1"],
    ["catalog", "--q-range", "1:2"],
], ids=["from-minus-2-to-the-32", "negative", "below-3"])
def test_q_range_below_3_selects_nothing_at_once(argv, capsys):
    code, expected, _ = run_cli(capsys, "catalog", "--q-range", "3:3")
    assert code == 0
    proc = run_child(argv, 20, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


# a q selection only filters the table entries, yet --tables with a range up
# to 2^32 - 1 once built that range first and ran out of memory
def test_tables_with_a_q_range_up_to_2_to_the_32_filter_the_entries_only():
    proc = run(["catalog", "--tables", "4", "--q-range", "3:4294967295"], 20,
               preexec_fn=_cap_address_space)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "472badbdf9546d1f02dcc83c53f120dd9b919bbd8e374d2df0955b640909e252")


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


def test_decompose_json_bytes(capsys):
    # leaders and t_sas are derived from T and T_ss; their printed values stay
    code, out, _ = run_cli(capsys, "decompose", "5", "2", "26",
                           "--cosets", "13,15,17,19", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["leaders"], payload["t_sas"]) == ([7, 9, 11, 13], [11, 13, 15])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f5b67efa7bc1b70cde08d80a4ea1294bb0c890751a559ca3a45781202a11dfa2")


# the single 50,001-class coset of q=3 r=4 n=100003 was once split by one
# coset() call per class, past a 20 s timeout; both commands must end at
# once: decompose prints T, and code is refused at the field-order budget
@pytest.mark.parametrize("command,rc", [("decompose", 0), ("code", 2)])
def test_one_huge_coset_is_walked_once(command, rc):
    proc = run_child([command, "3", "4", "100003", "--cosets", "1"], 15)
    assert proc.returncode == rc
    if rc == 0:
        assert proc.stdout.startswith("spec: q=3 r=4 n=100003 rn=400012\n")
        assert proc.stderr == ""
    else:
        assert (proc.stdout, proc.stderr) == (
            "", "error: field order 3^100002 exceeds the 4294967296 budget\n")


def test_code_command_with_oracles(capsys):
    code, out, _ = run_cli(capsys, "code", "5", "3", "8", "--cosets", "1,4,7",
                           "--rank-oracle", "--exact-distance")
    # the whole text, also pinned in tests/pins.py; the EA line is EaqParams.__str__
    assert (code, out) == (0, "[8, 5, >=4] over GF(5^2)\n"
                              "defining set: [1, 4, 7]\n"
                              "gen poly coefficient codes: [1, 11, 3, 1]\n"
                              "|T_ss| = 1\n"
                              "EA parameters: [[8, 3, 4; 1]]_5 mds=true\n"
                              "exact distance: 4 (mds-bch)\n")


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


def test_verify_fails_when_the_descent_canary_is_accepted(monkeypatch, capsys):
    # a build_code that accepts the split coset {13, 15}: the negative control
    # must turn into a FAIL line, and verify into exit 1
    monkeypatch.setattr(verify, "build_code", lambda spec, t: None)
    code, out, _ = run_cli(capsys, "verify", "--q-max", "5", "--no-exact-distance")
    assert code == 1
    lines = out.splitlines()
    assert ("[FAIL] descent-canary q=5 (drop one coset element) -> - (negative-control) "
            ":: corrupted defining set was not rejected") in lines
    assert lines[-1].endswith(" ok, 1 failed")


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


def test_code_exact_distance_fits_default_budget(capsys):
    # d = 6 takes 231,526 subset evaluations rooted at column 0, inside the
    # default budget of 10^6; taking every column as the first one takes
    # 2,369,935
    code, out, _ = run_cli(capsys, "code", "7", "2", "50", "--cosets", "21,23,25,27,29",
                           "--exact-distance")
    assert code == 0
    assert "exact distance: 6 (mds-bch)" in out.splitlines()


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
    proc = run_child(["--config", str(path), "catalog", "--tables", "4"], 60)
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
