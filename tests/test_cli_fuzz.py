"""Hypothesis tests over command-line argv and config-file JSON.

Whatever the input, main() returns 0, 1 or 2, no exception escapes it, and
a failing run explains itself on stderr in one `error: ...` line or in an
argparse usage error.  The argv grammar covers every subcommand and its
flags with small ints, empty strings, bad tokens, reversed ranges and
unknown names.  To keep one example well inside Hypothesis' deadline it
keeps q <= 13 (q <= 7 where a family is enumerated), --workers <= 2, and it
always passes a small --distance-budget, so an exact-distance sweep is
skipped or stops early instead of running for seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, strategies as st

from eaqmds.cli import main

# paths are drawn under a placeholder for the test's working directory
WORK = "@WORK@"
OUT_FILE = f"{WORK}/out.txt"
CONFIG_FILE = f"{WORK}/config.json"
GOOD_CONFIG = f"{WORK}/good.json"
NOT_JSON = f"{WORK}/not.json"

TOKENS = ["-1", "0", "2", "3", "5", "7", "9", "13", "", "x", "1.5"]
SPECS = [["5", "3", "8"], ["5", "2", "26"], ["7", "8", "50"], ["13", "2", "17"],
         ["3", "4", "10"], ["9", "2", "82"], ["5", "4", "26"]]
INT_LISTS = ["", ",", "1", "1,4,7", "13,15,17,19", "1,,3", "x", "1,x", "-3", "99"]
FAMILY_NAMES = ["QM1_H", "TENTH_3", "TENTH_7", "Q2P1_NEGA", "Q2P1_CONSTA", "NEGA", ""]
FAMILY_LISTS = ["", ",", "QM1_H", "qm1_h", "TENTH_3,Q2P1_NEGA", "foo", "QM1_H,foo"]
TABLES = ["", ",", "4", "6", "2,6", "1,2,4,5,6", "3", "x"]
SMALL_Q_LISTS = ["", "5", "3,5,7", "7,5", "x", "0", "-1"]
Q_RANGES = ["3:7", "5:5", "3:5", "7:3", "5", ":", "a:b", "", "3:5:7"]
OUTS = ["", OUT_FILE, WORK, f"{WORK}/missing/out.txt"]
CONFIGS = ["", GOOD_CONFIG, NOT_JSON, f"{WORK}/missing.json"]


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli-fuzz")
    (path / "not.json").write_text("{not json")
    (path / "good.json").write_text(
        json.dumps({"q_list": [5], "rank_oracle": True, "families": ["QM1_H"]}))
    return str(path)


def _maybe(draw, flag, values) -> list[str]:
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []


def _oracle_flags(draw) -> list[str]:
    return [f for f in ("--rank-oracle", "--exact-distance") if draw(st.booleans())]


def _spec(draw) -> list[str]:
    if draw(st.booleans()):
        return list(draw(st.sampled_from(SPECS)))
    return [draw(st.sampled_from(TOKENS)) for _ in range(3)]


@st.composite
def global_flags(draw) -> list[str]:
    flags = ["--distance-budget", draw(st.sampled_from(["-1", "0", "1", "100", "1000", "x"]))]
    flags += _maybe(draw, "--format", ["csv", "json", "xml"])
    flags += _maybe(draw, "--workers", ["-1", "0", "1", "2", "x"])
    flags += _maybe(draw, "--distance-cap", ["-1", "0", "1", "2", "5", "x"])
    flags += _maybe(draw, "--out", OUTS)
    flags += _maybe(draw, "--config", CONFIGS)
    return flags


@st.composite
def subcommands(draw) -> list[str]:
    name = draw(st.sampled_from(["cosets", "decompose", "code", "family", "catalog",
                                 "verify"]))
    if name == "cosets":
        return ["cosets", *_spec(draw)]
    if name == "decompose":
        return ["decompose", *_spec(draw), *_maybe(draw, "--cosets", INT_LISTS)]
    if name == "code":
        return ["code", *_spec(draw), *_maybe(draw, "--cosets", INT_LISTS),
                *_maybe(draw, "--elements", INT_LISTS), *_oracle_flags(draw)]
    if name == "family":
        return ["family", draw(st.sampled_from(FAMILY_NAMES)),
                draw(st.sampled_from(["-1", "0", "3", "5", "7", "x"])),
                *_maybe(draw, "--h", ["0", "-2", "3", "4", "5", "7", "x"]),
                *_oracle_flags(draw),
                *(["--no-qmds-datapoints"] if draw(st.booleans()) else [])]
    if name == "catalog":
        # a q range is always given, so no selection reaches past q = 7
        return ["catalog", "--q-range", draw(st.sampled_from(Q_RANGES)),
                *_maybe(draw, "--tables", TABLES),
                *_maybe(draw, "--families", FAMILY_LISTS),
                *_maybe(draw, "--q", SMALL_Q_LISTS), *_oracle_flags(draw)]
    return ["verify", "--q-max", draw(st.sampled_from(["-1", "0", "3", "5", "7", "x"])),
            *_maybe(draw, "--families", FAMILY_LISTS),
            *(["--no-exact-distance"] if draw(st.booleans()) else [])]


@st.composite
def argvs(draw) -> list[str]:
    flags, command = draw(global_flags()), draw(subcommands())
    if draw(st.booleans()):  # the global flags are accepted after the subcommand too
        return [command[0], *flags, *command[1:]]
    return [*flags, *command]


def run_main(argv: list[str], work: str) -> tuple[int, str, str]:
    argv = [arg.replace(WORK, work) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        one_error = len(lines) == 1 and lines[0].startswith("error: ")
        usage = (code == 2 and bool(lines) and lines[0].startswith("usage: eaqmds")
                 and lines[-1].startswith("eaqmds") and ": error: " in lines[-1])
        assert one_error or usage, err


@given(argvs())
@example(argv=["--distance-budget", "1000", "code", "5", "3", "8", "--cosets", ""])
def test_cli_argv_exits_cleanly(work, argv):
    code, _, err = run_main(argv, work)
    assert_clean_exit(code, err)


KEY_VALUES = {
    "tables": [None, [4], [6], [], [3], [4, "5"], "4", [True]],
    "families": [None, ["QM1_H"], ["qm1_h"], [], ["foo"], "QM1_H", [1]],
    "q_list": [None, [5], [3, 7], [], ["5"], "5,7", [True]],
    "q_range": [None, [3, 7], [7, 3], [5], [5, "9"], 5, "3:7"],
    "rank_oracle": [True, False, 1, "true", None],
    "exact_distance": [True, False, 0, None],
    "distance_cap": [None, 1, 2, 0, -1, 2.5, "2", True],
    "distance_budget": [1, 1000, 0, "10", True, None, 2.5],
    "format": ["csv", "json", "xml", ["csv"], None],
    "out": [None, "", OUT_FILE, WORK, 3],
    "workers": [1, 2, 0, -1, "2", True, None],
    "include_qmds_datapoints": [True, False, "no", None],
    "bogus": [1],
}
configs = st.one_of(
    st.fixed_dictionaries({}, optional={key: st.sampled_from(values)
                                        for key, values in KEY_VALUES.items()}),
    st.sampled_from([[], "tables", 3, None]))
# one cheap run per subcommand; the flag budget caps any exact-distance sweep
CONFIG_RUNS = [
    ["cosets", "5", "3", "8"],
    ["decompose", "5", "2", "26", "--cosets", "13,15,17,19"],
    ["code", "5", "3", "8", "--cosets", "1,4,7"],
    ["family", "QM1_H", "5", "--h", "3"],
    ["family", "Q2P1_NEGA", "5"],
    ["catalog", "--q-range", "3:7"],
    ["verify", "--q-max", "5"],
]


@given(configs, st.sampled_from(CONFIG_RUNS))
def test_cli_config_file_exits_cleanly(work, config, command):
    with open(CONFIG_FILE.replace(WORK, work), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(config).replace(WORK, work))
    code, _, err = run_main(["--distance-budget", "1000", "--config", CONFIG_FILE,
                             *command], work)
    assert_clean_exit(code, err)
