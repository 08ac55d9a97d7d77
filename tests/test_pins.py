"""The pinned-output runner of tests/pins.py on cheap commands, and its table."""

import os
import re

import pytest

from pins import TABLES, Pin, check, main

# catalog --tables 4 prints 42 bch-only lines in a fraction of a second
TABLE_4 = Pin(("catalog", "--tables", "4"), False,
              "472badbdf9546d1f02dcc83c53f120dd9b919bbd8e374d2df0955b640909e252", 42, 60)


def test_matching_pin_passes():
    outcome = check(TABLE_4)
    assert (outcome.problem, outcome.sha256) == (None, TABLE_4.sha256)


def test_table_free_run_prints_the_same_bytes():
    assert check(TABLE_4._replace(table_free=True)).problem is None


def test_changed_digest_fails_and_names_both_digests():
    last = "0" if TABLE_4.sha256[-1] != "0" else "1"
    wrong = TABLE_4.sha256[:-1] + last
    problem = check(TABLE_4._replace(sha256=wrong)).problem
    assert problem == f"sha256 {TABLE_4.sha256}, pinned {wrong}"


def test_line_count_off_by_one_fails():
    assert check(TABLE_4._replace(lines=43)).problem == "42 lines, pinned 43"


def test_nonzero_exit_fails():
    outcome = check(TABLE_4._replace(argv=("catalog", "--tables", "3")))
    assert outcome.problem.startswith("exit 2: error: unknown tables [3]")


def _processes_with_arg(arg: str) -> list[str]:
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if arg.encode() in fh.read().split(b"\0"):
                    pids.append(entry)
        except OSError:  # not a process, or one that has just exited
            pass
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes through /proc")
def test_timeout_kills_the_command():
    marker = "7919000013"  # a budget no other process is likely to be given
    pin = Pin(("verify", "--q-max", "13", "--distance-budget", marker), False,
              TABLE_4.sha256, None, 0.01)
    outcome = check(pin)
    assert (outcome.problem, outcome.sha256) == ("timed out after 0.01 s", None)
    assert _processes_with_arg(marker) == []


def test_pin_table_is_well_formed():
    pins = [pin for table in TABLES.values() for pin in table]
    assert all(re.fullmatch(r"[0-9a-f]{64}", pin.sha256) for pin in pins)
    commands = [(pin.argv, pin.table_free) for pin in pins]
    assert len(set(commands)) == len(commands)
    assert all(pin.timeout > 0 for pin in pins)
    assert all(pin.lines is None or pin.lines > 0 for pin in pins)


@pytest.mark.parametrize("argv", [["nope"], ["main", "scale"]])
def test_unknown_table_argument_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage: python tests/pins.py [main|scale]\n"
