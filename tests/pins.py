"""Pinned CLI output: the commands whose stdout bytes must never change.

    python tests/pins.py

Each row of PINS runs `python -m eaqmds.cli ARGV` from this checkout's src/
(or, table-free, the same CLI with the field lookup-table cap patched to 0)
in a new session, and kills the whole process group if the row's timeout
runs out.  A pin passes only when the command exits 0, the sha256 of its raw
stdout is the pinned digest, and its newline count is the pinned one where a
count is given.  Every pin runs, also after a failure; the script prints one
line per pin and a total, and exits 1 if any pin failed.

Stdlib only, and not a pytest module: the table runs for over a minute, so
it is run on its own; tests/test_pins.py checks the runner on cheap commands.
The tests that must run the CLI in a child process, with a timeout or an
address-space cap, use the same runner, run().
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# patches the cap to 0, so that every field multiplies by packed products and
# adds digit by digit, then runs the CLI on the remaining arguments
TABLE_FREE = ("import sys, eaqmds.fields as f; f._TABLE_MAX_ORDER = 0; "
              "from eaqmds.cli import main; sys.exit(main(sys.argv[1:]))")


class Pin(NamedTuple):
    argv: tuple[str, ...]
    table_free: bool
    sha256: str
    lines: int | None
    timeout: float


class Outcome(NamedTuple):
    problem: str | None  # None when the pin passed
    seconds: float
    sha256: str | None  # of the raw stdout, None when the run timed out


PINS = [
    # the bch-q120 golden stops at q = 120; the bch-only catalog up to
    # q = 250 must keep the bytes it had before the defining-set sweep
    Pin(("catalog", "--q-range", "3:250"), False,
        "fae2f4d6784d07e8a205c00651e36090deb7ffb606b2e900dd6496a567338b68", None, 120),
    # the bch-only catalog up to q = 400 (37,700 lines) must keep the bytes
    # it had before the single-run check read the folded run starts
    Pin(("catalog", "--q-range", "3:400"), False,
        "929a3103165c323b6fefbbf62071151782dd54f1281c0c6b01334843aba86e3b", None, 120),
    # verify up to q = 13 runs the exact-distance search on every feasible
    # instance; its bytes must stay those of the unrooted search
    Pin(("verify", "--q-max", "13"), False,
        "da37ed8aa6063498470b7c0278fa70b04a4fa5f498f490edfd321958e83cb75a", None, 120),
    # the same run over a real process pool, whose workers return the range
    # notes with the instance lines, must print the same bytes
    Pin(("verify", "--q-max", "13", "--workers", "2"), False,
        "da37ed8aa6063498470b7c0278fa70b04a4fa5f498f490edfd321958e83cb75a", None, 120),
    # verify up to q = 17 (158 lines) runs the exact-distance search on 45
    # instances, 7 more than q = 13, among them codes over F_{17^2}; its
    # bytes are those of the search that built every child level
    Pin(("verify", "--q-max", "17"), False,
        "2fdcb407494d7f778f4aa885244bf1dc3a94f3cdc7104552266727c786293ffa", 158, 120),
    # verify up to q = 31 (518 lines) sweeps every family's defining sets
    # through towers up to F_{31^4}, building each coset's minimal polynomial
    # from the process-wide cache; its bytes are those of the per-row products
    Pin(("verify", "--q-max", "31", "--no-exact-distance"), False,
        "ebbd1f30114e6f5c37d42a706fdcc8c38ec141c380bb1904208dfc1f98f9bc6a", 518, 120),
    # at a budget of 10^7 the catalog up to q = 13 settles 42 rows at
    # exact-distance level (38 at the default budget), so the search runs on
    # instances that the verify pins above never reach
    Pin(("catalog", "--q-range", "3:13", "--exact-distance", "--distance-budget", "10000000"),
        False, "2f49090d3625693eac34e184131289d23c444014770218bc676f016b594c0848", None, 120),
    # the rank-tables-q17 golden stops at q = 17; the published table
    # entries up to q = 23 at rank-oracle level must keep their bytes
    Pin(("catalog", "--tables", "1,2,4,5,6", "--rank-oracle", "--q-range", "3:23"), False,
        "58617004a088025c9d612d970c0006fb04fa27c6a6d80ba5873d563ad66c6648", None, 120),
    # the published entries from q = 24 to 31 at rank-oracle level, 100
    # lines (Q2P1_NEGA 25 and 29, Q2P1_CONSTA 31, QM1_H 29 h=5), keep the
    # bytes they had when H was eliminated from the banded generator matrix
    Pin(("catalog", "--tables", "1,2,6", "--rank-oracle", "--q-range", "24:31"), False,
        "79aebf7034d4b8f37b2957e1f664fc098cc2122d4a0790128911801d0274d0aa", None, 120),
    # the same entries over a real process pool, whose workers each build
    # whole constructions from (family, q, h) tasks, must print the serial bytes
    Pin(("catalog", "--tables", "1,2,6", "--rank-oracle", "--q-range", "24:31",
         "--workers", "2"), False,
        "79aebf7034d4b8f37b2957e1f664fc098cc2122d4a0790128911801d0274d0aa", None, 120),
    # tables 4 and 5 reach q = 53: their 80 lines build F_{37^2} to F_{53^2},
    # above the lookup-table cap, and their F_{q^4} towers, so the packed
    # product is on every line; the bytes are those of the digit-by-digit one
    Pin(("catalog", "--tables", "4,5", "--rank-oracle"), False,
        "99c6f34f2222caf35f0f85b916dd633da1be579703fc461d6952af6db3abfcba", None, 120),
    # the published entries from q = 32 to 53 at rank-oracle level, 66 lines
    # (Q2P1_CONSTA q=43 and QM1_H q=41 h=7 among them); with the pins above,
    # every row of catalog --tables 1,2,4,5,6 --rank-oracle is pinned
    Pin(("catalog", "--tables", "1,2,6", "--rank-oracle", "--q-range", "32:53"), False,
        "ff25f49c0fe16ef0f64c2c3eb61155cc4c9bdf95663f893193b1ade6b6ad857c", None, 300),
    # with the lookup-table cap patched to 0 in the process, every field
    # multiplies by packed products and adds digit by digit; verify and the
    # rank-oracle tables up to q = 23 must print the bytes pinned above
    Pin(("verify", "--q-max", "13"), True,
        "da37ed8aa6063498470b7c0278fa70b04a4fa5f498f490edfd321958e83cb75a", None, 120),
    Pin(("catalog", "--tables", "1,2,4,5,6", "--rank-oracle", "--q-range", "3:23"), True,
        "58617004a088025c9d612d970c0006fb04fa27c6a6d80ba5873d563ad66c6648", None, 120),
    # catalog and verify rows never print g; code --format json prints its
    # coefficient codes, the product of the cosets' minimal polynomials over
    # F_{13^2}, which multiplies by table lookups, and must keep these bytes
    Pin(("code", "13", "2", "170", "--cosets", "85,87,89", "--rank-oracle", "--format", "json"),
        False, "624597988cb3d9b307eb6d0e398fdfdad32919243ce5b0d40664082c522a804e", 28, 60),
    # the same g with every field table-free prints the same bytes
    Pin(("code", "13", "2", "170", "--cosets", "85,87,89", "--rank-oracle", "--format", "json"),
        True, "624597988cb3d9b307eb6d0e398fdfdad32919243ce5b0d40664082c522a804e", 28, 60),
    # a g over F_{41^2}, above the lookup-table cap, multiplied by packed products
    Pin(("code", "41", "7", "240", "--cosets", "1,8,15", "--rank-oracle", "--format", "json"),
        False, "b805a9bb68a7d128262b8bef70511da49590296763aa8d7d862baca61cbbbbc1", 24, 60),
    # the text report of code with both oracles: its EA line is EaqParams.__str__
    Pin(("code", "5", "3", "8", "--cosets", "1,4,7", "--rank-oracle", "--exact-distance"),
        False, "d80ba7a2d062dbb0ef93367254a78fe231eaf316711b9692da51d58f6b4a0be9", 6, 60),
    # the coset partition of Omega is one walk in leader order; these lists
    # (r = q+1 and r = 2) keep the bytes of the walk in index order, sorted
    Pin(("cosets", "9", "10", "82", "--format", "json"), False,
        "594f6b3478c4907674ac289b819b374f4a343431e4f15c6eefa5eabab61e05b8", 385, 60),
    Pin(("cosets", "13", "2", "170", "--format", "json"), False,
        "d735a8ee583eabbaa351d2dbdb06efae9d15c41641fbc4879df4471bf027e982", 781, 60),
    # decompose prints the leaders, read from the same walk, and the closure
    # check runs on it; the bytes are those of one coset() call per class
    Pin(("decompose", "5", "2", "26", "--cosets", "13,15,17,19", "--format", "json"), False,
        "f5b67efa7bc1b70cde08d80a4ea1294bb0c890751a559ca3a45781202a11dfa2", 42, 60),
    # one coset of 4,004 classes, which took 6.8 s by one coset() call per class
    Pin(("decompose", "3", "4", "8009", "--cosets", "1", "--format", "json"), False,
        "05ee4d5f826e3a4d8f4b3b5f26c4121dfcce173df52fcb7fb7daa0f43b7f4b21", 12029, 60),
]


def run(argv: Sequence[str], timeout: float, *, table_free: bool = False,
        preexec_fn: Callable[[], object] | None = None) -> subprocess.CompletedProcess:
    """Run the CLI on argv from this checkout's src/ in a new session, with
    stdout and stderr captured as bytes; preexec_fn runs in the child before
    the CLI starts.  If the timeout runs out, the whole process group is
    killed and subprocess.TimeoutExpired raised."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    head = ["-c", TABLE_FREE] if table_free else ["-m", "eaqmds.cli"]
    proc = subprocess.Popen([sys.executable, *head, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True,
                            preexec_fn=preexec_fn)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the session's group holds the command and any pool workers it started
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def check(pin: Pin) -> Outcome:
    """Run pin's command once and compare its stdout with the pinned bytes."""
    t0 = time.perf_counter()
    try:
        proc = run(pin.argv, pin.timeout, table_free=pin.table_free)
    except subprocess.TimeoutExpired:
        return Outcome(f"timed out after {pin.timeout:g} s", time.perf_counter() - t0, None)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if proc.returncode != 0:
        last = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return Outcome(f"exit {proc.returncode}: {last[0]}", seconds, digest)
    problems = []
    if digest != pin.sha256:
        problems.append(f"sha256 {digest}, pinned {pin.sha256}")
    lines = proc.stdout.count(b"\n")
    if pin.lines is not None and lines != pin.lines:
        problems.append(f"{lines} lines, pinned {pin.lines}")
    return Outcome("; ".join(problems) or None, seconds, digest)


def main() -> int:
    failed = 0
    t0 = time.perf_counter()
    for pin in PINS:
        outcome = check(pin)
        failed += outcome.problem is not None
        verdict = "ok" if outcome.problem is None else "FAIL"
        command = ("table-free " if pin.table_free else "") + " ".join(pin.argv)
        print(f"{verdict:4} {outcome.seconds:6.1f} s  {command}  {outcome.sha256 or '-'}",
              flush=True)
        if outcome.problem is not None:
            print(f"     {outcome.problem}", flush=True)
    print(f"{len(PINS) - failed} of {len(PINS)} pins ok, {failed} failed, "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
