"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is one fresh Python process (child.py) that imports eaqmds from
this checkout's src/, builds the field towers the workload needs (set-up),
runs the workload once with workers=1 and reports its output digest.  Each
sample is checked against golden.json.  Samples repeat until --seconds is
used up, with at least MIN_SAMPLES of them, and the end-to-end metrics are
medians over the samples whose output matched.  With --trace 1, one extra sample runs under the
tracer and one runs the field-op micro-benchmark, and the per-layer metrics
are printed instead of the end-to-end ones.

The last line of stdout is the result object, also when samples fail: a
metric that no passing sample measured is left out of it, and `correct` is
then false.  Progress goes to stderr, and
the full record goes to bench/results/, with every sample, the quartiles and
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from micro import FIELDS, OPS  # noqa: E402
from tracer import COUNTER_NAMES, LAYERS  # noqa: E402

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
HARD_LIMIT_S = 150  # stop starting samples after this, whatever --seconds says
DEADLINE_S = 165    # no child process of a run outlives this
TIMED_OUT = "timed out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "verified_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for counter in COUNTER_NAMES.get(layer, ()):
            units[f"{layer}.{counter}"] = "count"
    for op in OPS:
        for label in FIELDS:
            units[f"fields.{op}_ns.{label}"] = "ns"
    units["trace.overhead_s"] = "s"
    return units


def _read_first_line(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readline().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "platform": platform.platform()}


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S
              ) -> tuple[dict | None, float, str | None]:
    """(record or None, seconds the process took, error text or None).

    The error text is TIMED_OUT when the child was stopped at `timeout`.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, TIMED_OUT
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, elapsed, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed, None
    except (ValueError, IndexError):
        return None, elapsed, "no JSON record on stdout"


def check(record: dict, golden: dict) -> str | None:
    """Why a sample's output is wrong, or None when it matches golden.json."""
    library = Path(record["library"]).resolve()
    if SRC.resolve() not in library.parents:
        return f"eaqmds was imported from {library}, not from {SRC}"
    if record["summary"] != golden["summary"]:
        return f"invariants {record['summary']} differ from golden {golden['summary']}"
    if record["sha256"] != golden["sha256"]:
        return "output digest differs from golden"
    return None


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eaqmds" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC / 'eaqmds'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[args.workload]

    start = time.perf_counter()
    log = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": environment(),
           "loadavg_start": _read_first_line("/proc/loadavg"), "samples": []}
    attempted = failed = 0

    def timeout() -> float:
        return min(CHILD_TIMEOUT_S, max(1.0, DEADLINE_S - (time.perf_counter() - start)))

    def sample(traced: bool) -> dict | None:
        """Run one sample; its record if the output matched golden.json."""
        nonlocal attempted, failed
        child_args = [args.workload, str(args.seed)] + (["--traced"] if traced else [])
        record, elapsed, error = run_child(child_args, timeout())
        problem = error or check(record, golden)
        attempted += golden["items"]
        failed += golden["items"] if problem else 0
        entry = {"traced": traced, "elapsed_s": elapsed, "problem": problem}
        if record is not None:
            entry.update({k: v for k, v in record.items() if k not in ("layers", "edges")})
        log["samples"].append(entry)
        status = "ok" if problem is None else f"FAILED: {problem}"
        timing = (f"wall {record['wall_s']:.3f} s, setup {record['setup_s']:.3f} s"
                  if record else f"{elapsed:.3f} s")
        print(f"bench: {args.workload}{' traced' if traced else ''} sample "
              f"{len(log['samples'])}: {timing}, {status}", file=sys.stderr)
        return record if problem is None else None

    traced = micro = None
    if args.trace:
        traced = sample(traced=True)
        micro, _, error = run_child(["--micro"], timeout())
        if micro is None:
            print(f"bench: micro-benchmark failed: {error}", file=sys.stderr)

    passed: list[dict] = []
    durations: list[float] = []
    while True:
        now = time.perf_counter()
        if now - start > HARD_LIMIT_S:
            break
        if len(durations) >= MIN_SAMPLES and now + statistics.median(durations) > start + args.seconds:
            break
        t0 = time.perf_counter()
        record = sample(traced=False)
        durations.append(time.perf_counter() - t0)
        if record is not None:
            passed.append(record)

    stats = {name: quartiles([r[name] for r in passed])
             for name in ("wall_s", "setup_s", "peak_rss_mb")} if passed else {}
    values: dict[str, float] = {}
    if args.trace:
        units = per_layer_units()
        if traced is not None:
            for layer, entry in traced["layers"].items():
                values[f"{layer}.calls"] = entry["calls"]
                values[f"{layer}.self_s"] = entry["self_s"]
                for counter in COUNTER_NAMES.get(layer, ()):
                    values[f"{layer}.{counter}"] = entry[counter]
            log.update(layers=traced["layers"], edges=traced["edges"])
            if stats:
                values["trace.overhead_s"] = traced["wall_s"] - stats["wall_s"]["median"]
        values.update(micro or {})
    else:
        units = END_TO_END_UNITS
        values = {name: stats[name]["median"] for name in stats}
        values["verified_ratio"] = 1 - failed / attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"bench: not measured: {', '.join(missing)}", file=sys.stderr)

    result = {"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    log.update(loadavg_end=_read_first_line("/proc/loadavg"), stats=stats, result=result)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(log, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
