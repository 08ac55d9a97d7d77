"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

Workloads run here at their reduced `smoke` sizes, in this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 20


def _bindings() -> dict:
    """Every attribute of the loaded eaqmds modules and of the wrapped classes."""
    from eaqmds import cosets, fields
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "eaqmds" or name.startswith("eaqmds."):
            snapshot.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (fields.Matrix, fields.Poly, fields.Embedding, cosets.DefiningSet):
        snapshot.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return snapshot


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_matches_untraced_and_restores_bindings(name):
    t0 = time.perf_counter()
    plain = child.execute(name, seed=3, size="smoke")
    before = _bindings()
    traced = child.execute(name, seed=3, traced=True, size="smoke")
    after = _bindings()
    assert time.perf_counter() - t0 < SMOKE_SECONDS

    assert traced["sha256"] == plain["sha256"]
    assert traced["summary"] == plain["summary"]
    assert before.keys() == after.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []

    summary = plain["summary"]
    assert plain["items"] > 0
    if "ok" in summary:
        assert summary["ok"] == summary["lines"]
    if "rank-oracle" in summary:
        assert summary["rank-oracle"] == summary["rows"]
    if "exact-distance" in summary:
        assert summary["exact-distance"] > 0

    for layer, entry in traced["layers"].items():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9, layer


def test_tracer_sees_calls_through_every_binding_site():
    traced = child.execute("verify-q9", seed=1, traced=True, size="smoke")
    layers = traced["layers"]
    # verify binds build_code and ebits_rank_oracle under its own names
    assert layers["codes.build_code"]["calls"] == layers["eaq.rank_oracle"]["calls"] + 1
    assert layers["fields.nullspace"]["calls"] == layers["eaq.rank_oracle"]["calls"]
    edges = {(e["parent"], e["layer"]) for e in traced["edges"]}
    assert ("fields.nullspace", "fields.rref") in edges
    assert ("eaq.rank_oracle", "fields.rref") in edges
    assert (None, "verify.run") in edges


def test_trace_counts_repeat_exactly():
    def counts(record):
        return {layer: {k: v for k, v in entry.items() if not k.endswith("_s")}
                for layer, entry in record["layers"].items()}
    first = child.execute("rank-tables-q17", seed=1, traced=True, size="smoke")
    second = child.execute("rank-tables-q17", seed=2, traced=True, size="smoke")
    assert counts(first) == counts(second)
    assert first["layers"]["fields.rref"]["cells"] > 0


def test_micro_benchmark_reports_every_op_on_every_field():
    values = micro.measure()
    assert set(values) == {f"fields.{op}_ns.{label}" for op in micro.OPS for label in micro.FIELDS}
    assert all(v > 0 for v in values.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(golden)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_result_line(trace):
    name = "exact-q7-9"
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", name, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_run_reports_a_broken_library_as_incorrect(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    with open(tmp_path / "src" / "eaqmds" / "catalog.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef generate_catalog(config):\n    raise RuntimeError('broken')\n")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bch-q120",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    assert result["metrics"] == {"verified_ratio": {"value": 0, "unit": "ratio"}}


def test_probe_entry_runs_one_table_entry_in_a_fresh_process():
    table, family, q, h = min(workloads.table_entries(),
                              key=lambda e: (e[2], e[0]))
    out, _, error = run.run_child(["--entry", str(table), family.value, str(q),
                                   "-" if h is None else str(h)])
    assert error is None
    assert out["rows"] > 0 and out["rank-oracle"] == out["rows"]


def test_run_refuses_a_directory_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-q9",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
