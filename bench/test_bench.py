"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _smoke(trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_smoke_prints_every_metric_with_its_unit(trace, units):
    results = _smoke(trace)
    assert len(results) == len(run.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        census = results[run.WORKLOADS.index("poset-queries")]["metrics"]
        assert all(census[f"covers.branch.{b}"]["value"] >= 1 for b in corpus.BRANCHES)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _off_by_one(values: list) -> None:
    values[0] += 1


TAMPER = {
    "brute-avoid": lambda out: _off_by_one(out["counts"][-1]),
    "poset-queries": lambda out: out["answers"].__setitem__(0, not out["answers"][0]),
    "closed-scale": lambda out: _off_by_one(out["avoid"]),
    "cli-verify": lambda out: out["results"].__setitem__(
        0, (1,) + out["results"][0][1:]),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_result_is_counted_as_failed(name):
    setup, run_workload, check = workloads.WORKLOADS[name]
    inputs = setup(workloads.make_rng(7, name), workloads.SIZES[name]["smoke"],
                   Tracer(False))
    extra = ((dict(os.environ, PYTHONPATH=str(ROOT / "src")),)
             if name == "cli-verify" else ())
    outputs = run_workload(inputs, Tracer(False), *extra)
    attempted, failed = check(inputs, outputs)
    assert attempted >= 1 and failed == 0
    TAMPER[name](outputs)
    assert check(inputs, outputs)[1] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "brute-avoid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
