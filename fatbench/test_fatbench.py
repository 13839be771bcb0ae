"""Tests of the benchmark itself, on reduced pools.

    python3 -m pytest -q fatbench

Every run is a subprocess of fatbench/run.py from the repository root,
as the benchmark is meant to be invoked.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = (".calls", ".terms_out", ".hits", "trace.spans")


@lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0):
    """(human metric lines, final JSON) of one reduced-size run."""
    proc = subprocess.run(
        [sys.executable, "fatbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--walks", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()[:3]
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    printed, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert printed["fail_frac"] == (0.0, "ratio")
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]][1] == m["unit"]
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_prints_every_per_layer_metric(workload):
    _, result = run(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_exact_counts_repeat_across_traced_runs():
    first = run("oracle_walk_g3m3", 1)[1]["metrics"]
    second = run("oracle_walk_g3m3", 1, repeat=1)[1]["metrics"]
    exact = [k for k in first if k.endswith(EXACT)]
    assert len(exact) > 40
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_cache_hits_and_cocycle_work_stay_in_their_workloads():
    for workload in WORKLOADS:
        m = {k: v["value"] for k, v in run(workload, 1)[1]["metrics"].items()}
        hits = m["magnus.get_table.hits"]
        assert (hits > 0) == (workload == "oracle_walk_g3m3"), workload
        cocycle = sum(v for k, v in m.items()
                      if k.startswith("cocycle.") and k.endswith(".calls"))
        assert (cocycle > 0) == (workload == "j2_walk_g3"), workload
        assert (m["algebra.is_lie.calls"] == 0) == (workload == "tables_g4n6")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "fatbench", tmp_path / "fatbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "fatbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
