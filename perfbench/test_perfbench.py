"""Tests of the benchmark itself: python3 -m pytest perfbench

The traced-count test runs every workload twice (about two minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOADS  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [_result(_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == set(PER_LAYER_UNITS)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"} for r in runs]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "point_queries", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_reported_metrics():
    from workloads import PREPARE

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(WORKLOADS) == list(PREPARE)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    from run import DECLARED_END_TO_END, END_TO_END_UNITS

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: END_TO_END_UNITS[k] for k in DECLARED_END_TO_END}


def test_golden_diff_tolerances():
    from workloads import ARGMAX_TOL, VALUE_TOL, compare

    golden = {"fig/0/exponent": 0.5, "fig/0/argmax_rho": 0.25, "flag": True}
    assert compare(dict(golden), golden) == (0.0, [])
    dev, failures = compare({**golden, "fig/0/exponent": 0.5 + 10 * VALUE_TOL}, golden)
    assert dev == pytest.approx(10 * VALUE_TOL) and len(failures) == 1
    dev, failures = compare({**golden, "fig/0/argmax_rho": 0.25 + ARGMAX_TOL / 2}, golden)
    assert failures == []
    assert compare({**golden, "flag": False}, golden)[1]
    assert compare({"fig/0/exponent": 0.5}, golden)[1]
