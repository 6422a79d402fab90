"""Smoke-sized checks of the benchmark harness (a few seconds in total).

The traced counts are exact: each closed-loop step evaluates f or g 14 times
(8 in RK4, 2 in the filter, 4 in the delta trace or the dataset targets),
and ``model_error_drift_sup`` evaluates the drift twice per sample.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracing import LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
STEPS = round(workloads.SMOKE_DURATION / 1e-3)
DRIFT_SUP_EVALS = 2 * 1000


def traced(workload, seed=0):
    result, report = run.run_benchmark(workload, seed, seconds=0.0, trace=True, smoke=True)
    assert result["correct"], report["problems"]
    assert report["detail"]["not_traced"] == []
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def simulate_learned():
    return traced("simulate_learned")


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {**LAYER_UNITS, **run.SETUP_LAYER_UNITS, "trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_untraced_result_schema():
    result, report = run.run_benchmark("ic_grid", 0, seconds=0.0, trace=False, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # warm-up and one measured operation
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert report["detail"]["steps_per_operation"] == workloads.SMOKE_GRID_SIZE * STEPS


def test_simulate_learned_counts(simulate_learned):
    m = simulate_learned
    assert m["dynamics.steps"] == 2 * STEPS
    assert m["dynamics.fg_evals"] == 2 * STEPS * 14 + DRIFT_SUP_EVALS
    assert m["dynamics.fg_evals_per_step"] == 14
    assert m["barrier.safety_filter.calls"] == 2 * STEPS
    # Learned mode: one residual evaluation in the filter, one in the delta trace.
    assert m["learning.residual_terms.calls"] == 2 * STEPS
    assert m["certify.delta_samples"] == 2 * STEPS
    assert m["learning.fit_residual.calls"] == 0
    assert m["ioutil.bytes_written"] > 0


def test_learn_counts():
    m = traced("learn")
    episodes = 2
    assert m["dynamics.steps"] == STEPS + episodes * 2 * STEPS
    assert m["dynamics.fg_evals"] == 14 * m["dynamics.steps"]
    assert m["learning.fit_residual.calls"] == episodes
    assert m["learning.fit_residual.rows"] == STEPS + 2 * STEPS
    assert m["certify.delta_samples"] == (1 + episodes) * STEPS


def test_ic_grid_skips_certify_learning_and_io():
    m = traced("ic_grid")
    assert m["dynamics.steps"] == workloads.SMOKE_GRID_SIZE * STEPS
    assert m["dynamics.fg_evals_per_step"] == 10
    for name in ("learning.residual_terms.calls", "certify.delta_samples",
                 "learning.fit_residual.calls", "ioutil.bytes_written"):
        assert m[name] == 0


def test_counts_repeat_exactly(simulate_learned):
    again = traced("simulate_learned")
    for name, unit in LAYER_UNITS.items():
        if unit != "s":
            assert again[name] == simulate_learned[name], name


def test_failed_operation_is_counted(monkeypatch):
    def broken(workload, state, out_dir):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "operation", broken)
    result, report = run.run_benchmark("ic_grid", 0, seconds=0.0, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert "injected" in report["problems"][0]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ic_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
