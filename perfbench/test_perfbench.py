"""Smoke tests of the benchmark at tiny input sizes.

    python -m pytest perfbench

Every workload runs untraced and traced, must pass its correctness gates
and must report exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cv_protocol", "crowded_eval", "cli_session")


def _run(capsys, workload: str, seed: int, trace: int) -> tuple[int, dict, list[str]]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    rc = run.main(argv, tiny=True)
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1]), lines


def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_gates_and_reports_declared_metrics(capsys, workload, trace):
    rc, result, _ = _run(capsys, workload, seed=3, trace=trace)
    assert rc == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_counts_and_outputs_repeat_for_the_same_seed(capsys, workload):
    runs = [_run(capsys, workload, seed=seed, trace=1) for seed in (5, 5, 6)]
    counts = [{name: r[1]["metrics"][name]["value"] for name in run.COUNTS} for r in runs]
    shapes = [next(line for line in r[2] if line.startswith("shape ")) for r in runs]
    outputs = [next(line for line in r[2] if line.startswith("outputs ")) for r in runs]
    assert counts[0] == counts[1] and shapes[0] == shapes[1] and outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]
    if workload != "cli_session":
        assert counts[0]["metrics.iou_pairs"] > 0
        assert shapes[0] != shapes[2]


def test_p90_interpolates_between_samples():
    assert run.p90([float(i) for i in range(101)]) == pytest.approx(90.0)
    assert run.p90([float(i) for i in range(11)]) == pytest.approx(9.0)
    assert run.p90([0.0, 10.0]) == pytest.approx(9.0)
    assert run.p90([3.0]) == 3.0


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowded_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
