"""Self-test of the benchmark at toy size.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload through run.py with `--profile toy` and checks that
each named metric is emitted with its unit, that exact counts repeat
between two runs, and, in process, that a perturbed program output is
counted as a failed op. Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from depthsr import fusion, grid, trainer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "B")


def bench(workload: str, trace: int, seed: int = wl.DEFAULT_SEED) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--profile", "toy",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(first) == units(second) == expected
    exact = [name for name, unit in expected.items() if unit in EXACT_UNITS]
    counts = [{name: r["metrics"][name]["value"] for name in exact} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["matcher.match_order.calls"] > 0


def _perturb_sr(monkeypatch):
    run_pipeline = fusion.run_pipeline

    def perturbed(*args, **kwargs):
        out = run_pipeline(*args, **kwargs)
        depth = out.depth.copy()
        depth[0, 0] += 1e-6
        return grid.DepthMap(depth, out.valid)

    monkeypatch.setattr(fusion, "run_pipeline", perturbed)


def _perturb_fit(monkeypatch):
    fit = trainer.fit

    def perturbed(*args, **kwargs):
        result = fit(*args, **kwargs)
        w_head = result.config.w_head.copy()
        w_head[0, 0] += 1e-3
        return replace(result, config=replace(result.config, w_head=w_head))

    monkeypatch.setattr(trainer, "fit", perturbed)


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, 5])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_perturbed_output_counts_as_failed(workload, seed, monkeypatch):
    clean = wl.run(workload, seed, 0.01, False, "toy")
    assert clean["failed"] == 0 and clean["attempted"] >= 1
    (_perturb_fit if workload == "fit-step-lr16" else _perturb_sr)(monkeypatch)
    result = wl.run(workload, seed, 0.01, False, "toy")
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_reference_check_rejects_small_drift():
    ref = wl.load_reference("sr-lr64", "toy", wl.DEFAULT_SEED)
    workload = wl.make_workload("sr-lr64", wl.DEFAULT_SEED, "toy")
    key, out = workload.op(0)
    assert workload.problems(key, out, ref) == []
    shifted = grid.DepthMap(out.depth + 2 * wl.SR_ATOL_M, out.valid)
    assert workload.problems(key, shifted, ref)
