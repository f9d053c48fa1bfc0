"""Benchmark entry point for depthsr: one measured run of one workload.

    python3 perfbench/run.py --workload sr-lr64 --seed 0 --seconds 36 --trace 0

Workloads: sr-lr64, sr-batch-lr16, fit-step-lr16 (see README.md). The run
builds nothing: it runs the package under src/ with the interpreter that
runs this file. It sets the program up in SETUP_SAMPLES fresh processes
(the last of which then measures), runs ops for at most --seconds (at
least one op), checks every output, and prints one JSON line of run information followed, as the last
line, by {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exit codes: 0 all ops correct, 1 an op raised or missed its check, 2 the
run could not be made (no package under src/, a process failed or ran out
of time); on 2 no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sr-lr64", "sr-batch-lr16", "fit-step-lr16")
SETUP_SAMPLES = 5
# Every process this run starts must end within this many seconds.
DEADLINE_S = 170.0
MAX_BLAS_THREADS = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse_cm": "cm",
    "l_total": "loss",
}
PER_LAYER_UNITS = {
    "matcher.correlation_set.self_s": "s",
    "matcher.top_k.self_s": "s",
    "matcher.order_map.self_s": "s",
    "matcher.matching_selection.self_s": "s",
    "grid.extract_patches.self_s": "s",
    "grid.fold_patches.self_s": "s",
    "diffops.self_s": "s",
    "structdet.self_s": "s",
    "fusion.encode.self_s": "s",
    "fusion.aggregate.self_s": "s",
    "matcher.correlation_set.calls": "count",
    "matcher.correlation_set.bytes": "B",
    "matcher.correlation_set.max_bytes": "B",
    "matcher.match_order.calls": "count",
    "grid.extract_patches.calls": "count",
    "structdet.detect.calls": "count",
    "fileio.read.bytes": "B",
    "fileio.write.bytes": "B",
    "trainer.probes": "count",
    "trainer.rematch_probes": "count",
    "trainer.line_search_evals": "count",
    "trainer.gradient.match_order_calls": "count",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def latency_tail(latencies: list[float]) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            return {"percentile": p, "value_s": ordered[n - beyond - 1], "samples": n, "beyond": beyond}
    return {"percentile": None, "value_s": None, "samples": n, "beyond": 0}


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run one workloads.py process; return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a process")
    cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--spawned", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{' '.join(args[:4])} ran past the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{' '.join(args[:4])} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> tuple[dict, dict]:
    """Set-up samples plus one measured run; returns (result, info)."""
    deadline = time.monotonic() + DEADLINE_S
    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--profile", args.profile]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(["--role", "setup", *common], env, deadline)["setup_s"])
    run = _child(["--role", "measure", *common], env, deadline)
    setups.append(run["setup_s"])
    lat = run["latencies_s"]
    if args.trace:
        metrics = run["per_layer"]
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "latency_p50_s": statistics.median(lat),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "rmse_cm": run["rmse_cm"],
            "l_total": run["l_total"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": args.workload,
        "profile": args.profile,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": run["environment"],
        "setup_samples_s": setups,
        "latency_tail_s": latency_tail(lat),
        "ops_per_s": len(lat) / sum(lat),
        "failed_frac": run["failed"] / run["attempted"],
        "errors": run["errors"],
    }
    if args.trace:
        info["functions"] = run["functions"]
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "toy"), default="full",
                        help="toy: small inputs for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "depthsr" / "__init__.py").is_file():
        print(f"no depthsr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, info = measure(args)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
