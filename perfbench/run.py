"""cliquedim benchmark: one workload run, its report and one JSON result line.

    python3 perfbench/run.py --workload fractional --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout; nothing needs building.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last stdout line is the JSON result.

Each run starts fresh processes: one set-up probe (import and input
generation only, --trace 0 only) and one worker that sets up, measures and
checks.  `setup_s` is the median of their two set-ups.  This process imports
neither the library nor numpy, so nothing it holds shows in the worker's
memory or time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fractional", "clique", "boost", "corpus")
SETUP_PROBES = 1
DEADLINE_S = 170.0  # the whole run, probes included

END_TO_END = (
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # The same string hashes and set orders in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run worker.py with `args`; its last stdout line is a JSON object."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def report(args, result: dict, setups: list, raw_setups: list) -> dict:
    """Print the human-readable report; return the metrics for the JSON line."""
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6f}")
    for key, reason in result["failures"]:
        print(f"  FAIL {key}: {reason}")
    print(f"host-speed probe median={1000 * result['probe_median_s']:.3f} ms "
          "(times below are scaled to the reference probe; raw seconds beside them)")
    print("untraced pass walls_s=" + ",".join(f"{w:.4f}" for w in result["untraced_walls_s"]))
    metrics = {}
    if args.trace:
        print("traced pass walls_s=" + ",".join(f"{w:.4f}" for w in result["traced_walls_s"]))
        for name, (value, unit) in result["per_layer"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit}")
        return metrics
    print(f"queries={result['queries']} tail = nearest-rank p{result['tail_percentile']:.2f} "
          f"of {result['queries']} samples")
    values = dict(result, setup_s=statistics.median(setups), raw_setup_s=statistics.median(raw_setups))
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        raw = values.get("raw_" + name)
        print(f"  {name} = {values[name]:.6g} {unit}" + ("" if raw is None else f"  (raw {raw:.6g})"))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="cliquedim benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "cliquedim", "__init__.py")):
        print(f"error: no cliquedim sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probes.append(run_worker(common + ["--setup-only"], deadline))
        result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes.append(result)
    metrics = report(
        args, result, [p["setup_s"] for p in probes], [p["raw_setup_s"] for p in probes]
    )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
