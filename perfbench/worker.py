"""One workload run in one fresh process: set-up, timed passes, checks.

Prints one JSON object on stdout for run.py.  Usage:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --write-reference

A pass issues the workload's query list once, in one thread, each query
after the previous one returns, with the library's caches cleared and the
garbage collected before each.  A run makes round(S / workloads.PASS_SECONDS)
passes, at least one.  With --trace 1 untraced and traced passes alternate,
as many of each, and only the traced ones are recorded as spans.  Times are
scaled to reference host speed by calibrate.SpeedProbe; raw ones are
reported beside them.
"""

from __future__ import annotations

import os

# Before numpy loads: forced_gamma_good_check runs matmuls, and a threaded
# BLAS on a shared two-core machine makes their time swing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(HERE, "out")


class Failed:
    """Record of a query that raised."""

    def __init__(self, reason: str):
        self.reason = reason


def import_library() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cliquedim  # noqa: F401


def setup(workload: str, seed: int, probe, trace: bool = False):
    """Import the library and generate the workload's inputs, with the host
    probe running.  Returns (inputs, recorder of the generation's spans or
    None, start, end)."""
    with probe:
        start = time.perf_counter()
        import_library()
        import workloads
        from spans import SpanRecorder

        recorder = SpanRecorder() if trace else None
        if recorder is not None:
            recorder.install()
        inputs = workloads.SETUP[workload](seed)
        end = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
    return inputs, recorder, start, end


def run_passes(workload: str, inputs, seconds: float, trace: bool, probe):
    """Run the passes with the host probe running.  Returns (answers,
    timings, span recorder or None); a timing is (pass index, traced, key,
    start, end)."""
    import cliquedim as cq

    import check
    import workloads
    from spans import SpanRecorder

    run_pass = workloads.RUN_PASS[workload]
    recorder = SpanRecorder() if trace else None
    answers: list = []  # (key, record or Failed)
    timings: list = []
    current = [0, False]  # pass index, traced

    def ask(key: str, thunk):
        cq.clear_caches()
        # Untimed, so that no query pays for the garbage of the one before:
        # otherwise a full collection lands in whichever query comes next,
        # and ω_3 of random-6-8-2 read 81 or 150 ms depending on the order.
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # a failed query is counted; the pass goes on
            t1 = time.perf_counter()
            result = None
            rec = Failed(f"{type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            rec = check.record(key, result)
        timings.append((*current, key, t0, t1))
        answers.append((key, rec))
        return result

    passes = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
    if trace:
        passes = max(2, passes + passes % 2)
    # Import-time objects and the inputs never become garbage.  Frozen, they
    # are left out of every collection, so the one before each query takes
    # microseconds instead of the 35 ms a scan of numpy's and scipy's
    # objects costs.
    gc.freeze()
    with probe:
        for index in range(passes):
            traced = trace and index % 2 == 1
            current[:] = [index, traced]
            if traced:
                recorder.install()
            run_pass(inputs, ask)
            if traced:
                recorder.uninstall()
    return answers, timings, recorder


def check_answers(workload: str, inputs, answers: list) -> list:
    """(key, reason) for every failed answer, plus oracle disagreements with
    the stored reference."""
    import check

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    checker = check.Checker(workload, inputs, reference)
    verdicts: dict = {}  # key -> (first record, reason)
    failures = []
    for key, rec in answers:
        if isinstance(rec, Failed):
            failures.append((key, rec.reason))
            continue
        if key not in verdicts:
            verdicts[key] = (rec, checker.check(key, rec))
        first, reason = verdicts[key]
        if reason is None and rec != first:
            reason = "answer differs between passes"
        if reason is not None:
            failures.append((key, reason))
    if workload == "corpus":
        oracles = check.load_oracles(ROOT)
        failures += check.oracle_failures(oracles, inputs.classes, reference["corpus"])
    return failures


def tail(latencies: list) -> tuple:
    """Latency at the highest nearest-rank percentile with at least ten
    queries above it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n


def summarize(timings: list, probe) -> dict:
    """End-to-end figures of the untraced passes, scaled to reference host
    speed, with the raw ones beside them, and the pass walls."""
    scaled: dict = {}  # key -> scaled seconds per untraced pass
    raw: dict = {}
    walls: dict = {}  # (traced, pass index) -> scaled pass wall
    for index, traced, key, t0, t1 in timings:
        net, seconds = probe.scaled(t0, t1)
        walls[traced, index] = walls.get((traced, index), 0.0) + seconds
        if not traced:
            scaled.setdefault(key, []).append(seconds)
            raw.setdefault(key, []).append(net)
    out = {
        "untraced_walls_s": [w for (traced, _), w in sorted(walls.items()) if not traced],
        "traced_walls_s": [w for (traced, _), w in sorted(walls.items()) if traced],
        "probe_median_s": statistics.median(probe.values),
    }
    for tag, per_key in (("", scaled), ("raw_", raw)):
        samples = [t for values in per_key.values() for t in values]
        tail_s, tail_pct = tail(samples)
        out[tag + "wall_s"] = sum(statistics.median(values) for values in per_key.values())
        out[tag + "query_p50_ms"] = 1000.0 * statistics.median(
            statistics.median(values) for values in per_key.values()
        )
        out[tag + "query_tail_ms"] = 1000.0 * tail_s
        out["tail_percentile"] = tail_pct
        out["queries"] = len(samples)
    return out


def measure(args) -> dict:
    from calibrate import SpeedProbe

    probe = SpeedProbe()
    inputs, setup_recorder, start, end = setup(args.workload, args.seed, probe, bool(args.trace))
    answers, timings, recorder = run_passes(
        args.workload, inputs, args.seconds, bool(args.trace), probe
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_answers(args.workload, inputs, answers)
    raw_setup_s, setup_s = probe.scaled(start, end)
    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": len(answers),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        **summarize(timings, probe),
    }
    if args.trace:
        from spans import per_layer_metrics

        overhead = statistics.median(out["traced_walls_s"]) - statistics.median(out["untraced_walls_s"])
        out["per_layer"] = per_layer_metrics(
            setup_recorder, recorder, len(out["traced_walls_s"]), overhead, probe.span
        )
        os.makedirs(SPANS_DIR, exist_ok=True)
        recorder.write(os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
    return out


def write_reference() -> None:
    """Store one untimed pass of every workload at the reference seed as
    reference.json.  Run it on a commit whose answers are trusted."""
    import_library()
    import check
    import workloads
    from calibrate import SpeedProbe

    reference = {}
    for name in workloads.SETUP:
        inputs = workloads.SETUP[name](check.REFERENCE_SEED)
        answers, _, _ = run_passes(name, inputs, 0.0, False, SpeedProbe())
        entries = {}
        for key, rec in answers:
            if isinstance(rec, Failed):
                raise SystemExit(f"{name} {key}: {rec.reason}")
            entry = check.reference_entry(key, rec, check.REFERENCE_SEED)
            if entry is not None:
                entries[key] = entry
        reference[name] = dict(sorted(entries.items()))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fractional", "clique", "boost", "corpus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        from calibrate import SpeedProbe

        probe = SpeedProbe()
        _, _, start, end = setup(args.workload, args.seed, probe)
        raw_setup_s, setup_s = probe.scaled(start, end)
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
