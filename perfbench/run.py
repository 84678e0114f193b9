"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload against the program in ``src/`` of the checkout it sits
in, checks the outputs against an in-process verified reference, and
prints a record line (host fingerprint, sample counts, gate findings)
followed by the result line the benchmark contract fixes::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports every end-to-end metric; ``--trace 1`` runs the
workload's fixed prefix twice, untraced and then with every layer's entry
point wrapped, and reports every per-layer metric.  The exit code is 0
only when the correctness gate passed.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / ".work"


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _parse(argv: List[str]) -> argparse.Namespace:
    from settings import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale settings (tests)"
    )
    parser.add_argument("--out", type=Path, default=None, help="append the record here")
    return parser.parse_args(argv)


def _run_served(setting, args) -> Tuple[Dict[str, float], int, object, List[str], Dict]:
    import served
    from settings import beyond_p95

    if not args.trace:
        phase = served.run_served(setting, args.seed, args.seconds, WORK_DIR)
        reference = served.replay(setting, args.seed, phase.windows)
        gate = served.mismatches(phase, reference)
        metrics = served.end_to_end(setting, phase, reference)
    else:
        from layers import LayerTracer, per_layer_metrics
        from repro.obs.metrics import METRICS

        plain = served.run_served(
            setting, args.seed, args.seconds, WORK_DIR, setups=1,
            windows=setting.trace_windows,
        )
        tracer = LayerTracer()
        marks = {}

        def start_tracing() -> None:
            tracer.install()
            marks["before"] = METRICS.snapshot()

        try:
            phase = served.run_served(
                setting, args.seed, args.seconds, WORK_DIR, setups=1,
                windows=setting.trace_windows, on_measure_start=start_tracing,
            )
        finally:
            tracer.uninstall()
        counts = METRICS.delta(marks["before"])
        reference = served.replay(setting, args.seed, phase.windows)
        gate = served.mismatches(phase, reference)
        if served.mismatches(plain, reference):
            gate.append("tracing changed the served rounds")
        metrics = per_layer_metrics(
            tracer,
            counts,
            rounds=len(phase.replies) - phase.warmup_rounds,
            instances=0,
            client_round_seconds=phase.round_seconds,
            response_bytes=[
                len(r.encode("utf-8")) for r in phase.replies[phase.warmup_rounds :] if r
            ],
            overhead_pct=100.0 * (phase.wall_seconds - plain.wall_seconds) / plain.wall_seconds,
        )
        unattributed = metrics["engine.share.unattributed_pct"]
        if unattributed > setting.unattributed_bound_pct:
            gate.append(
                f"unattributed dispatch time {unattributed:.1f}% "
                f"exceeds {setting.unattributed_bound_pct}%"
            )
    details = {
        "rounds": len(phase.round_seconds),
        "rounds_beyond_p95": beyond_p95(len(phase.round_seconds)),
        "ingests": len(phase.ingest_seconds),
        "windows": phase.windows,
        "setups": len(phase.setup_seconds),
        "measured_s": phase.wall_seconds,
    }
    if args.trace:
        details["layer_self_counts"] = tracer.self_counts()
    # Each round the gate compares counts as one more operation.
    return metrics, phase.attempted + len(phase.replies), phase, gate, details


def _run_paper(setting, args) -> Tuple[Dict[str, float], int, object, List[str], Dict]:
    import paper
    from settings import beyond_p95

    if not args.trace:
        phase = paper.run_paper(setting, args.seed, args.seconds)
        gate = paper.mismatches(setting, args.seed, phase)
        metrics = paper.end_to_end(setting, phase)
    else:
        from layers import LayerTracer, per_layer_metrics
        from repro.obs.metrics import METRICS

        plain = paper.run_paper(setting, args.seed, args.seconds, min_only=True)
        with LayerTracer() as tracer:
            before = METRICS.snapshot()
            phase = paper.run_paper(setting, args.seed, args.seconds, min_only=True)
            counts = METRICS.delta(before)
        gate = paper.mismatches(setting, args.seed, phase)
        if [o.payoffs for o in plain.instances] != [o.payoffs for o in phase.instances]:
            gate.append("tracing changed the batch payoffs")
        metrics = per_layer_metrics(
            tracer,
            counts,
            rounds=0,
            instances=len(phase.instances),
            client_round_seconds=(),
            response_bytes=(),
            overhead_pct=100.0 * (phase.wall_seconds - plain.wall_seconds) / plain.wall_seconds,
        )
    centers = sum(len(o.center_seconds) for o in phase.instances)
    details = {
        "instances": len(phase.instances),
        "center_solves": centers,
        "center_solves_beyond_p95": beyond_p95(centers),
        "measured_s": phase.wall_seconds,
    }
    if args.trace:
        details["layer_self_counts"] = tracer.self_counts()
    # Each instance's two arms the gate compares count as two operations.
    return metrics, phase.attempted + 2 * len(phase.instances), phase, gate, details


def _pin_to_one_cpu() -> None:
    """Keep the client, server and reference threads on one CPU.

    Every workload is one closed loop with ``n_jobs=1``, so it never uses
    a second CPU; pinning stops request hand-offs between the client and
    server threads from crossing CPUs, which made sub-millisecond ingest
    latencies swing between runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: List[str]) -> int:
    _load_program()
    _pin_to_one_cpu()
    from host import fingerprint
    from settings import metric_units, workload_settings

    args = _parse(argv)
    setting = workload_settings(smoke=args.smoke)[args.workload]
    started = time.perf_counter()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        runner = _run_paper if args.workload == "paper-syn" else _run_served
        values, attempted, phase, gate, details = runner(setting, args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    failed = phase.failed + len(gate)
    problems = phase.errors + gate
    details["problems"] = problems[:20]
    values["ok_ratio"] = (attempted - failed) / attempted
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": fingerprint(ROOT),
        "elapsed_s": time.perf_counter() - started,
        "details": details,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in problems:
        print(f"correctness gate: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
