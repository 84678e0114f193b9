"""Tracked performance baseline: ``python -m repro bench``.

The hot path of both game solvers is the Algorithm 2/3 inner loop, and
PR-to-PR performance claims about it need a pinned, repeatable measurement.
This module runs a fixed benchmark shape — one gMission-like instance,
catalog build, FGT solve, IEGT solve — through *both* best-response engines
(the vectorized bitmask engine and the retained scalar reference) and writes
wall-times, speedups, and :mod:`repro.obs` counter deltas to a JSON file
(``BENCH_core.json`` by default).

Because the two engines are bit-identical by contract, the bench also
asserts that contract on every run: each phase records whether the scalar
and vectorized solves produced the same routes, payoffs, Equation 2
``P_dif``, and round counts.  A bench whose ``identical`` flags are not all
true is reporting a correctness bug, not a performance number.

The ``catalog_delta`` section (schema 2) tracks the incremental-catalog
layer the same way: single-point churn steps are timed as
:class:`~repro.vdps.delta.DeltaCatalog` refreshes against full
``build_catalog`` rebuilds of the largest center, with every step's output
checked for exact equality via :func:`~repro.vdps.delta.catalog_diff`.

The ``obs_overhead`` section (schema 3) guards the observability layer:
one dispatch round is timed with tracing disabled, head-sampled away
(``REPRO_TRACE_SAMPLE=0``), and fully traced.  The three modes must be
bit-identical in their assignments, and the disabled path is compared
against the tracked baseline's with a :data:`OBS_OVERHEAD_BUDGET_PCT`
budget — instrumentation must be free when off.

The ``kernel`` section (schema 5) tracks the DP/validation kernel tiers
(``docs/performance.md``): the largest center's ``build_catalog`` is timed
under ``kernel="scalar"`` and ``kernel="vectorized"`` and the two catalogs
are checked for exact equality with :func:`~repro.vdps.delta.catalog_diff`
— the CLI exits non-zero when they disagree.  A ``large`` arm builds a
bigger single-center instance (1k workers / 10k tasks at medium scale)
vectorized-only, to keep a completion-time record at a shape the scalar
tier cannot reach in bench time.

The ``temporal_fairness`` section (schema 4) guards the equity subsystem's
headline claim (``docs/temporal_fairness.md``): on the unlucky-worker
scenario the ledger-weighted mode must finish with a strictly lower
rolling Gini than per-round dispatch while giving up less than
:data:`~repro.equity.report.EFFICIENCY_BUDGET_PCT` percent of total
payoff.  Both arms are deterministic given the seed, so these are hard
gates, not advisory wall-time comparisons.

The ``shards`` section (schema 6) guards the supervised multi-process
shard pool (``docs/fault_tolerance.md``): a two-shard
:class:`~repro.service.shards.ShardedDispatchEngine` must replay a small
four-center world bit-identical to the single-process engine, and a
chaos arm that SIGKILLs one shard mid-run must respawn it, replay its
journal segment, and finish bit-identical to the fault-free sharded run.
Both are hard CLI gates; the 1-vs-N wall times ride along as advisory
numbers (at bench shapes the RPC overhead dominates).

Shapes are pinned here (not derived from the experiment grids) so the
numbers stay comparable across PRs:

* ``medium`` — the tracked baseline: large enough that the best-response
  inner loop dominates and timing noise is small.
* ``smoke`` — a seconds-scale reduction for CI's ``bench-smoke`` job.
"""

from __future__ import annotations

import copy
import gc
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.entities import DistributionCenter, SpatialTask
from repro.core.instance import SubProblem
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.games.fgt import FGTSolver
from repro.games.iegt import IEGTSolver
from repro.obs.metrics import METRICS
from repro.utils.rng import RngFactory
from repro.vdps.catalog import VDPSCatalog, build_catalog
from repro.vdps.delta import DeltaCatalog, catalog_diff


@dataclass(frozen=True)
class BenchShape:
    """One pinned benchmark workload (a gMission-like instance)."""

    n_tasks: int
    n_workers: int
    n_delivery_points: int
    epsilon: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view stored under ``shape`` in the bench report."""
        return {
            "dataset": "gm",
            "n_tasks": self.n_tasks,
            "n_workers": self.n_workers,
            "n_delivery_points": self.n_delivery_points,
            "epsilon": self.epsilon,
        }


#: The pinned shapes; change these only with a deliberate baseline reset.
BENCH_SHAPES: Dict[str, BenchShape] = {
    "smoke": BenchShape(
        n_tasks=60, n_workers=14, n_delivery_points=30, epsilon=0.8
    ),
    "medium": BenchShape(
        n_tasks=1200, n_workers=150, n_delivery_points=260, epsilon=0.8
    ),
}

#: The kernel section's large arm: a shape the scalar tier cannot cover in
#: bench time, run vectorized-only so its completion stays a tracked fact.
#: The medium arm is the ISSUE's ">= 1k workers / >= 10k tasks" floor.
KERNEL_LARGE_SHAPES: Dict[str, BenchShape] = {
    "smoke": BenchShape(
        n_tasks=800, n_workers=120, n_delivery_points=60, epsilon=0.8
    ),
    "medium": BenchShape(
        n_tasks=10_000, n_workers=1_000, n_delivery_points=300, epsilon=0.8
    ),
}


@contextmanager
def _maybe_profile(section: str, enabled: bool, top: int = 15):
    """Run a bench section under ``cProfile`` when ``--profile`` is set.

    Prints the ``top`` cumulative-time functions per section to stdout;
    profiling inflates the section's wall times, so ``--profile`` runs are
    for finding hot spots, not for committing as the tracked baseline.
    """
    if not enabled:
        yield
        return
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        stream = io.StringIO()
        pstats.Stats(prof, stream=stream).sort_stats("cumulative").print_stats(top)
        print(f"--- profile: {section} (top {top} by cumulative time) ---")
        print(stream.getvalue())


def _solve_outcome(
    solver, subs, catalogs: Dict[str, VDPSCatalog], rng_factory: RngFactory
) -> Tuple[List[Tuple[str, Tuple[str, ...], float]], int, bool]:
    """Solve every sub-problem; returns (routes+payoffs, rounds, converged).

    Seeds follow the ``"<solver.name>:<center_id>"`` streams of
    :func:`repro.experiments.runner.run_algorithms`, so the bench's solves
    are the same solves an experiment arm would run.
    """
    outcome: List[Tuple[str, Tuple[str, ...], float]] = []
    rounds = 0
    converged = True
    for sub in subs:
        seed = rng_factory.get(f"{solver.name}:{sub.center.center_id}")
        result = solver.solve(
            sub, catalog=catalogs[sub.center.center_id], seed=seed
        )
        rounds += result.rounds
        converged = converged and result.converged
        for pair in result.assignment.pairs:
            outcome.append(
                (pair.worker.worker_id, pair.delivery_point_ids, pair.payoff)
            )
    return outcome, rounds, converged


def _timed_engine_phase(
    make_solver, subs, catalogs, seed: int, repeats: int
) -> Dict[str, object]:
    """Best-of-``repeats`` wall time per engine plus the identity check."""
    phase: Dict[str, object] = {}
    outcomes = {}
    for engine in ("scalar", "vectorized"):
        solver = make_solver(engine)
        before = METRICS.snapshot()
        best = None
        for _ in range(repeats):
            rng_factory = RngFactory(seed)
            start = time.perf_counter()
            outcome = _solve_outcome(solver, subs, catalogs, rng_factory)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        outcomes[engine] = outcome
        phase[f"{engine}_seconds"] = best
        phase[f"metrics_{engine}"] = METRICS.delta(before)
    routes, rounds, converged = outcomes["vectorized"]
    payoffs = [p for _, _, p in routes]
    from repro.core.payoff import average_payoff, payoff_difference

    phase["rounds"] = rounds
    phase["converged"] = converged
    phase["payoff_difference"] = payoff_difference(payoffs)
    phase["average_payoff"] = average_payoff(payoffs)
    phase["identical"] = outcomes["scalar"] == outcomes["vectorized"]
    scalar_s = phase["scalar_seconds"]
    vector_s = phase["vectorized_seconds"]
    phase["speedup"] = (scalar_s / vector_s) if vector_s > 0 else None
    return phase


def _churn_steps(
    sub: SubProblem, seed: int
) -> Iterator[Tuple[str, SubProblem]]:
    """Four seeded single-point churn steps over ``sub``'s center.

    One delivery point changes per step — the live service's common case —
    covering the delta layer's main operations: a task arriving at a point,
    a deadline moving, a task leaving (possibly emptying the point), and
    the same task id returning with a different deadline.  Steps chain:
    each yielded sub-problem includes all previous churn.
    """
    rng = random.Random(seed)
    points = {dp.dp_id: dp for dp in sub.center.delivery_points}

    def emit(op: str) -> Tuple[str, SubProblem]:
        center = DistributionCenter(
            sub.center.center_id, sub.center.location, tuple(points.values())
        )
        return op, SubProblem(center, sub.workers, sub.travel)

    with_tasks = sorted(p for p, dp in points.items() if dp.tasks)
    target = rng.choice(with_tasks) if with_tasks else sorted(points)[0]

    dp = points[target]
    arrival = SpatialTask("bench_arrival", target, 1.5 + rng.random())
    points[target] = dp.with_tasks(dp.tasks + (arrival,))
    yield emit("task_arrival")

    dp = points[target]
    moved = SpatialTask(
        dp.tasks[0].task_id, target, dp.tasks[0].expiry * 0.5, dp.tasks[0].reward
    )
    points[target] = dp.with_tasks((moved,) + dp.tasks[1:])
    yield emit("deadline_change")

    dp = points[target]
    departed = dp.tasks[0]
    points[target] = dp.with_tasks(dp.tasks[1:])
    yield emit("task_expiry")

    dp = points[target]
    returned = SpatialTask(
        departed.task_id, target, departed.expiry + 0.75, departed.reward
    )
    points[target] = dp.with_tasks(dp.tasks + (returned,))
    yield emit("task_return")


def _catalog_delta_phase(
    subs, epsilon: float, seed: int, repeats: int
) -> Dict[str, object]:
    """Time single-point delta refreshes against full center rebuilds.

    Runs on the largest center (where a rebuild hurts most).  Each churn
    step times ``DeltaCatalog.refresh`` best-of-``repeats`` — on a pristine
    deep copy per repeat, since a refresh mutates the catalog in place and
    a second identical refresh would be a no-op — against a from-scratch
    ``build_catalog`` of the same sub-problem, and checks the two outputs
    for exact equality with :func:`catalog_diff`.  Like the engine phases,
    a report whose ``identical`` flag is false is a correctness bug, not a
    performance number.
    """
    sub = max(subs, key=lambda s: len(s.center.delivery_points))
    before = METRICS.snapshot()
    start = time.perf_counter()
    delta = DeltaCatalog(sub, epsilon=epsilon)
    initial_seconds = time.perf_counter() - start

    steps: List[Dict[str, object]] = []
    total_delta = 0.0
    total_rebuild = 0.0
    identical = True
    for op, churned in _churn_steps(sub, seed):
        best_delta = None
        catalog = None
        for _ in range(repeats):
            work = copy.deepcopy(delta)  # pristine pre-step state, untimed
            t0 = time.perf_counter()
            catalog = work.refresh(churned)
            elapsed = time.perf_counter() - t0
            best_delta = elapsed if best_delta is None else min(best_delta, elapsed)
        best_rebuild = None
        rebuilt = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            rebuilt = build_catalog(churned, epsilon=epsilon)
            elapsed = time.perf_counter() - t0
            best_rebuild = (
                elapsed if best_rebuild is None else min(best_rebuild, elapsed)
            )
        step_identical = not catalog_diff(catalog, rebuilt)
        identical = identical and step_identical
        total_delta += best_delta
        total_rebuild += best_rebuild
        steps.append(
            {
                "op": op,
                "delta_seconds": best_delta,
                "rebuild_seconds": best_rebuild,
                "speedup": (best_rebuild / best_delta) if best_delta > 0 else None,
                "identical": step_identical,
            }
        )
        delta.refresh(churned)  # advance the live catalog to this step

    return {
        "center": sub.center.center_id,
        "delivery_points": len(sub.center.delivery_points),
        "initial_build_seconds": initial_seconds,
        "steps": steps,
        "delta_seconds": total_delta,
        "rebuild_seconds": total_rebuild,
        "speedup": (total_rebuild / total_delta) if total_delta > 0 else None,
        "identical": identical,
        "metrics": METRICS.delta(before),
    }


#: Observability-overhead budget: a tracing-disabled dispatch round may
#: cost at most this much more than the tracked baseline (schema 3).
OBS_OVERHEAD_BUDGET_PCT = 2.0


def _fingerprint(result) -> Tuple[Tuple[str, float], ...]:
    """Order-independent identity of one round's assignment decisions."""
    routes = tuple(
        (center, worker, tuple(route))
        for center, per_worker in sorted(result.assignments.items())
        for worker, route in sorted(per_worker.items())
    )
    payoffs = tuple(sorted(result.payoffs.items()))
    return (routes, payoffs)


def _obs_overhead_phase(instance, epsilon: float, seed: int, repeats: int):
    """Dispatch-round wall time: tracing disabled vs sampled-out vs on.

    Three :class:`~repro.service.engine.DispatchEngine` instances run the
    same uncommitted round (``commit=False`` leaves the world untouched,
    so every repetition solves identical sub-problems):

    * ``disabled`` — ``NULL_TRACER`` throughout: the cost of the
      instrumented engine with tracing off.  This is the number the
      tracked baseline guards: the ``if tracer.enabled`` guards must keep
      the disabled path within :data:`OBS_OVERHEAD_BUDGET_PCT` of the
      committed ``BENCH_core.json``.
    * ``sampled_out`` — a live JSONL tracer with ``REPRO_TRACE_SAMPLE=0``:
      every round's trace is head-sampled away, measuring the cost of
      carrying span context without emitting records.
    * ``traced`` — the same tracer at sample rate 1.0: full emission cost.

    The three modes must produce bit-identical assignments (``identical``)
    — tracing is observation, never behaviour.
    """
    import os
    import tempfile

    from repro.obs.tracer import JsonlTracer, SAMPLE_ENV_VAR
    from repro.service.engine import DispatchEngine
    from repro.service.state import WorldState

    def make_engine(trace) -> DispatchEngine:
        state = WorldState(instance.centers, travel=instance.travel)
        state.add_workers(instance.workers)
        state.add_tasks(
            [
                {
                    "task_id": task.task_id,
                    "dp_id": task.delivery_point_id,
                    "expiry": task.expiry,
                    "reward": task.reward,
                }
                for center in instance.centers
                for task in center.tasks
            ]
        )
        return DispatchEngine(
            state,
            FGTSolver(epsilon=epsilon),
            epsilon=epsilon,
            seed=seed,
            trace=trace,
        )

    phase: Dict[str, object] = {"budget_pct": OBS_OVERHEAD_BUDGET_PCT}
    fingerprints = {}
    saved_rate = os.environ.get(SAMPLE_ENV_VAR)
    with tempfile.TemporaryDirectory(prefix="repro_bench_obs_") as tmp:
        for mode in ("disabled", "sampled_out", "traced"):
            tracer: object = False
            if mode != "disabled":
                tracer = JsonlTracer(Path(tmp) / f"{mode}.jsonl")
                os.environ[SAMPLE_ENV_VAR] = (
                    "0.0" if mode == "sampled_out" else "1.0"
                )
            try:
                engine = make_engine(tracer)
                result = engine.dispatch(commit=False)  # warm caches, untimed
                fingerprints[mode] = _fingerprint(result)
                best = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    engine.dispatch(commit=False)
                    elapsed = time.perf_counter() - t0
                    best = elapsed if best is None else min(best, elapsed)
                phase[f"{mode}_seconds"] = best
            finally:
                if tracer is not False:
                    tracer.close()
                if saved_rate is None:
                    os.environ.pop(SAMPLE_ENV_VAR, None)
                else:
                    os.environ[SAMPLE_ENV_VAR] = saved_rate
    disabled = phase["disabled_seconds"]
    for mode in ("sampled_out", "traced"):
        phase[f"{mode}_overhead_pct"] = (
            100.0 * (phase[f"{mode}_seconds"] - disabled) / disabled
            if disabled > 0
            else None
        )
    phase["identical"] = (
        fingerprints["disabled"]
        == fingerprints["sampled_out"]
        == fingerprints["traced"]
    )
    return phase


def _overhead_vs_tracked_baseline(
    phase: Dict[str, object], output: Optional[Path], scale: str
) -> None:
    """Fold the committed baseline's disabled-path time into ``phase``.

    The previous ``BENCH_core.json`` at ``output`` (the tracked baseline,
    about to be overwritten) is the cross-PR reference: a regression of
    the tracing-disabled dispatch beyond :data:`OBS_OVERHEAD_BUDGET_PCT`
    sets ``within_budget`` false.  Timing noise makes this advisory —
    the CLI warns instead of failing — but the number is recorded so a
    real regression is visible in the diff.
    """
    phase["baseline_disabled_seconds"] = None
    phase["regression_pct"] = None
    phase["within_budget"] = True
    if output is None or not Path(output).exists():
        return
    try:
        previous = json.loads(Path(output).read_text())
        if previous.get("scale") != scale:
            return  # a baseline at another shape is not comparable
        baseline = previous["obs_overhead"]["disabled_seconds"]
    except (ValueError, KeyError, TypeError):
        return
    if not isinstance(baseline, (int, float)) or baseline <= 0:
        return
    regression = 100.0 * (phase["disabled_seconds"] - baseline) / baseline
    phase["baseline_disabled_seconds"] = baseline
    phase["regression_pct"] = regression
    phase["within_budget"] = regression < OBS_OVERHEAD_BUDGET_PCT


def _temporal_fairness_phase(seed: int, rounds: int) -> Dict[str, object]:
    """Ledger-weighted vs per-round dispatch on the unlucky-worker world.

    Runs :func:`repro.equity.report.compare_scenario` — the same runner
    behind ``python -m repro equity report`` — and records the rolling
    Gini of both arms, the gap closed, and the efficiency cost, plus the
    two gate flags ``improved`` and ``within_budget`` that
    ``python -m repro bench`` fails on.
    """
    from repro.equity.report import EFFICIENCY_BUDGET_PCT, compare_scenario
    from repro.sim.scenarios import unlucky_worker

    start = time.perf_counter()
    comparison = compare_scenario(unlucky_worker(rounds=rounds), seed=seed)
    seconds = time.perf_counter() - start
    return {
        "scenario": comparison.scenario,
        "algorithm": comparison.ledger.algorithm,
        "rounds": rounds,
        "seconds": seconds,
        "per_round_rolling_gini": comparison.per_round.rolling_gini,
        "ledger_rolling_gini": comparison.ledger.rolling_gini,
        "per_round_total_payoff": comparison.per_round.total_payoff,
        "ledger_total_payoff": comparison.ledger.total_payoff,
        "gini_gap_closed": comparison.gini_gap_closed,
        "gini_gap_closed_pct": comparison.gini_gap_closed_pct,
        "efficiency_cost_pct": comparison.efficiency_cost_pct,
        "budget_pct": EFFICIENCY_BUDGET_PCT,
        "improved": comparison.improved,
        "within_budget": comparison.within_budget,
    }


def _shards_world():
    """A small deterministic four-center world for the shard-pool phase.

    ``generate_gmission_like`` emits exactly one distribution center, so
    the shard phase builds its own layout: four centers on a wide square
    (10 km apart — partitions never interact), each with three delivery
    points on a 1 km ring, two resident workers, and four seeded tasks
    with staggered expiries.  Pure arithmetic, no RNG: every arm replays
    the same world and only the process topology differs.
    """
    import math

    from repro.core.entities import DeliveryPoint, Worker
    from repro.geo.point import Point
    from repro.geo.travel import TravelModel

    centers = []
    workers = []
    tasks = []
    for c in range(4):
        cx, cy = 10.0 * (c % 2), 10.0 * (c // 2)
        points = []
        for i in range(3):
            angle = 2.0 * math.pi * i / 3.0
            points.append(
                DeliveryPoint(
                    dp_id=f"bench-c{c}-dp{i}",
                    location=Point(
                        cx + math.cos(angle), cy + math.sin(angle)
                    ),
                    tasks=(),
                )
            )
        centers.append(
            DistributionCenter(
                f"bench-c{c}", Point(cx, cy), tuple(points)
            )
        )
        for w in range(2):
            workers.append(
                Worker(
                    worker_id=f"bench-c{c}-w{w}",
                    location=Point(cx + 0.2 + 0.3 * w, cy - 0.2),
                    max_delivery_points=2,
                    center_id=f"bench-c{c}",
                )
            )
        for t in range(4):
            tasks.append(
                {
                    "task_id": f"bench-c{c}-t{t}",
                    "dp_id": f"bench-c{c}-dp{t % 3}",
                    "expiry": 1.0 + 0.5 * t,
                    "reward": 1.0 + 0.25 * (t % 2),
                }
            )
    return centers, workers, tasks, TravelModel()


def _shards_phase(seed: int, rounds: int) -> Dict[str, object]:
    """Supervised shard pool vs the single-process engine, plus chaos.

    Three arms replay the same four-center world for ``rounds`` rounds,
    every arm under the same ``solve_deadline_s``:

    * ``single`` — one :class:`~repro.service.engine.DispatchEngine`
      over the whole world.
    * ``sharded`` — a two-shard
      :class:`~repro.service.shards.ShardedDispatchEngine`; per-round
      fingerprints and payoff aggregates must be bit-identical to the
      single arm (``identical`` — a hard CLI gate).
    * ``kill`` — the same pool with a chaos plan that SIGKILLs shard 0
      mid-run; the supervisor must respawn it, replay its journal
      segment, and finish bit-identical to the clean sharded arm
      (``recovered_identical`` with ``respawns >= 1`` — a hard CLI
      gate).
    """
    import tempfile

    from repro.baselines.mpta import MPTASolver
    from repro.service.engine import DispatchEngine
    from repro.service.faults import FaultPlan
    from repro.service.shards import ShardedDispatchEngine
    from repro.service.state import WorldState

    centers, workers, tasks, travel = _shards_world()
    kill_round = max(1, rounds // 2)

    def round_identity(result) -> Tuple[object, ...]:
        return (
            _fingerprint(result),
            result.payoff_difference,
            result.average_payoff,
            result.pending_tasks,
        )

    def run_single():
        state = WorldState(centers, workers=workers, travel=travel)
        state.add_tasks(tasks)
        engine = DispatchEngine(
            state, MPTASolver(), seed=seed, solve_deadline_s=30.0
        )
        t0 = time.perf_counter()
        idents = [
            round_identity(engine.dispatch(advance_hours=0.25))
            for _ in range(rounds)
        ]
        return idents, time.perf_counter() - t0

    def run_sharded(journal_dir, faults=None):
        engine = ShardedDispatchEngine(
            centers,
            MPTASolver(),
            travel=travel,
            shards=2,
            seed=seed,
            solve_deadline_s=30.0,
            heartbeat_timeout_s=5.0,
            faults=faults,
            journal_dir=journal_dir,
            journal_fsync=False,
        )
        try:
            engine.state.add_workers(workers)
            engine.state.add_tasks(tasks)
            t0 = time.perf_counter()
            idents = [
                round_identity(engine.dispatch(advance_hours=0.25))
                for _ in range(rounds)
            ]
            elapsed = time.perf_counter() - t0
            fingerprint = engine.state.fingerprint()
            respawns = sum(
                h["respawns"] for h in engine.shard_health().values()
            )
            return idents, elapsed, fingerprint, respawns
        finally:
            engine.begin_drain()
            engine.drain()

    single_idents, single_seconds = run_single()
    with tempfile.TemporaryDirectory(prefix="repro_bench_shards_") as tmp:
        clean_idents, sharded_seconds, clean_fp, _ = run_sharded(
            Path(tmp) / "clean"
        )
        kill_idents, _, kill_fp, respawns = run_sharded(
            Path(tmp) / "kill",
            faults=FaultPlan(
                shard_kill_round=kill_round, shard_kill_index=0
            ),
        )
    return {
        "shards": 2,
        "centers": len(centers),
        "rounds": rounds,
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": (
            single_seconds / sharded_seconds if sharded_seconds > 0 else None
        ),
        "identical": single_idents == clean_idents,
        "kill_round": kill_round,
        "killed_shard": 0,
        "respawns": respawns,
        "recovered_identical": (
            kill_idents == clean_idents and kill_fp == clean_fp
        ),
    }


def _kernel_phase(
    subs, epsilon: float, scale: str, seed: int, repeats: int
) -> Dict[str, object]:
    """Time ``build_catalog`` under the scalar and vectorized kernel tiers.

    Runs on the largest center, best-of-``repeats`` per tier, and checks
    the two catalogs for exact equality with :func:`catalog_diff` — the
    tiers are bit-identical by contract (``docs/performance.md``), so a
    false ``identical`` here is a correctness bug, not a performance
    number, and the CLI exits non-zero on it.

    Every timed repeat is a *cold* build: the travel model's cross-build
    distance memo is cleared first (and GC is paused during the timing).
    The scalar tier would otherwise amortise its memo across repeats
    while the vectorized tier recomputes its travel matrix every build —
    cold-vs-cold is the apples-to-apples comparison of the two tiers on
    identical work.

    The ``large`` arm then generates :data:`KERNEL_LARGE_SHAPES`'s
    instance for this scale and builds it once, vectorized-only: at medium
    scale that is 1k workers / 10k tasks, far past where the scalar tier
    fits in bench time, so the record is a completion time, not a speedup.
    """
    sub = max(subs, key=lambda s: len(s.center.delivery_points))
    phase: Dict[str, object] = {
        "center": sub.center.center_id,
        "delivery_points": len(sub.center.delivery_points),
        "workers": len(sub.workers),
    }
    catalogs: Dict[str, VDPSCatalog] = {}
    for tier in ("scalar", "vectorized"):
        before = METRICS.snapshot()
        best = None
        for _ in range(repeats):
            sub.travel.clear_cache()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                catalogs[tier] = build_catalog(
                    sub, epsilon=epsilon, kernel=tier
                )
                elapsed = time.perf_counter() - t0
            finally:
                if gc_was_enabled:
                    gc.enable()
            best = elapsed if best is None else min(best, elapsed)
        phase[f"{tier}_seconds"] = best
        phase[f"metrics_{tier}"] = METRICS.delta(before)
    phase["strategies"] = catalogs["vectorized"].total_strategy_count
    phase["cvdps"] = catalogs["vectorized"].cvdps_count
    phase["identical"] = not catalog_diff(
        catalogs["scalar"], catalogs["vectorized"]
    )
    scalar_s = phase["scalar_seconds"]
    vector_s = phase["vectorized_seconds"]
    phase["speedup"] = (scalar_s / vector_s) if vector_s > 0 else None

    large_shape = KERNEL_LARGE_SHAPES[scale]
    large_instance = generate_gmission_like(
        GMissionConfig(
            n_tasks=large_shape.n_tasks,
            n_workers=large_shape.n_workers,
            n_delivery_points=large_shape.n_delivery_points,
        ),
        seed=seed,
    )
    large_sub = max(
        large_instance.subproblems(),
        key=lambda s: len(s.center.delivery_points),
    )
    t0 = time.perf_counter()
    large_catalog = build_catalog(
        large_sub, epsilon=large_shape.epsilon, kernel="vectorized"
    )
    large_seconds = time.perf_counter() - t0
    phase["large"] = {
        "shape": large_shape.as_dict(),
        "kernel": "vectorized",
        "seconds": large_seconds,
        "strategies": large_catalog.total_strategy_count,
        "cvdps": large_catalog.cvdps_count,
    }
    return phase


def run_bench(
    scale: str = "medium",
    seed: int = 0,
    repeats: int = 3,
    output: Optional[Path] = None,
    profile: bool = False,
) -> Dict[str, object]:
    """Run the pinned benchmark and (optionally) write the JSON report."""
    if scale not in BENCH_SHAPES:
        raise ValueError(
            f"scale must be one of {sorted(BENCH_SHAPES)}, got {scale!r}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    shape = BENCH_SHAPES[scale]
    instance = generate_gmission_like(
        GMissionConfig(
            n_tasks=shape.n_tasks,
            n_workers=shape.n_workers,
            n_delivery_points=shape.n_delivery_points,
        ),
        seed=seed,
    )
    subs = list(instance.subproblems())

    before = METRICS.snapshot()
    with _maybe_profile("catalog", profile):
        start = time.perf_counter()
        catalogs = {
            sub.center.center_id: build_catalog(sub, epsilon=shape.epsilon)
            for sub in subs
        }
        catalog_seconds = time.perf_counter() - start
    catalog_metrics = METRICS.delta(before)

    report: Dict[str, object] = {
        "schema": 6,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "shape": shape.as_dict(),
        "catalog": {
            "seconds": catalog_seconds,
            "strategies": sum(c.total_strategy_count for c in catalogs.values()),
            "cvdps": sum(c.cvdps_count for c in catalogs.values()),
            "metrics": catalog_metrics,
        },
    }
    with _maybe_profile("kernel", profile):
        report["kernel"] = _kernel_phase(
            subs, shape.epsilon, scale, seed, repeats
        )
    with _maybe_profile("fgt", profile):
        report["fgt"] = _timed_engine_phase(
            lambda engine: FGTSolver(epsilon=shape.epsilon, engine=engine),
            subs,
            catalogs,
            seed,
            repeats,
        )
    with _maybe_profile("iegt", profile):
        report["iegt"] = _timed_engine_phase(
            lambda engine: IEGTSolver(epsilon=shape.epsilon, engine=engine),
            subs,
            catalogs,
            seed,
            repeats,
        )
    with _maybe_profile("catalog_delta", profile):
        report["catalog_delta"] = _catalog_delta_phase(
            subs, shape.epsilon, seed, repeats
        )
    with _maybe_profile("obs_overhead", profile):
        report["obs_overhead"] = _obs_overhead_phase(
            instance, shape.epsilon, seed, repeats
        )
    with _maybe_profile("temporal_fairness", profile):
        report["temporal_fairness"] = _temporal_fairness_phase(
            seed, rounds=16 if scale == "smoke" else 28
        )
    with _maybe_profile("shards", profile):
        report["shards"] = _shards_phase(
            seed, rounds=4 if scale == "smoke" else 6
        )
    _overhead_vs_tracked_baseline(report["obs_overhead"], output, scale)
    if output is not None:
        output = Path(output)
        if output.parent != Path(""):
            output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a bench report for CLI output."""
    lines = [
        f"bench scale={report['scale']} seed={report['seed']} "
        f"repeats={report['repeats']}",
        f"shape            : {report['shape']}",
        f"catalog build    : {report['catalog']['seconds']:.3f}s "
        f"({report['catalog']['strategies']} strategies)",
    ]
    kernel = report.get("kernel")
    if kernel is not None:
        lines.append(
            f"kernel tiers     : scalar={kernel['scalar_seconds']:.3f}s "
            f"vectorized={kernel['vectorized_seconds']:.3f}s "
            f"speedup={kernel['speedup']:.1f}x "
            f"identical={kernel['identical']}"
        )
        large = kernel["large"]
        lines.append(
            f"  large arm      : {large['shape']['n_tasks']} tasks / "
            f"{large['shape']['n_workers']} workers -> "
            f"{large['seconds']:.3f}s ({large['kernel']}, "
            f"{large['strategies']} strategies)"
        )
    for phase in ("fgt", "iegt"):
        data = report[phase]
        lines.append(
            f"{phase.upper():<5} solve      : scalar={data['scalar_seconds']:.3f}s "
            f"vectorized={data['vectorized_seconds']:.3f}s "
            f"speedup={data['speedup']:.1f}x "
            f"identical={data['identical']} rounds={data['rounds']}"
        )
    delta = report.get("catalog_delta")
    if delta is not None:
        lines.append(
            f"catalog delta    : refresh={delta['delta_seconds']:.4f}s "
            f"rebuild={delta['rebuild_seconds']:.3f}s "
            f"speedup={delta['speedup']:.1f}x "
            f"identical={delta['identical']} steps={len(delta['steps'])}"
        )
    obs = report.get("obs_overhead")
    if obs is not None:
        lines.append(
            f"obs overhead     : disabled={obs['disabled_seconds']:.4f}s "
            f"sampled_out={obs['sampled_out_overhead_pct']:+.1f}% "
            f"traced={obs['traced_overhead_pct']:+.1f}% "
            f"identical={obs['identical']}"
        )
        if obs.get("regression_pct") is not None:
            lines.append(
                f"  vs tracked     : baseline="
                f"{obs['baseline_disabled_seconds']:.4f}s "
                f"regression={obs['regression_pct']:+.1f}% "
                f"(budget {obs['budget_pct']:.0f}%) "
                f"within_budget={obs['within_budget']}"
            )
    equity = report.get("temporal_fairness")
    if equity is not None:
        lines.append(
            f"temporal fairness: rolling_gini "
            f"{equity['per_round_rolling_gini']:.4f} -> "
            f"{equity['ledger_rolling_gini']:.4f} "
            f"({equity['gini_gap_closed_pct']:+.1f}%) "
            f"cost={equity['efficiency_cost_pct']:.1f}% "
            f"(budget {equity['budget_pct']:.0f}%) "
            f"improved={equity['improved']} "
            f"within_budget={equity['within_budget']}"
        )
    shards = report.get("shards")
    if shards is not None:
        lines.append(
            f"shard pool       : shards={shards['shards']} "
            f"rounds={shards['rounds']} "
            f"single={shards['single_seconds']:.3f}s "
            f"sharded={shards['sharded_seconds']:.3f}s "
            f"identical={shards['identical']} "
            f"respawns={shards['respawns']} "
            f"recovered_identical={shards['recovered_identical']}"
        )
    return "\n".join(lines)
