"""The offline SYN batch at the paper's default point.

A fixed sequence of seeded instances (instance ``k`` is generated with
seed ``k``; ``--seed`` only seeds the solvers) is solved cold: each
center's catalog is built once and shared by the FGT and IEGT arms, which
fan out over the centers through :func:`repro.parallel.solve_instance`
with the per-arm seed streams of
:func:`repro.experiments.runner.run_algorithms`.  The gate re-solves every
instance with ``run_algorithms(..., verify=True)`` after the timed phase.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List

from settings import PaperSetting, derive_seed, gc_paused, mean, p50, p95


class _TimedSolver:
    """Delegates to a solver and keeps each center's solve time."""

    def __init__(self, solver) -> None:
        self.solver = solver
        self.name = solver.name
        self.seconds: Dict[str, float] = {}

    def solve(self, sub, catalog=None, seed=None):
        start = time.perf_counter()
        result = self.solver.solve(sub, catalog=catalog, seed=seed)
        self.seconds[sub.center.center_id] = time.perf_counter() - start
        return result


@dataclass
class InstanceOutcome:
    """One instance's timings and both arms' payoffs (subproblem order)."""

    index: int
    setup_seconds: float
    batch_seconds: float
    build_seconds: List[float]
    center_seconds: List[float]
    payoffs: Dict[str, List[float]]
    assigned: Dict[str, int]


@dataclass
class PaperPhase:
    """Everything one measured phase produced."""

    instances: List[InstanceOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def _specs():
    from repro.experiments.runner import default_algorithms

    return [s for s in default_algorithms(include_mpta=False) if s.name in ("FGT", "IEGT")]


def _instance(setting: PaperSetting, index: int):
    from repro.datasets.synthetic import generate_synthetic

    return generate_synthetic(setting.config, seed=index)


def _solve_seed(seed: int, index: int) -> int:
    return derive_seed(seed, f"solve:{index}")


def run_paper(
    setting: PaperSetting, seed: int, seconds: float, min_only: bool = False
) -> PaperPhase:
    """Solve instances ``0, 1, ...`` until ``seconds`` and the minimum are done."""
    from repro.parallel import solve_instance
    from repro.vdps.catalog import build_catalog

    phase = PaperPhase()
    specs = _specs()
    begin = time.perf_counter()
    index = 0
    while True:
        done = index >= setting.min_instances
        if done and (min_only or time.perf_counter() - begin >= seconds):
            break
        gc.collect()  # each instance starts from a collected heap
        start = time.perf_counter()
        instance = _instance(setting, index)
        setup = time.perf_counter() - start
        start = time.perf_counter()
        subs = instance.subproblems()
        catalogs = {}
        builds: List[float] = []
        for sub in subs:
            t = time.perf_counter()
            catalogs[sub.center.center_id] = build_catalog(sub, epsilon=setting.epsilon)
            builds.append(time.perf_counter() - t)
        solvers = [_TimedSolver(spec.build(setting.epsilon)) for spec in specs]
        solutions = {}
        for spec, solver in zip(specs, solvers):
            phase.attempted += 1
            try:
                solutions[spec.name] = solve_instance(
                    instance,
                    solver,
                    epsilon=setting.epsilon,
                    seed=_solve_seed(seed, index),
                    seed_stream=spec.name,
                    catalogs=catalogs,
                )
            except Exception as exc:  # a failed arm is counted, not fatal
                phase.failed += 1
                phase.errors.append(f"instance {index} {spec.name}: {exc!r}")
        batch = time.perf_counter() - start
        order = [sub.center.center_id for sub in subs]
        phase.instances.append(
            InstanceOutcome(
                index=index,
                setup_seconds=setup,
                batch_seconds=batch,
                build_seconds=builds,
                center_seconds=[
                    sum(s.seconds.get(cid, 0.0) for s in solvers) for cid in order
                ],
                payoffs={
                    name: [p for cid in order for p in sol.assignments[cid].payoffs]
                    for name, sol in solutions.items()
                },
                assigned={
                    name: sum(
                        pair.task_count
                        for a in sol.assignments.values()
                        for pair in a
                    )
                    for name, sol in solutions.items()
                },
            )
        )
        del instance, subs, catalogs, solutions
        index += 1
    phase.wall_seconds = time.perf_counter() - begin
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phase


def reference(setting: PaperSetting, seed: int, index: int) -> Dict[str, List[float]]:
    """``arm -> payoffs`` of ``run_algorithms(..., verify=True)`` on one instance."""
    from repro.experiments.runner import run_algorithms

    records = run_algorithms(
        _instance(setting, index),
        _specs(),
        setting.epsilon,
        seed=_solve_seed(seed, index),
        verify=True,
    )
    return {record.algorithm: list(record.payoffs) for record in records}


def mismatches(setting: PaperSetting, seed: int, phase: PaperPhase) -> List[str]:
    """Instances whose payoffs differ from the verified reference."""
    problems: List[str] = []
    for outcome in phase.instances:
        with gc_paused():
            expected = reference(setting, seed, outcome.index)
        for arm, payoffs in expected.items():
            if outcome.payoffs.get(arm) != payoffs:
                problems.append(f"instance {outcome.index} {arm}: payoffs differ")
    return problems


def end_to_end(setting: PaperSetting, phase: PaperPhase) -> Dict[str, float]:
    """The end-to-end metrics of one ``paper-syn`` run but ``ok_ratio`` (README.md)."""
    from repro.core.payoff import average_payoff, payoff_difference

    prefix = phase.instances[: setting.min_instances]

    def quality(arm: str, fn) -> float:
        return mean([fn(o.payoffs[arm]) for o in prefix if arm in o.payoffs])

    batch_total = sum(o.batch_seconds for o in phase.instances)
    return {
        "setup_s": p50([o.setup_seconds for o in phase.instances]),
        "round_p50_ms": 1000.0 * p50([s for o in phase.instances for s in o.center_seconds]),
        "round_p95_ms": 1000.0 * p95([s for o in phase.instances for s in o.center_seconds]),
        "ingest_p50_ms": 1000.0 * p50([s for o in phase.instances for s in o.build_seconds]),
        "ingest_p95_ms": 1000.0 * p95([s for o in phase.instances for s in o.build_seconds]),
        "assigned_tasks_per_s": sum(
            sum(o.assigned.values()) for o in phase.instances
        )
        / batch_total,
        "batch_solve_s": p50([o.batch_seconds for o in phase.instances]),
        "p_dif": quality("FGT", payoff_difference),
        "avg_payoff": quality("FGT", average_payoff),
        "iegt_p_dif": quality("IEGT", payoff_difference),
        "iegt_avg_payoff": quality("IEGT", average_payoff),
        "assigned_ratio": sum(o.assigned.get("FGT", 0) for o in prefix)
        / (len(prefix) * setting.config.n_tasks),
        "peak_rss_mb": phase.peak_rss_mb,
    }
