"""The served workloads: an in-process ``DispatchServer`` driven over HTTP.

One single-threaded client runs a closed loop against a server booted
with the service defaults (FGT, delta catalog on, ``n_jobs=1``) and a
write-ahead journal.  The load is a seeded :class:`LoadGenerator`; the
server receives only the generated requests.  The request script is a
pure function of the setting and the seed, so once the timed phase is
over the correctness gate regenerates it and replays it in-process
through ``DispatchEngine(verify=True)``.
"""

from __future__ import annotations

import gc
import json
import resource
import tempfile
import time
from itertools import islice
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from settings import ServeSetting, derive_seed, gc_paused, mean, p50, p95

#: Fields of a round that must equal the replay's exactly.
ROUND_FIELDS = (
    "round",
    "committed",
    "assignments",
    "payoffs",
    "payoff_difference",
    "average_payoff",
    "assigned_tasks",
    "pending_tasks",
)


@dataclass
class ServedPhase:
    """What one measured phase saw and timed.

    Replies are kept as JSON text, not parsed objects, so the benchmark's
    own records do not lengthen the program's garbage collections.
    """

    setup_seconds: List[float] = field(default_factory=list)
    setup_replies: List[str] = field(default_factory=list)
    #: ``POST /dispatch`` replies in order, warm-up included; ``""`` for a
    #: failed request.
    replies: List[str] = field(default_factory=list)
    #: Latencies and window times of the measured windows only.
    round_seconds: List[float] = field(default_factory=list)
    ingest_seconds: List[float] = field(default_factory=list)
    window_seconds: List[float] = field(default_factory=list)
    #: Windows run, warm-up included.
    windows: int = 0
    #: ``replies[warmup_rounds:prefix_rounds]`` are the rounds of the fixed
    #: prefix (the first ``min_windows`` measured windows).
    warmup_rounds: int = 0
    prefix_rounds: int = 0
    wall_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def rounds(self) -> List[Dict]:
        """The parsed replies (``{}`` for a failed request)."""
        return [json.loads(r) if r else {} for r in self.replies]


def _city(setting: ServeSetting):
    from repro.datasets.gmission import GMissionConfig, generate_gmission_like

    config = GMissionConfig(
        n_tasks=setting.n_tasks,
        n_workers=setting.n_workers,
        n_delivery_points=setting.n_delivery_points,
    )
    return generate_gmission_like(config, seed=setting.city_seed)


def _fleet(city) -> List[Dict]:
    return [
        {
            "worker_id": w.worker_id,
            "x": w.location.x,
            "y": w.location.y,
            "max_delivery_points": w.max_delivery_points,
        }
        for w in city.workers
    ]


def _queue(city) -> List[Dict]:
    return [
        {
            "task_id": t.task_id,
            "dp_id": t.delivery_point_id,
            "expiry": t.expiry,
            "reward": t.reward,
        }
        for center in city.centers
        for t in center.tasks
    ]


def script(setting: ServeSetting, seed: int, city) -> Iterator[List[Tuple]]:
    """Each window's requests, in order, for as many windows as are asked.

    An operation is ``("tasks", batch)`` or ``("dispatch", advance_hours,
    commit)``.  The script depends only on the setting and the seed, so the
    gate regenerates it instead of the run keeping it.
    """
    from repro.service import LoadGenerator

    dp_ids = [dp.dp_id for c in city.centers for dp in c.delivery_points]
    load = LoadGenerator(dp_ids, seed=derive_seed(seed, "load"))
    per_post = setting.tasks_per_post
    now = 0.0
    while True:
        ops: List[Tuple] = []
        if setting.mode == "window":
            for _ in range(setting.batches):
                ops.append(("tasks", load.tasks(per_post, now)))
            now += setting.window_hours
            ops.append(("dispatch", setting.window_hours, True))
        else:
            for k in range(setting.batches):
                ops.append(("tasks", load.tasks(per_post, now)))
                advance = setting.window_hours if k == 0 else 0.0
                now += advance
                ops.append(("dispatch", advance, k == setting.batches - 1))
        yield ops


def _solver(setting: ServeSetting):
    from repro.games.fgt import FGTSolver

    return FGTSolver(epsilon=setting.epsilon)


class _Boot:
    """One booted service: city, journaled world, engine, server, client."""

    def __init__(self, setting: ServeSetting, seed: int, work_dir: Path) -> None:
        from repro.service import (
            DispatchClient,
            DispatchEngine,
            DispatchServer,
            WorldJournal,
            WorldState,
        )

        self.tmp = tempfile.TemporaryDirectory(dir=work_dir)
        self.city = _city(setting)
        state = WorldState(self.city.centers, travel=self.city.travel)
        state.attach_journal(
            WorldJournal(
                Path(self.tmp.name) / "world.jsonl",
                compact_every=setting.journal_compact_every,
            )
        )
        engine = DispatchEngine(
            state,
            _solver(setting),
            epsilon=setting.epsilon,
            seed=derive_seed(seed, "engine"),
        )
        self.server = DispatchServer(engine).start_background()
        self.client = DispatchClient(self.server.url, timeout=120.0)

    def close(self) -> None:
        try:
            self.server.stop()
        finally:
            self.tmp.cleanup()


def _boot(setting: ServeSetting, seed: int, work_dir: Path, phase: ServedPhase) -> _Boot:
    """Boot, accept the fleet and the initial queue, commit the cold round."""
    start = time.perf_counter()
    boot = _Boot(setting, seed, work_dir)
    try:
        workers = boot.client.submit_workers(_fleet(boot.city))
        tasks = boot.client.submit_tasks(_queue(boot.city))
        first = boot.client.dispatch()
    except Exception:
        boot.close()
        raise
    phase.setup_seconds.append(time.perf_counter() - start)
    phase.attempted += 3
    refused = len(workers["rejected"]) + len(tasks["rejected"])
    if refused:
        phase.failed += 1
        phase.errors.append(f"setup refused {refused} items")
    phase.setup_replies.append(json.dumps(first))
    return boot


def run_served(
    setting: ServeSetting,
    seed: int,
    seconds: float,
    work_dir: Path,
    setups: Optional[int] = None,
    windows: Optional[int] = None,
    on_measure_start=None,
) -> ServedPhase:
    """Set up ``setups`` times, then drive the last server for the run.

    After ``setting.warmup_windows`` untimed windows, the loop runs whole
    windows until ``seconds`` have passed and at least
    ``setting.min_windows`` windows are done, or exactly ``windows``
    windows when given.  ``on_measure_start`` is called just before the
    first measured request (the traced run installs its wrappers there).
    """
    from repro.service import ServiceError

    phase = ServedPhase()
    boot = None
    for _ in range(setups or setting.setups):
        if boot is not None:
            boot.close()
        # Every set-up and the measured phase start from a collected heap,
        # so garbage left by the previous one does not lengthen their
        # collections.
        gc.collect()
        boot = _boot(setting, seed, work_dir, phase)
    client = boot.client

    measuring = False

    def post(batch: List[Dict]) -> None:
        start = time.perf_counter()
        try:
            reply = client.submit_tasks(batch)
        except ServiceError as exc:
            phase.failed += 1
            phase.errors.append(f"POST /tasks: {exc}")
            return
        if measuring:
            phase.ingest_seconds.append(time.perf_counter() - start)
        if reply["rejected"]:
            phase.failed += 1
            phase.errors.append(f"POST /tasks refused {reply['rejected'][:1]}")

    def dispatch(advance: float, commit: bool) -> None:
        start = time.perf_counter()
        try:
            reply = client.dispatch(advance_hours=advance, commit=commit)
        except ServiceError as exc:
            phase.failed += 1
            phase.errors.append(f"POST /dispatch: {exc}")
            phase.replies.append("")
            return
        if measuring:
            phase.round_seconds.append(time.perf_counter() - start)
        phase.replies.append(json.dumps(reply))

    def run_window(ops: List[Tuple]) -> None:
        for op in ops:
            phase.attempted += 1
            if op[0] == "tasks":
                post(op[1])
            else:
                dispatch(op[1], op[2])
        phase.windows += 1

    try:
        requests = script(setting, seed, boot.city)
        for ops in islice(requests, setting.warmup_windows):
            run_window(ops)
        phase.warmup_rounds = len(phase.replies)
        gc.collect()
        if on_measure_start is not None:
            on_measure_start()
        measuring = True
        begin = time.perf_counter()
        prefix = setting.min_windows if windows is None else windows
        for ops in requests:
            done = len(phase.window_seconds) >= prefix
            if done and (windows is not None or time.perf_counter() - begin >= seconds):
                break
            window_start = time.perf_counter()
            run_window(ops)
            phase.window_seconds.append(time.perf_counter() - window_start)
            if len(phase.window_seconds) == prefix:
                phase.prefix_rounds = len(phase.replies)
        phase.wall_seconds = time.perf_counter() - begin
    finally:
        boot.close()
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phase


def _comparable(round_dict: Dict) -> Dict:
    return {k: round_dict.get(k) for k in ROUND_FIELDS}


@dataclass
class Replay:
    """The gate's reference rounds and IEGT quality on the same snapshots."""

    setup_round: Dict
    rounds: List[Dict]
    #: ``round index -> (P_dif, average payoff)`` of IEGT, committed rounds.
    iegt: Dict[int, Tuple[float, float]]


def replay(setting: ServeSetting, seed: int, windows: int) -> Replay:
    """Run the first ``windows`` windows of the script in-process through
    ``DispatchEngine(verify=True)``.

    No HTTP, no journal: the reference shares only the engine with the
    served path, and checks every round with the Def. 6/8 and Eq. 1/2
    checkers.  Each committed round's snapshot is also solved with IEGT
    from the engine's cached catalog (verified the same way), which is
    where the served workloads' ``iegt_*`` metrics come from.
    """
    with gc_paused():
        return _replay(setting, seed, windows)


def _replay(setting: ServeSetting, seed: int, windows: int) -> Replay:
    from repro.core.payoff import average_payoff, payoff_difference
    from repro.games.iegt import IEGTSolver
    from repro.service import DispatchEngine, WorldState
    from repro.utils.rng import RngFactory
    from repro.verify.checkers import verify_assignment

    city = _city(setting)
    state = WorldState(city.centers, travel=city.travel)
    engine = DispatchEngine(
        state,
        _solver(setting),
        epsilon=setting.epsilon,
        seed=derive_seed(seed, "engine"),
        verify=True,
    )
    iegt_solver = IEGTSolver(epsilon=setting.epsilon)
    state.add_workers(_fleet(city))
    state.add_tasks(_queue(city))
    setup_round = _json_round(engine.dispatch())
    rounds: List[Dict] = []
    iegt: Dict[int, Tuple[float, float]] = {}
    ops = (op for window in islice(script(setting, seed, city), windows) for op in window)
    for op in ops:
        if op[0] == "tasks":
            state.add_tasks(op[1])
            continue
        _, advance, commit = op
        # Advance and expire here (the engine would do the same first) so
        # the snapshot below is exactly the one the round solves.
        state.advance(advance)
        state.expire()
        snapshot = state.snapshot()
        result = engine.dispatch(commit=commit)
        rounds.append(_json_round(result))
        if not commit:
            continue
        round_rng = RngFactory(engine.round_seed(result.round_index))
        payoffs: List[float] = []
        for sub in snapshot.subproblems:
            cid = sub.center.center_id
            catalog = engine.cache.get(sub, snapshot.fingerprints[cid], setting.epsilon)
            solved = iegt_solver.solve(
                sub,
                catalog=catalog,
                seed=round_rng.seed_for(f"{iegt_solver.name}:{cid}"),
            )
            verify_assignment(
                solved.assignment, sub=sub, catalog=catalog, solver=iegt_solver.name
            )
            payoffs.extend(solved.assignment.payoffs)
        iegt[result.round_index] = (
            payoff_difference(payoffs),
            average_payoff(payoffs),
        )
    return Replay(setup_round, rounds, iegt)


def _json_round(result) -> Dict:
    """A round result exactly as ``POST /dispatch`` would serialise it."""
    return json.loads(json.dumps(result.as_dict()))


def mismatches(phase: ServedPhase, reference: Replay) -> List[str]:
    """Every round whose served outcome differs from the reference."""
    problems: List[str] = []
    expected = _comparable(reference.setup_round)
    for i, reply in enumerate(phase.setup_replies):
        if _comparable(json.loads(reply)) != expected:
            problems.append(f"setup {i}: cold round differs from the replay")
    served = phase.rounds()
    if len(served) != len(reference.rounds):
        problems.append(f"served {len(served)} rounds, replay {len(reference.rounds)}")
    for got, ref in zip(served, reference.rounds):
        if _comparable(got) != _comparable(ref):
            problems.append(f"round {ref['round']}: served outcome differs")
    return problems


def end_to_end(
    setting: ServeSetting, phase: ServedPhase, reference: Replay
) -> Dict[str, float]:
    """The end-to-end metrics of one served run but ``ok_ratio`` (README.md)."""
    measured = phase.rounds()[phase.warmup_rounds :]
    prefix_len = phase.prefix_rounds - phase.warmup_rounds
    prefix = [r for r in measured[:prefix_len] if r.get("committed")]
    assigned_all = sum(r["assigned_tasks"] for r in measured if r.get("committed"))
    posted = setting.min_windows * setting.batches * setting.tasks_per_post
    iegt = [reference.iegt[r["round"]] for r in prefix if r["round"] in reference.iegt]
    return {
        "setup_s": p50(phase.setup_seconds),
        "round_p50_ms": 1000.0 * p50(phase.round_seconds),
        "round_p95_ms": 1000.0 * p95(phase.round_seconds),
        "ingest_p50_ms": 1000.0 * p50(phase.ingest_seconds),
        "ingest_p95_ms": 1000.0 * p95(phase.ingest_seconds),
        "assigned_tasks_per_s": assigned_all / phase.wall_seconds,
        "batch_solve_s": p50(phase.window_seconds),
        "p_dif": mean([r["payoff_difference"] for r in prefix]),
        "avg_payoff": mean([r["average_payoff"] for r in prefix]),
        "iegt_p_dif": mean([p for p, _ in iegt]),
        "iegt_avg_payoff": mean([a for _, a in iegt]),
        "assigned_ratio": sum(r["assigned_tasks"] for r in prefix) / posted,
        "peak_rss_mb": phase.peak_rss_mb,
    }
