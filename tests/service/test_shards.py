"""Supervised shard pool: hashing, bit-identity, facade surface, HTTP.

The contract under test (``docs/fault_tolerance.md``): routing centers
across N worker processes is an *implementation detail* — every per-center
stream depends only on (seed, round index, solver name, center id), so the
sharded engine must produce bit-identical rounds to the single-process
engine, and the facade must present the same duck-typed surface the HTTP
layer already speaks.

Every arm sets the same ``solve_deadline_s``, so both arms walk the
degradation ladder under the same budget.  The pool forwards every engine
option to its workers, so a breaker/chaos configuration must degrade the
same centers on the same rounds in both arms.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.mpta import MPTASolver
from repro.geo.travel import TravelModel
from repro.service import (
    BreakerConfig,
    DispatchClient,
    DispatchEngine,
    FaultPlan,
    ServiceUnavailable,
)
from repro.service.api import DispatchServer
from repro.service.engine import EngineDraining
from repro.service.shards import (
    ShardedDispatchEngine,
    plan_shards,
    shard_for,
)

from tests.conftest import make_worker
from tests.service.conftest import make_world, seed_tasks, two_center_layout

ROUND_KEYS = (
    "round",
    "now",
    "assigned_tasks",
    "assignments",
    "payoffs",
    "payoff_difference",
    "average_payoff",
    "pending_tasks",
    "available_workers",
    "degraded",
)


def make_sharded(shards: int = 2, **kw) -> ShardedDispatchEngine:
    """A two-shard pool over the standard two-center test layout."""
    kw.setdefault("travel", TravelModel())
    kw.setdefault("seed", 7)
    kw.setdefault("solve_deadline_s", 30.0)
    kw.setdefault("heartbeat_timeout_s", 5.0)
    kw.setdefault("journal_fsync", False)
    return ShardedDispatchEngine(
        two_center_layout(), MPTASolver(), shards=shards, **kw
    )


def seed_sharded(engine: ShardedDispatchEngine) -> None:
    """The same fleet and queue ``make_world`` seeds, through the view."""
    accepted, rejected = engine.state.add_workers(
        [
            make_worker("wa1", 0.1, 0.0, max_dp=2, center_id="A"),
            make_worker("wa2", -0.2, 0.1, max_dp=2, center_id="A"),
            make_worker("wb1", 10.1, 0.0, max_dp=2, center_id="B"),
        ]
    )
    assert len(accepted) == 3 and not rejected
    accepted, rejected = engine.state.add_tasks(seed_tasks())
    assert len(accepted) == 6 and not rejected


class TestHashing:
    """The stable center -> shard map every process must agree on."""

    def test_shard_for_is_deterministic_and_in_range(self):
        for cid in (f"c{i}" for i in range(50)):
            k = shard_for(cid, 4)
            assert 0 <= k < 4
            assert shard_for(cid, 4) == k  # pure function of the inputs

    def test_shard_for_is_minimally_disruptive(self):
        # The rendezvous property: growing the pool only ever moves a
        # center onto the *new* shard, never between survivors.
        for cid in (f"center-{i}" for i in range(80)):
            before = shard_for(cid, 3)
            after = shard_for(cid, 4)
            assert after in (before, 3)

    def test_plan_shards_partitions_every_center(self):
        ids = [f"c{i}" for i in range(11)]
        plan = plan_shards(ids, 3)
        assert sorted(plan) == [0, 1, 2]
        seen = [cid for group in plan.values() for cid in group]
        assert sorted(seen) == sorted(ids)
        assert all(group for group in plan.values())  # no empty shard

    def test_plan_shards_rejects_more_shards_than_centers(self):
        with pytest.raises(ValueError):
            plan_shards(["only"], 2)


class TestBitIdentity:
    """Shard layout must never change results (the tentpole gate)."""

    def test_two_shards_match_single_process(self):
        # Arm 2: every attempt fails in round 0, so a one-failure breaker
        # opens and round 1 must shortcut both centers to greedy.
        chaos = dict(
            breaker=BreakerConfig(failure_threshold=1),
            faults=FaultPlan(error_rate=1.0, max_round=1),
            solve_retries=0,
            backoff_base_s=0.0,
        )
        for options in ({}, chaos):
            single = DispatchEngine(
                make_world(), MPTASolver(), seed=7, solve_deadline_s=30.0,
                **options,
            )
            want = [
                single.dispatch(advance_hours=0.25).as_dict()
                for _ in range(3)
            ]
            sharded = make_sharded(**options)
            try:
                seed_sharded(sharded)
                got = [
                    sharded.dispatch(advance_hours=0.25).as_dict()
                    for _ in range(3)
                ]
            finally:
                sharded.begin_drain()
                sharded.drain()
            for round_index, (a, b) in enumerate(zip(want, got)):
                for key in ROUND_KEYS:
                    assert a[key] == b[key], (options, round_index, key)
            rungs = set(got[1]["degraded"].values())
            assert rungs == ({"greedy"} if options else {"primary"})

    @pytest.mark.parametrize(
        "option",
        [
            {"equity_mode": True},
            {"equity_strength": 2.0},
            {"breaker_clock": time.monotonic},
            {"trace": True},
        ],
    )
    def test_refuses_options_that_cannot_shard(self, option):
        (name,) = option
        with pytest.raises(ValueError, match=name):
            ShardedDispatchEngine(
                two_center_layout(), MPTASolver(), shards=2, **option
            )

    def test_refuses_unknown_engine_options(self):
        with pytest.raises(TypeError):
            ShardedDispatchEngine(
                two_center_layout(), MPTASolver(), shards=2, n_job=2
            )


class TestFacadeSurface:
    """The view the HTTP layer and CLI speak, fanned out over RPC."""

    def test_view_merges_partition_counts(self):
        engine = make_sharded()
        try:
            seed_sharded(engine)
            view = engine.state
            assert view.pending_task_count == 6
            assert view.worker_count == 3
            assert view.available_worker_count() == 3
            stats = view.worker_stats()
            assert list(stats) == ["wa1", "wa2", "wb1"]
            assert stats["wa1"]["center_id"] == "A"
            assert stats["wb1"]["center_id"] == "B"
            assert view.fingerprint() == view.fingerprint()
            assert view.journal is None  # segments live in the workers
            assert view.equity is None  # documented sharded scope cut
        finally:
            engine.begin_drain()
            engine.drain()

    def test_worker_without_center_attaches_to_nearest(self):
        engine = make_sharded()
        try:
            accepted, rejected = engine.state.add_workers(
                [
                    {"worker_id": "roam", "x": 9.8, "y": 0.2},
                    {"worker_id": "lost", "x": 0.0, "y": 0.0, "center_id": "Z"},
                ]
            )
            assert accepted == ["roam"]
            assert [r.item_id for r in rejected] == ["lost"]
            stats = engine.state.worker_stats()
            assert stats["roam"]["center_id"] == "B"  # nearest on the map
        finally:
            engine.begin_drain()
            engine.drain()

    def test_poisoned_workers_are_rejected_at_the_facade(self):
        engine = make_sharded()
        try:
            seed_sharded(engine)
            accepted, rejected = engine.state.add_workers(
                [
                    {"worker_id": "fast", "x": 0.2, "y": 0.0,
                     "speed_kmh": float("inf")},
                    {"worker_id": "frac", "x": 0.2, "y": 0.0,
                     "max_delivery_points": 2.7},
                ]
            )
            assert accepted == []
            assert [r.item_id for r in rejected] == ["fast", "frac"]
            record = engine.dispatch(advance_hours=0.25).as_dict()
            assert set(record["degraded"].values()) == {"primary"}
            assert record["assigned_tasks"] > 0
        finally:
            engine.begin_drain()
            engine.drain()

    def test_unknown_delivery_point_is_rejected_locally(self):
        engine = make_sharded()
        try:
            accepted, rejected = engine.state.add_tasks(
                [{"task_id": "tx", "dp_id": "nope", "expiry": 2.0}]
            )
            assert accepted == []
            assert [r.item_id for r in rejected] == ["tx"]
        finally:
            engine.begin_drain()
            engine.drain()

    def test_draining_pool_refuses_dispatch(self):
        engine = make_sharded()
        try:
            seed_sharded(engine)
            engine.begin_drain()
            assert engine.draining
            with pytest.raises(EngineDraining):
                engine.dispatch()
        finally:
            engine.drain()

    def test_shard_health_reports_live_partitions(self):
        engine = make_sharded()
        try:
            health = engine.shard_health()
            assert sorted(health) == ["0", "1"]
            assert all(h["status"] == "live" for h in health.values())
            assert sorted(
                cid for h in health.values() for cid in h["centers"]
            ) == ["A", "B"]
        finally:
            engine.begin_drain()
            engine.drain()


class TestShardedHTTP:
    """The HTTP layer over a sharded engine: healthz, SLOs, dispatch."""

    def test_serves_rounds_and_reports_shards(self):
        engine = make_sharded()
        try:
            with DispatchServer(engine, port=0) as server:
                client = DispatchClient(server.url, timeout=10.0, retries=1)
                client.wait_healthy(timeout=15.0)
                seed_sharded(engine)
                record = client.dispatch(advance_hours=0.25)
                assert record["round"] == 0
                health = client.health()
                assert health["status"] == "ok"
                assert sorted(health["shards"]) == ["0", "1"]
                assert health["shards_down"] == []
                slo = client.slo()
                names = [o["name"] for o in slo["objectives"]]
                assert "shard_liveness" in names
        finally:
            engine.begin_drain()
            engine.drain()

    def test_dead_shard_turns_healthz_503(self):
        engine = make_sharded()
        try:
            with DispatchServer(engine, port=0) as server:
                client = DispatchClient(server.url, timeout=10.0, retries=0)
                client.wait_healthy(timeout=15.0)
                engine.supervisor.kill_shard(0)
                health = client.health()  # unwraps the 503 payload
                assert health["status"] == "degraded"
                assert "0" in health["shards_down"]
                # The monitor revives the shard; liveness must recover.
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    health = client.health()
                    if not health["shards_down"]:
                        break
                    time.sleep(0.1)
                assert health["shards_down"] == []
                assert health["status"] == "ok"
        finally:
            engine.begin_drain()
            engine.drain()

    def test_draining_healthz_is_503(self):
        engine = make_sharded()
        try:
            with DispatchServer(engine, port=0) as server:
                client = DispatchClient(server.url, timeout=10.0, retries=0)
                client.wait_healthy(timeout=15.0)
                engine.begin_drain()
                assert client.health()["status"] == "draining"
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.dispatch()
                assert excinfo.value.status == 503
        finally:
            engine.drain()
