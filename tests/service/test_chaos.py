"""Chaos tests: the dispatch engine under deterministic fault injection.

The ISSUE's robustness acceptance criteria live here:

* with seeded ``FaultPlan`` chaos, every committed round still yields
  pairwise-disjoint, deadline-feasible (Definition 6 valid) assignments —
  the engine degrades, it never corrupts;
* with **no** faults every round is bit-identical to the offline
  ``solve_instance`` reference on the same snapshot, at any ``n_jobs``
  and with or without a solve deadline (the differential guarantee);
* a solver exception degrades its center, never the whole round;
* round wall-clock stays bounded by
  ``solve_deadline_s x ladder length x attempts x centers + epsilon``.
"""

import threading
import time

import pytest

from repro.games.fgt import FGTSolver
from repro.obs.metrics import METRICS
from repro.parallel import solve_instance
from repro.service.breaker import BreakerConfig, OPEN
from repro.service.engine import (
    MAX_ABANDONED_SOLVES,
    DispatchEngine,
    EngineDraining,
)
from repro.service.faults import FaultPlan

from tests.service.conftest import make_world, task

EPSILON = 0.8


def _engine(seed=11, **kwargs):
    return DispatchEngine(
        make_world(), FGTSolver(epsilon=EPSILON), seed=seed, epsilon=EPSILON,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _join_abandoned_solves():
    # Timed-out solves are detached, not killed: a delay-injected solve
    # wakes seconds later and keeps emitting through the process-wide
    # metrics/trace sinks.  Left running, it bleeds records into whatever
    # test holds those sinks next (e.g. the CLI trace tests).  Join the
    # stragglers before moving on.
    yield
    deadline = time.monotonic() + 15.0
    for thread in threading.enumerate():
        if thread.name.startswith("solve-"):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


def _assert_round_valid(result):
    """Definition-6 spot checks on a committed RoundResult.

    The engine already runs the full :func:`repro.verify` battery on every
    accepted rung; this re-asserts the cross-center structure from the
    outside: no worker appears in two centers and no delivery point is
    served twice within one round.
    """
    seen_workers = set()
    seen_routes = set()
    for center_id, mapping in result.assignments.items():
        for worker_id, dp_ids in mapping.items():
            assert worker_id not in seen_workers, (
                f"worker {worker_id} assigned in two centers"
            )
            seen_workers.add(worker_id)
            assert len(set(dp_ids)) == len(dp_ids)
            for dp_id in dp_ids:
                assert (center_id, dp_id) not in seen_routes
                seen_routes.add((center_id, dp_id))


class TestDifferentialNoFault:
    """Acceptance: without faults every round equals the offline solve."""

    @pytest.mark.parametrize("seed", [0, 11, 23])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("deadline", [None, 60.0])
    def test_rounds_match_offline_solve_instance(self, seed, n_jobs, deadline):
        engine = _engine(seed=seed, n_jobs=n_jobs, solve_deadline_s=deadline)
        state = engine.state
        solved = 0
        for i in range(4):
            if i:
                state.add_tasks(
                    [
                        task(f"r{i}a", "a2", state.now + 1.3),
                        task(f"r{i}b", "b1", state.now + 1.2),
                    ]
                )
            # Advance here (the engine would do the same first) so the
            # snapshot below is exactly the one the round solves.
            state.advance(0.5)
            state.expire()
            snapshot = state.snapshot()
            result = engine.dispatch()
            assert result.round_index == i
            if not snapshot.subproblems:
                continue
            offline = solve_instance(
                snapshot.instance(),
                FGTSolver(epsilon=EPSILON),
                epsilon=EPSILON,
                seed=engine.round_seed(i),
                seed_stream="FGT",
            )
            assert result.assignments == {
                cid: dict(a.as_mapping())
                for cid, a in offline.assignments.items()
            }
            assert sorted(result.payoffs.values()) == sorted(offline.payoffs)
            assert result.payoff_difference == offline.payoff_difference
            assert result.average_payoff == offline.average_payoff
            assert set(result.degraded.values()) == {"primary"}
            assert result.verified_centers == len(result.center_ids)
            solved += 1
        assert solved >= 2

    def test_ft_thread_fanout_matches_serial(self):
        # n_jobs fans centers out across a thread pool; seeds are derived
        # per center up front, so the result is bit-identical to the
        # serial walk.
        serial = _engine(seed=11, solve_deadline_s=60.0)
        threaded = _engine(seed=11, solve_deadline_s=60.0, n_jobs=4)
        for _ in range(2):
            a = serial.dispatch(advance_hours=0.05)
            b = threaded.dispatch(advance_hours=0.05)
            assert a.assignments == b.assignments
            assert a.payoffs == b.payoffs
            assert a.degraded == b.degraded
            assert a.verified_centers == b.verified_centers
        assert serial.state.fingerprint() == threaded.state.fingerprint()

    def test_inactive_fault_plan_is_still_bit_identical(self):
        plain = _engine(seed=11)
        planned = _engine(seed=11, faults=FaultPlan(seed=1))  # all rates zero
        a = plain.dispatch()
        b = planned.dispatch()
        assert a.assignments == b.assignments
        assert a.payoffs == b.payoffs


class TestDegradationLadder:
    """Injected faults walk the ladder; every rung's output is verified."""

    def test_raising_primary_commits_a_verified_greedy_round(self):
        class _BrokenSolver(FGTSolver):
            """FGT whose every solve raises, like a solver bug would."""

            def solve(self, sub, **kwargs):
                raise RuntimeError("solver bug")

        engine = DispatchEngine(
            make_world(), _BrokenSolver(epsilon=EPSILON), seed=11,
            epsilon=EPSILON,
        )
        failures = METRICS.counter("dispatch.solve_failures").value
        result = engine.dispatch()
        assert result.committed
        assert set(result.degraded.values()) == {"greedy"}
        assert set(result.degraded) == set(result.center_ids)
        assert result.verified_centers == len(result.center_ids)
        assert result.assigned_tasks > 0
        _assert_round_valid(result)
        # The primary rung ran (and failed) once plus its default retry.
        assert (
            METRICS.counter("dispatch.solve_failures").value - failures
            == 2 * len(result.center_ids)
        )

    def test_injected_errors_degrade_but_commit_validly(self):
        engine = _engine(
            seed=11,
            solve_retries=0,
            backoff_base_s=0.0,
            faults=FaultPlan(seed=3, error_rate=1.0, max_round=1),
        )
        chaotic = engine.dispatch(advance_hours=0.05)
        # Every rung raises in round 0, so every center lands on skip.
        assert set(chaotic.degraded.values()) == {"skip"}
        assert chaotic.assigned_tasks == 0
        # The skip assignment is verified like every other rung's output,
        # so the verified count stays honest even on an all-skip round.
        assert chaotic.verified_centers == len(chaotic.center_ids)
        _assert_round_valid(chaotic)
        # Round 1 is past max_round: faults stop, the engine recovers and
        # the carried-over tasks get assigned by the primary solver.
        clean = engine.dispatch()
        assert set(clean.degraded.values()) == {"primary"}
        assert clean.assigned_tasks > 0
        _assert_round_valid(clean)

    def test_retry_can_ride_out_transient_errors(self):
        # error_rate < 1 with retries: whichever attempt draws clean runs
        # the primary solver, so at least one center should stay primary.
        engine = _engine(
            seed=11,
            solve_retries=3,
            backoff_base_s=0.0,
            faults=FaultPlan(seed=5, error_rate=0.5, max_round=1),
        )
        result = engine.dispatch()
        _assert_round_valid(result)
        assert "primary" in set(result.degraded.values())
        assert METRICS.counter("dispatch.injected_errors").value > 0

    def test_degradation_is_reproducible(self):
        plan = FaultPlan(seed=9, error_rate=0.7)
        kwargs = dict(solve_retries=0, backoff_base_s=0.0, faults=plan)
        a = _engine(seed=11, **kwargs).dispatch()
        b = _engine(seed=11, **kwargs).dispatch()
        assert a.degraded == b.degraded
        assert a.assignments == b.assignments
        assert a.payoffs == b.payoffs

    def test_degraded_rungs_are_reported(self):
        engine = _engine(
            seed=11,
            solve_retries=0,
            backoff_base_s=0.0,
            faults=FaultPlan(seed=3, error_rate=1.0, max_round=1),
        )
        result = engine.dispatch()
        assert result.as_dict()["degraded"] == result.degraded
        assert set(result.degraded) == set(result.center_ids)


class TestCacheCorruption:
    """Tampered cache hits are detected, evicted, and rebuilt cleanly."""

    def test_corrupted_hit_is_evicted_and_round_stays_correct(self):
        reference = _engine(seed=11)
        engine = _engine(
            seed=11,
            solve_retries=1,
            backoff_base_s=0.0,
            faults=FaultPlan(seed=3, cache_corruption_rate=1.0, max_round=9),
        )
        before = METRICS.counter("dispatch.injected_corruptions").value
        failures_before = METRICS.counter("dispatch.solve_failures").value
        # Round 0 is a cold build (a miss), so no corruption can fire;
        # round 1 hits the warm cache and gets tampered.
        for _ in range(2):
            expected = reference.dispatch(advance_hours=0.0, commit=False)
            result = engine.dispatch(advance_hours=0.0, commit=False)
            assert result.assignments == expected.assignments
            assert result.payoffs == expected.payoffs
            _assert_round_valid(result)
        assert METRICS.counter("dispatch.injected_corruptions").value > before
        assert METRICS.counter("dispatch.solve_failures").value > failures_before


class TestDeadlines:
    """The solve budget actually bounds a round's wall clock."""

    def test_delayed_solves_time_out_and_round_stays_bounded(self):
        deadline = 0.15
        retries = 0
        engine = _engine(
            seed=11,
            solve_deadline_s=deadline,
            solve_retries=retries,
            backoff_base_s=0.0,
            faults=FaultPlan(seed=3, delay_rate=1.0, delay_s=5.0, max_round=1),
        )
        start = time.perf_counter()
        result = engine.dispatch()
        elapsed = time.perf_counter() - start
        # Every attempt of every rung sleeps 5 s, so each must be cut off
        # at the deadline and the center must fall through to skip.
        assert set(result.degraded.values()) == {"skip"}
        centers = len(result.center_ids)
        ladder = 3  # primary, greedy, skip
        bound = deadline * ladder * (1 + retries) * centers + 1.0
        assert elapsed <= bound, f"round took {elapsed:.2f}s > bound {bound:.2f}s"
        assert METRICS.counter("dispatch.solve_timeouts").value > 0
        _assert_round_valid(result)

    def test_abandoned_hung_solves_are_capped(self):
        # A timed-out solve cannot be killed, only detached.  A solver
        # that hangs on every attempt may leak at most
        # MAX_ABANDONED_SOLVES threads per center; attempts past the cap
        # fail fast (no new thread) and the ladder degrades to skip.
        deadline = 0.05
        engine = _engine(
            seed=11,
            solve_deadline_s=deadline,
            solve_retries=6,
            backoff_base_s=0.0,
            faults=FaultPlan(seed=3, delay_rate=1.0, delay_s=1.0),
        )
        rejections = METRICS.counter("dispatch.hung_solve_rejections").value
        threads_before = threading.active_count()
        start = time.perf_counter()
        result = engine.dispatch()
        elapsed = time.perf_counter() - start
        assert set(result.degraded.values()) == {"skip"}
        assert (
            METRICS.counter("dispatch.hung_solve_rejections").value > rejections
        )
        # At most the cap's worth of detached solver threads per center —
        # not one per attempt (7 primary attempts alone would exceed it).
        centers = len(result.center_ids)
        assert (
            threading.active_count() - threads_before
            <= MAX_ABANDONED_SOLVES * centers
        )
        # Rejected attempts cost no deadline wait, so the round stays far
        # under the one-timeout-per-attempt worst case.
        assert elapsed <= MAX_ABANDONED_SOLVES * deadline * centers + 1.0
        _assert_round_valid(result)

    def test_generous_deadline_changes_nothing(self):
        a = _engine(seed=11).dispatch()
        b = _engine(seed=11, solve_deadline_s=120.0).dispatch()
        assert a.assignments == b.assignments


class TestBreakerIntegration:
    """Repeated center failures trip the breaker; cooldown lets it heal."""

    def test_breaker_opens_then_probes_closed(self):
        clock_now = [0.0]
        engine = _engine(
            seed=11,
            solve_retries=0,
            backoff_base_s=0.0,
            breaker=BreakerConfig(failure_threshold=1, cooldown_s=100.0),
            breaker_clock=lambda: clock_now[0],
            faults=FaultPlan(seed=3, error_rate=1.0, max_round=1),
        )
        shortcuts = METRICS.counter("dispatch.breaker_shortcuts").value
        engine.dispatch(advance_hours=0.0, commit=False)  # trips every breaker
        assert set(engine.breakers.states().values()) == {OPEN}
        # While open, the next round skips straight to greedy: no primary
        # attempt, no new failures, and (faults having ended) it succeeds.
        result = engine.dispatch(advance_hours=0.0, commit=False)
        assert set(result.degraded.values()) == {"greedy"}
        assert (
            METRICS.counter("dispatch.breaker_shortcuts").value
            > shortcuts
        )
        # After the cooldown a half-open probe runs the primary solver and
        # closes the breaker again.
        clock_now[0] = 101.0
        healed = engine.dispatch(advance_hours=0.0, commit=False)
        assert set(healed.degraded.values()) == {"primary"}
        assert set(engine.breakers.states().values()) == {"closed"}


class TestChaosSoak:
    """Multi-round mixed chaos: commits stay valid, state stays sane."""

    def test_mixed_fault_soak(self):
        engine = _engine(
            seed=11,
            solve_deadline_s=2.0,
            solve_retries=1,
            backoff_base_s=0.0,
            faults=FaultPlan(
                seed=17,
                error_rate=0.4,
                cache_corruption_rate=0.3,
                max_round=4,
            ),
        )
        for round_index in range(6):
            result = engine.dispatch(advance_hours=0.05)
            _assert_round_valid(result)
            assert result.round_index == round_index
            assert set(result.degraded) == set(result.center_ids)
        # The world is still self-consistent after the storm.
        assert engine.state.pending_task_count >= 0
        assert engine.state.version > 0


class TestDrainRegression:
    """Satellite (a): SIGTERM mid-round commits before the drain."""

    def test_dispatch_after_begin_drain_raises(self):
        engine = _engine(seed=11)
        engine.begin_drain()
        assert engine.draining
        with pytest.raises(EngineDraining):
            engine.dispatch()
        # Nothing was committed by the refused round.
        assert engine.rounds_dispatched == 0
        assert engine.last_committed is None

    def test_in_flight_round_commits_through_a_drain(self):
        import threading

        engine = _engine(seed=11)
        started = threading.Event()
        finished = []

        class _SignallingSolver(FGTSolver):
            """FGT that lets the test drain mid-solve."""

            def solve(self, sub, **kwargs):
                started.set()
                time.sleep(0.05)  # hold the round open across begin_drain
                return super().solve(sub, **kwargs)

        engine._solver = _SignallingSolver(epsilon=EPSILON)
        worker = threading.Thread(
            target=lambda: finished.append(engine.dispatch())
        )
        worker.start()
        assert started.wait(timeout=10.0)
        engine.begin_drain()  # the SIGTERM moment: round is mid-solve
        engine.drain()  # must block until the commit has landed
        worker.join(timeout=10.0)
        assert len(finished) == 1
        assert finished[0].committed
        assert engine.rounds_dispatched == 1
        assert engine.last_committed is finished[0]
