"""Online dispatch service: a long-running HTTP assignment engine.

The production face of the reproduction (the ROADMAP's north star): the
paper's one-shot FTA solvers run continuously over a mutating world of
centers, couriers, and tasks, behind a stdlib-only JSON-over-HTTP API.

* :mod:`repro.service.state` — thread-safe world state with churn ops.
* :mod:`repro.service.cache` — snapshot-hash-keyed strategy-catalog cache.
* :mod:`repro.service.engine` — windowed micro-batch dispatch rounds,
  solved per center down a verified degradation ladder, with
  :mod:`repro.obs` telemetry.
* :mod:`repro.service.api` — the HTTP server (``python -m repro serve``).
* :mod:`repro.service.client` — thin client + deterministic load generator.
* :mod:`repro.service.journal` — write-ahead journal (crash durability).
* :mod:`repro.service.breaker` — per-center circuit breakers.
* :mod:`repro.service.faults` — deterministic chaos-injection plans.
* :mod:`repro.service.shards` — supervised multi-process shard pool
  (``python -m repro serve --shards N``).

See ``docs/service.md`` for the API reference and consistency semantics,
and ``docs/fault_tolerance.md`` for the degradation ladder, breakers,
journal format, and recovery runbook.
"""

from repro.service.api import DispatchServer
from repro.service.breaker import BreakerBoard, BreakerConfig, CircuitBreaker
from repro.service.cache import SnapshotCatalogCache
from repro.service.client import (
    DispatchClient,
    LoadGenerator,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.engine import (
    DispatchEngine,
    EngineDraining,
    RoundResult,
    ServiceOverloaded,
    SolveTimeout,
)
from repro.service.faults import FaultPlan, InjectedFault
from repro.service.journal import JournalCorruption, JournalRecord, WorldJournal
from repro.service.shards import (
    ShardBusy,
    ShardCrashed,
    ShardFailed,
    ShardSpec,
    ShardSupervisor,
    ShardedDispatchEngine,
)
from repro.service.state import Rejection, WorldSnapshot, WorldState

__all__ = [
    "BreakerBoard",
    "BreakerConfig",
    "CircuitBreaker",
    "DispatchClient",
    "DispatchEngine",
    "DispatchServer",
    "EngineDraining",
    "FaultPlan",
    "InjectedFault",
    "JournalCorruption",
    "JournalRecord",
    "LoadGenerator",
    "Rejection",
    "RoundResult",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "ShardBusy",
    "ShardCrashed",
    "ShardFailed",
    "ShardSpec",
    "ShardSupervisor",
    "ShardedDispatchEngine",
    "SnapshotCatalogCache",
    "SolveTimeout",
    "WorldJournal",
    "WorldSnapshot",
    "WorldState",
]
