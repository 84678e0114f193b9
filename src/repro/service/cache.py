"""Per-center strategy-catalog cache for the dispatch service.

Building the C-VDPS catalog (Algorithm 1 + Section IV validation) dominates
a round's cost, yet between two service rounds most centers are unchanged:
no new tasks landed, nobody's deadline moved, the same couriers are idle.
This cache keys each center's catalog by the
:func:`~repro.service.state._fingerprint` of its snapshotted sub-problem
(plus the pruning threshold), so a round only rebuilds the centers whose
content actually changed; any churn — task arrival, expiry, worker
movement, clock advance that shifts a relative deadline — changes the
fingerprint and invalidates the entry.

A changed fingerprint no longer means a from-scratch rebuild, though: in
delta mode (the default) each center keeps a
:class:`~repro.vdps.delta.DeltaCatalog` alive between rounds and a miss is
served by ``refresh(sub)`` — state surgery over whatever actually churned,
with the rebuild fallback handled inside the delta layer.

Either way a hit returns the *identical* catalog a cold build would produce
(the fingerprint covers every catalog input, and the delta layer's refresh
is proven bit-identical to ``build_catalog`` by the differential suites),
which is what makes warm-cache service rounds bit-identical to cold-cache
runs.  Hits and misses are recorded in :data:`repro.obs.METRICS` under
``service.catalog_cache.*``; the delta layer's own activity lands on
:data:`~repro.obs.metrics.CATALOG_DELTA_METRICS`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.core.instance import SubProblem
from repro.obs.metrics import METRICS
from repro.vdps.catalog import VDPSCatalog, build_catalog
from repro.vdps.delta import DeltaCatalog


class SnapshotCatalogCache:
    """One catalog per center, valid while the center's fingerprint holds.

    Unlike :class:`repro.experiments.runner.CatalogCache` (which keys by
    ``(center, epsilon)`` for a *static* instance shared across algorithm
    arms), this cache serves a *mutating* world: the key includes the
    snapshot content hash, and a changed hash evicts the stale entry.

    Parameters
    ----------
    delta:
        Serve misses by incrementally refreshing a per-center
        :class:`DeltaCatalog` instead of rebuilding from scratch.  Output
        is identical either way; ``False`` restores the PR-5 behaviour
        (used by the bit-identity tests as the control arm).
    rebuild_fraction:
        Forwarded to every :class:`DeltaCatalog` this cache creates.
    """

    def __init__(
        self,
        delta: bool = True,
        rebuild_fraction: float = 0.5,
    ) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[str, Optional[float], VDPSCatalog]] = {}
        self._delta = bool(delta)
        self._rebuild_fraction = float(rebuild_fraction)
        self._deltas: Dict[str, DeltaCatalog] = {}
        # Serialises builds/refreshes per center: an abandoned (timed-out)
        # solve may still be fetching a catalog when the retry starts, and
        # a DeltaCatalog mutates in place during refresh.
        self._center_locks: Dict[str, threading.Lock] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def delta_enabled(self) -> bool:
        return self._delta

    def get(
        self, sub: SubProblem, fingerprint: str, epsilon: Optional[float]
    ) -> VDPSCatalog:
        """The catalog for ``sub``, rebuilt only when its content changed."""
        return self.get_with_status(sub, fingerprint, epsilon)[0]

    def get_with_status(
        self, sub: SubProblem, fingerprint: str, epsilon: Optional[float]
    ) -> Tuple[VDPSCatalog, bool]:
        """Like :meth:`get`, also reporting whether it was a hit.

        The fault-tolerant engine needs the distinction: injected
        cache-corruption only makes sense on a *hit* (a cold build is by
        definition fresh), and a corrupt entry must be invalidated so the
        retry's rebuild is clean.
        """
        center_id = sub.center.center_id
        with self._lock:
            entry = self._entries.get(center_id)
            build_lock = self._center_locks.setdefault(center_id, threading.Lock())
        if entry is not None and entry[0] == fingerprint and entry[1] == epsilon:
            METRICS.counter("service.catalog_cache.hits").add(1)
            return entry[2], True
        METRICS.counter("service.catalog_cache.misses").add(1)
        with build_lock:
            with METRICS.timer("service.catalog_build_seconds"):
                catalog = self._obtain(sub, center_id, epsilon)
            with self._lock:
                self._entries[center_id] = (fingerprint, epsilon, catalog)
        return catalog, False

    def _obtain(
        self, sub: SubProblem, center_id: str, epsilon: Optional[float]
    ) -> VDPSCatalog:
        """Produce the center's catalog (caller holds its build lock)."""
        if not self._delta:
            return build_catalog(sub, epsilon=epsilon)
        with self._lock:
            delta = self._deltas.get(center_id)
        if delta is not None and delta.epsilon == epsilon:
            return delta.refresh(sub)
        delta = DeltaCatalog(
            sub, epsilon=epsilon, rebuild_fraction=self._rebuild_fraction
        )
        with self._lock:
            self._deltas[center_id] = delta
        return delta.catalog

    def invalidate(self, center_id: str) -> bool:
        """Drop one center's entry *and* its delta state; True if either existed.

        The fault-tolerant engine calls this when a solve fails: the
        failure may stem from a rotten cached catalog, and in delta mode
        the delta's internal tables are part of that state — the next miss
        pays one full rebuild and is guaranteed clean.
        """
        with self._lock:
            had_entry = self._entries.pop(center_id, None) is not None
            had_delta = self._deltas.pop(center_id, None) is not None
        return had_entry or had_delta

    def clear(self) -> None:
        """Drop every entry (e.g. on an epsilon reconfiguration)."""
        with self._lock:
            self._entries.clear()
            self._deltas.clear()
