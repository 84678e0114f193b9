"""Outside-in layer timing for the traced run.

The program's own spans do not yet cover every layer, so the traced run
wraps the public entry point of each layer from here: a span (name,
start, end, parent on the same thread) around every call, plus the
movement of the program's own counters, read through the public
``METRICS.snapshot()`` / ``METRICS.delta()`` around the same call.  Spans
stay in memory; :func:`per_layer_metrics` turns them into the per-layer
table once the run has ended.

A layer's *self* time is its span minus the spans it directly caused, so
``DispatchEngine.dispatch`` self time is what no named layer accounts for
(the unattributed remainder).
"""

from __future__ import annotations

import functools
import gc
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

#: Counters read around every wrapped call (the program's names).
COUNTERS = (
    "service.catalog_cache.hits",
    "service.catalog_cache.misses",
    "catalog.delta_applies",
    "catalog.delta_noops",
    "catalog.delta_rebuilds",
    "catalog.delta_fallbacks",
    "catalog.strategies_built",
    "cvdps.states_expanded",
    "engine.candidates_screened",
    "fgt.rounds",
    "service.journal.fsyncs",
)


@dataclass
class Span:
    """One wrapped call: when it ran, who caused it, what it counted."""

    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    #: The call plus the wrapper's own counter reads around it.
    outer_seconds: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    children: List[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Installs span wrappers on the layers' entry points; removable."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Seconds the interpreter spent in garbage collection while installed.
        self.gc_seconds = 0.0
        self._gc_start = 0.0
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        from repro.obs.metrics import METRICS

        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            outer_start = time.perf_counter()
            span = Span(name, parent)
            index = len(spans)
            spans.append(span)
            if parent is not None:
                spans[parent].children.append(index)
            stack.append(index)
            before = METRICS.snapshot()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                moved = METRICS.delta(before)
                span.counts = {k: moved[k] for k in COUNTERS if k in moved}
                stack.pop()
                span.outer_seconds = time.perf_counter() - outer_start

        return wrapper

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start

    def _patch_attr(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, original: Callable, name: str) -> None:
        """Replace ``original`` wherever a ``repro`` module imported it."""
        wrapper = self._wrap(name, original)
        attr = original.__name__
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._undo.append(
                    lambda m=module: setattr(m, attr, original)
                )

    def install(self) -> "LayerTracer":
        """Wrap every layer entry point (idempotent per instance)."""
        if self._undo:
            return self
        # Imported first so that their own build_catalog bindings get wrapped.
        import repro.experiments.runner  # noqa: F401
        import repro.parallel
        import repro.vdps.catalog
        from repro.games.fgt import FGTSolver
        from repro.games.iegt import IEGTSolver
        from repro.service.cache import SnapshotCatalogCache
        from repro.service.engine import DispatchEngine
        from repro.service.journal import WorldJournal
        from repro.service.state import WorldState
        from repro.vdps.delta import DeltaCatalog

        self._patch_attr(DispatchEngine, "dispatch", "engine.dispatch")
        self._patch_attr(WorldState, "advance", "state.advance")
        self._patch_attr(WorldState, "expire", "state.expire")
        self._patch_attr(WorldState, "snapshot", "state.snapshot")
        self._patch_attr(WorldState, "commit", "state.commit")
        self._patch_attr(WorldState, "add_tasks", "state.ingest")
        self._patch_attr(WorldJournal, "append", "journal.append")
        self._patch_attr(SnapshotCatalogCache, "get_with_status", "cache.get")
        self._patch_attr(DeltaCatalog, "__init__", "delta.init")
        self._patch_attr(DeltaCatalog, "refresh", "delta.refresh")
        self._patch_attr(FGTSolver, "solve", "fgt.solve")
        self._patch_attr(IEGTSolver, "solve", "iegt.solve")
        self._patch_function(repro.vdps.catalog.build_catalog, "catalog.build")
        self._patch_function(repro.parallel.solve_instance, "parallel.solve_instance")
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def _matching(self, name: str, under: Optional[str]) -> List[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s.name == name and (under is None or self._has_ancestor(i, under))
        ]

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Inclusive seconds of every ``name`` span (optionally below ``under``)."""
        return sum(self.spans[i].seconds for i in self._matching(name, under))

    def self_seconds(self, index: int) -> float:
        """A span's duration minus the spans it directly caused.

        Children are subtracted with their wrappers' own cost, so tracing
        is not blamed on the parent.
        """
        span = self.spans[index]
        return span.seconds - sum(self.spans[c].outer_seconds for c in span.children)

    def self_total(self, name: str, under: Optional[str] = None) -> float:
        """Summed self seconds of every ``name`` span (optionally below ``under``)."""
        return sum(self.self_seconds(i) for i in self._matching(name, under))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_counts(self) -> Dict[str, Dict[str, float]]:
        """``layer -> counter -> movement`` attributed to the layer itself."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            own = dict(span.counts)
            for child in span.children:
                for key, value in self.spans[child].counts.items():
                    own[key] = own.get(key, 0) - value
            row = table.setdefault(span.name, {})
            for key, value in own.items():
                if value:
                    row[key] = row.get(key, 0) + value
        return {name: row for name, row in table.items() if row}

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


_SNAPSHOT_LAYER = ("state.advance", "state.expire", "state.snapshot")


def per_layer_metrics(
    tracer: LayerTracer,
    counts: Mapping[str, float],
    rounds: int,
    instances: int,
    client_round_seconds: Sequence[float],
    response_bytes: Sequence[int],
    overhead_pct: float,
) -> Dict[str, float]:
    """The per-layer table of one traced run.

    Times are milliseconds per round on the served workloads
    (``rounds > 0``) and per instance on the offline batch; ingest-side
    times are per ``POST /tasks``.  ``counts`` is the run's counter
    movement over the traced phase.
    """
    units = rounds if rounds else max(1, instances)
    ms = 1000.0 / units

    def per_unit(name: str) -> float:
        return tracer.total(name) * ms

    dispatch = tracer.total("engine.dispatch")
    snapshot = sum(tracer.total(n, under="engine.dispatch") for n in _SNAPSHOT_LAYER)
    cache = tracer.total("cache.get", under="engine.dispatch")
    solve = tracer.total("fgt.solve", under="engine.dispatch") + tracer.total(
        "iegt.solve", under="engine.dispatch"
    )
    fanout = tracer.self_total("parallel.solve_instance", under="engine.dispatch")
    commit = tracer.total("state.commit", under="engine.dispatch")
    unattributed = tracer.self_total("engine.dispatch")

    def share(seconds: float) -> float:
        return 100.0 * seconds / dispatch if dispatch else 0.0

    ingests = tracer.count("state.ingest")
    engine_seconds = tracer.durations("engine.dispatch")
    overheads = [
        client - engine
        for client, engine in zip(client_round_seconds, engine_seconds)
    ]
    refreshes = tracer.count("delta.refresh")
    # Full C-VDPS builds, whichever layer ran them: build_catalog, a new
    # DeltaCatalog, or a refresh that fell back to a rebuild.
    full_builds = tracer.total("catalog.build") + tracer.total("delta.init") + sum(
        s.seconds
        for s in tracer.spans
        if s.name == "delta.refresh" and s.counts.get("catalog.delta_rebuilds")
    )
    hits = counts.get("service.catalog_cache.hits", 0)
    misses = counts.get("service.catalog_cache.misses", 0)
    metrics = {
        "vdps.catalog.build_ms": full_builds * ms,
        "vdps.delta.refresh_ms": per_unit("delta.refresh"),
        "vdps.delta.apply_ratio": (
            counts.get("catalog.delta_applies", 0) / refreshes if refreshes else 0.0
        ),
        "service.cache.get_ms": per_unit("cache.get"),
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "games.fgt.solve_ms": per_unit("fgt.solve"),
        "games.iegt.solve_ms": per_unit("iegt.solve"),
        "parallel.fanout_ms": tracer.self_total("parallel.solve_instance") * ms,
        "service.state.snapshot_ms": sum(tracer.total(n) for n in _SNAPSHOT_LAYER) * ms,
        "service.state.commit_ms": per_unit("state.commit"),
        "service.state.ingest_ms": (
            1000.0 * tracer.total("state.ingest") / ingests if ingests else 0.0
        ),
        "service.journal.append_ms": (
            1000.0 * tracer.total("journal.append", under="state.ingest") / ingests
            if ingests
            else 0.0
        ),
        "service.api.dispatch_overhead_ms": (
            1000.0 * sum(overheads) / len(overheads) if overheads else 0.0
        ),
        "service.api.response_bytes": (
            sum(response_bytes) / len(response_bytes) if response_bytes else 0.0
        ),
        "service.engine.unattributed_ms": unattributed * ms,
        "engine.share.snapshot_pct": share(snapshot),
        "engine.share.cache_pct": share(cache),
        "engine.share.solve_pct": share(solve),
        "engine.share.fanout_pct": share(fanout),
        "engine.share.commit_pct": share(commit),
        "engine.share.unattributed_pct": share(unattributed),
        "trace_overhead_pct": overhead_pct,
        "python.gc.pause_ms": tracer.gc_seconds * ms,
        "cvdps.states_expanded": counts.get("cvdps.states_expanded", 0),
        "catalog.strategies_built": counts.get("catalog.strategies_built", 0),
        "catalog.delta_applies": counts.get("catalog.delta_applies", 0),
        "catalog.delta_rebuilds": counts.get("catalog.delta_rebuilds", 0),
        "catalog.delta_fallbacks": counts.get("catalog.delta_fallbacks", 0),
        "service.cache.hits": hits,
        "service.cache.misses": misses,
        "engine.candidates_screened": counts.get("engine.candidates_screened", 0),
        "fgt.rounds": counts.get("fgt.rounds", 0),
        "service.journal.fsyncs": counts.get("service.journal.fsyncs", 0),
    }
    return {k: float(v) for k, v in metrics.items()}
