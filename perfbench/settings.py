"""Workload settings, metric tables and small statistics helpers.

Everything the benchmark pins lives here: the three workloads at full and
smoke scale, the name and unit of every reported metric, and the rules by
which a run is sized (how many rounds or instances it must measure at
least, whatever ``--seconds`` says).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class ServeSetting:
    """One served workload: a GM city driven window by window over HTTP.

    ``mode`` is ``"window"`` (every step POSTs the window's demand in
    ``batches`` and commits one round that advances the clock) or
    ``"preview"`` (every step runs ``batches`` rounds, each preceded by
    one POST: ``batches - 1`` previews, the first advancing the clock, then
    one commit at the held clock).
    """

    name: str
    mode: str
    n_tasks: int
    n_workers: int
    n_delivery_points: int
    city_seed: int
    epsilon: float
    window_hours: float
    tasks_per_window: int
    batches: int
    min_windows: int
    #: Measured windows of each pass of the traced run (which makes two
    #: passes and a replay, so it measures fewer windows than a plain run).
    trace_windows: int
    #: Untimed windows after set-up: the backlog left by the initial queue
    #: settles within about an hour of service time, and its rounds would
    #: otherwise fill the top of the latency distribution.
    warmup_windows: int
    setups: int
    #: Largest share of ``DispatchEngine.dispatch`` time the traced run
    #: may leave unattributed to a named layer before the run fails.
    #: Smoke rounds last about a millisecond, so fixed per-round
    #: bookkeeping weighs far more there.
    unattributed_bound_pct: float
    journal_compact_every: int = 512

    @property
    def tasks_per_post(self) -> int:
        return self.tasks_per_window // self.batches


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run untimed reference work without automatic garbage collection."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


@dataclass(frozen=True)
class PaperSetting:
    """The offline SYN batch: fixed seeded instances solved cold."""

    name: str
    #: A ``repro.datasets.synthetic.SynConfig``.
    config: object
    epsilon: float
    min_instances: int


def _paper_syn(smoke: bool) -> PaperSetting:
    """The repo's paper-scale SYN default point (Table I underlined values)."""
    from repro.datasets.synthetic import SynConfig
    from repro.experiments.config import SYN_GRID, SYN_SPACE_KM, Scale

    grid = SYN_GRID[Scale.PAPER]
    config = SynConfig(
        n_centers=grid.n_centers,
        n_workers=grid.workers_default,
        n_delivery_points=grid.dps_default,
        n_tasks=grid.tasks_default,
        expiry_hours=grid.expiry_default,
        max_delivery_points=grid.maxdp_default,
        space_km=SYN_SPACE_KM[Scale.PAPER],
    )
    if smoke:
        config = replace(
            config,
            n_centers=2,
            n_workers=16,
            n_delivery_points=40,
            n_tasks=400,
            space_km=15.0,
        )
    return PaperSetting(
        name="paper-syn",
        config=config,
        epsilon=grid.epsilon_default,
        min_instances=2 if smoke else 4,
    )


#: The medium city of ``repro bench``: 1200 tasks, 150 workers, 260 points.
_MEDIUM_CITY = dict(n_tasks=1200, n_workers=150, n_delivery_points=260, city_seed=0)
_SMOKE_CITY = dict(n_tasks=60, n_workers=14, n_delivery_points=30, city_seed=0)


def workload_settings(smoke: bool = False) -> Dict[str, object]:
    """``name -> setting`` for every workload, at full or smoke scale.

    Full scale sizes each run so that the 95th percentile of its rounds
    has at least ten samples beyond it: 300 rounds on ``serve-window``,
    200 on ``serve-preview`` and 200 center solves (4 instances x 50
    centers) on ``paper-syn``.  ``serve-preview`` is not in
    ``BENCHMARK.json`` (see README.md) but stays runnable by name.
    """
    city = _SMOKE_CITY if smoke else _MEDIUM_CITY
    common = dict(
        epsilon=0.8,
        window_hours=0.05,
        warmup_windows=1 if smoke else 20,
        unattributed_bound_pct=25.0 if smoke else 5.0,
        **city,
    )
    window = ServeSetting(
        name="serve-window",
        mode="window",
        tasks_per_window=12 if smoke else 60,
        batches=3,
        min_windows=3 if smoke else 300,
        trace_windows=3 if smoke else 100,
        setups=2 if smoke else 3,
        **common,
    )
    preview = ServeSetting(
        name="serve-preview",
        mode="preview",
        tasks_per_window=12 if smoke else 60,
        batches=4,
        min_windows=2 if smoke else 50,
        trace_windows=2 if smoke else 25,
        setups=2 if smoke else 3,
        **common,
    )
    return {s.name: s for s in (window, preview, _paper_syn(smoke))}


WORKLOADS: Tuple[str, ...] = ("serve-window", "serve-preview", "paper-syn")

ROOT = Path(__file__).resolve().parent.parent

def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics.

    ``BENCHMARK.json`` at the checkout root is the one list of metrics.
    A workload without a native notion of a metric reports its analogue
    (see README.md).  Per-layer times are per round on the served
    workloads and per instance on ``paper-syn``; counts are totals over
    the traced run's fixed prefix, so they repeat exactly for a given seed.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def derive_seed(seed: int, stream: str) -> int:
    """A 32-bit seed for one named input stream of a run."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def p50(values: Sequence[float]) -> float:
    """The median."""
    return float(statistics.median(values))


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)])


def beyond_p95(count: int) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank p95."""
    return count - max(1, math.ceil(0.95 * count))


def mean(values: List[float]) -> float:
    """Arithmetic mean (0.0 for no values)."""
    return float(sum(values) / len(values)) if values else 0.0
