"""Task arrival processes for the dispatch simulation.

Arrivals follow a Poisson process in time; each arrival lands on a
delivery point drawn from a (optionally weighted) categorical distribution
over the center's points and carries an absolute expiry drawn uniformly
from a patience window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.entities import DeliveryPoint
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class TaskArrival:
    """One task landing on the platform.

    ``expiry`` is *absolute* simulation time (hours since start), unlike
    :class:`~repro.core.entities.SpatialTask` whose expiry is relative to
    the assignment instant; the simulator converts between the two.

    Times must be finite and the reward finite and non-negative: every
    entry point (API coercion, the simulator, journal replay) builds
    arrivals here, so a poisoned task is refused where it enters instead
    of failing every later snapshot.
    """

    task_id: str
    dp_id: str
    arrival_time: float
    expiry: float
    reward: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time):
            raise ValueError(
                f"arrival_time must be finite, got {self.arrival_time!r}"
            )
        if not math.isfinite(self.expiry):
            raise ValueError(f"expiry must be finite, got {self.expiry!r}")
        if not (math.isfinite(self.reward) and self.reward >= 0):
            raise ValueError(
                f"reward must be finite and >= 0, got {self.reward!r}"
            )

    def remaining(self, now: float) -> float:
        """Time left before expiry at ``now`` (may be negative)."""
        return self.expiry - now


class PoissonTaskArrivals:
    """Homogeneous Poisson arrivals over a center's delivery points.

    Parameters
    ----------
    delivery_points:
        The center's points; arrivals pick one per task.
    rate_per_hour:
        Expected arrivals per simulated hour across the whole center.
    patience:
        ``(min, max)`` hours a task stays valid after arriving.
    weights:
        Optional relative popularity per delivery point (defaults to
        uniform); normalised internally.
    reward:
        Reward per task (paper: 1).
    """

    def __init__(
        self,
        delivery_points: Sequence[DeliveryPoint],
        rate_per_hour: float,
        patience: tuple = (0.5, 1.5),
        weights: Optional[Sequence[float]] = None,
        reward: float = 1.0,
    ) -> None:
        if not delivery_points:
            raise ValueError("arrivals need at least one delivery point")
        if rate_per_hour <= 0:
            raise ValueError(f"rate_per_hour must be positive, got {rate_per_hour}")
        low, high = patience
        if not 0 < low <= high:
            raise ValueError(f"patience must satisfy 0 < min <= max, got {patience}")
        self._points = list(delivery_points)
        self._rate = float(rate_per_hour)
        self._patience = (float(low), float(high))
        self._reward = float(reward)
        if weights is None:
            self._weights = np.full(len(self._points), 1.0 / len(self._points))
        else:
            w = np.asarray(list(weights), dtype=float)
            if w.shape != (len(self._points),) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative, one per point")
            self._weights = w / w.sum()

    def between(
        self, start: float, end: float, seed: SeedLike = None
    ) -> List[TaskArrival]:
        """All arrivals in ``[start, end)``, sorted by arrival time."""
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        rng = ensure_rng(seed)
        count = int(rng.poisson(self._rate * (end - start)))
        if count == 0:
            return []
        times = np.sort(rng.uniform(start, end, size=count))
        picks = rng.choice(len(self._points), size=count, p=self._weights)
        patience = rng.uniform(self._patience[0], self._patience[1], size=count)
        arrivals = []
        for k in range(count):
            t = float(times[k])
            arrivals.append(
                TaskArrival(
                    task_id=f"sim_t{start:.3f}_{k}",
                    dp_id=self._points[int(picks[k])].dp_id,
                    arrival_time=t,
                    expiry=t + float(patience[k]),
                    reward=self._reward,
                )
            )
        return arrivals
