"""Vectorized C-VDPS layered DP (Algorithm 1 as numpy array passes).

This is the batched counterpart of
:func:`repro.vdps.generator.compute_states`: the same layered expansion
over ``(subset, endpoint)`` states, with each layer's candidate generation,
deadline filtering, and canonical ``(time, path)`` relaxation executed as
array operations instead of dict loops.  The output table is **bit
identical** to the scalar one — same keys, same floats, same tie-breaks —
which is what lets :class:`repro.vdps.delta.DeltaCatalog` splice deltas
over a kernel-built table and still land on the rebuild's exact result.

How bit-identity is preserved:

* **Travel times** come from :meth:`repro.geo.travel.TravelModel.matrix`,
  which fills the matrix through the same memoised ``distance()`` calls
  the scalar path makes (``math.hypot`` is correctly rounded; a vectorised
  ``np.hypot`` is not guaranteed to match it bit for bit, so it is never
  used here).
* **Float evaluation order** matches ``extend_value`` exactly:
  ``(t + service[j]) + T[j, q]``, left-associated, one IEEE-754 operation
  at a time — elementwise array arithmetic performs the identical scalar
  operations.
* **The canonical tie-break** — keep the lexicographically minimal
  ``(time, path)`` per state — reduces to an integer sort.  The frontier
  is maintained in path-lexicographic order, so a row's index *is* its
  path's rank; within one layer all paths have equal length, so comparing
  two candidate paths for the same ``(subset, q)`` target is comparing
  their parents' ranks.  Sorting candidates by ``(time, parent_rank)``
  and keeping the first per target therefore reproduces the scalar
  ``value < cur`` relaxation exactly, and re-sorting winners by
  ``(parent_rank, q)`` restores the path-lexicographic frontier invariant
  for the next layer.

Subsets are carried as packed little-endian bitmask rows (one bit per
delivery point in sorted-id order — the same layout as
:class:`repro.vdps.catalog.CatalogIndex`), and frontier expansion is
chunked so the transient candidate matrices stay bounded regardless of
layer width.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geo.travel import TravelMatrix, TravelModel

#: Upper bound on cells in one transient candidate matrix (rows x points).
_CHUNK_CELLS = 1 << 22

_StateKey = Tuple[FrozenSet[str], str]
_StateVal = Tuple[float, Tuple[str, ...]]


def center_matrix(
    points_by_id: Mapping[str, object],
    travel: TravelModel,
    center_location,
) -> Tuple[List[str], TravelMatrix]:
    """Sorted dp ids plus their travel matrix (kernel index space).

    The kernels index everything by position in the sorted-id order, which
    is also the order the scalar DP seeds in.
    """
    ids = sorted(points_by_id)
    matrix = travel.matrix(
        [points_by_id[dp_id].location for dp_id in ids], origin=center_location
    )
    return ids, matrix


def compute_states_vectorized(
    points_by_id: Mapping[str, object],
    neighbors: Mapping[str, Sequence[str]],
    travel: TravelModel,
    center_location,
    cap: int,
    stats,
    tracer,
    center_id: str,
    matrix: Optional[TravelMatrix] = None,
) -> Dict[_StateKey, _StateVal]:
    """The full layered DP as array passes; see the module doc.

    Drop-in replacement for the scalar
    :func:`repro.vdps.generator.compute_states`: identical state table,
    identical ``DPStats`` increments, identical ``cvdps.layer`` tracer
    events.  ``matrix`` lets callers that already built the center's
    sorted-id travel matrix (e.g. to vectorize ``neighbor_lists``) share
    it; it must be indexed in sorted-``dp_id`` order, as
    :func:`center_matrix` builds it.
    """
    if matrix is None:
        ids, matrix = center_matrix(points_by_id, travel, center_location)
    else:
        ids = sorted(points_by_id)
    n = len(ids)
    idx_of = {dp_id: i for i, dp_id in enumerate(ids)}
    pts = [points_by_id[dp_id] for dp_id in ids]
    service = np.array([dp.service_hours for dp in pts], dtype=np.float64)
    deadline = np.array([dp.earliest_expiry for dp in pts], dtype=np.float64)
    times = matrix.times
    adjacency = np.zeros((n, n), dtype=bool)
    for dp_id, neigh in neighbors.items():
        j = idx_of[dp_id]
        for q_id in neigh:
            adjacency[j, idx_of[q_id]] = True

    states: Dict[_StateKey, _StateVal] = {}

    # Layer 1: seed every singleton whose center leg meets its deadline.
    # flatnonzero ascends, so the frontier starts in path-lex order.
    seed_times = matrix.origin_times
    seed_idx = np.flatnonzero(seed_times <= deadline)
    stats.deadline_rejections += n - seed_idx.size
    f_ends = seed_idx.astype(np.intp)
    f_times = seed_times[seed_idx]
    n_bytes = max(1, -(-n // 8))
    pmask = np.zeros((seed_idx.size, n_bytes), dtype=np.uint8)
    if seed_idx.size:
        pmask[np.arange(seed_idx.size), f_ends >> 3] |= (
            1 << (f_ends & 7)
        ).astype(np.uint8)
    # Subset rank per frontier row: rows sharing a subset share a rank,
    # so (rank, endpoint) is the dedup key of the next layer's candidates.
    sid = np.arange(seed_idx.size, dtype=np.int64)
    f_paths: List[Tuple[str, ...]] = [(ids[e],) for e in f_ends.tolist()]
    for path, t in zip(f_paths, f_times.tolist()):
        states[(frozenset(path), path[-1])] = (t, path)
    stats.states_expanded += len(f_paths)
    if tracer.enabled:
        tracer.event(
            "cvdps.layer",
            center=center_id,
            size=1,
            states=len(f_paths),
            candidates=len(points_by_id),
            deadline_rejections=stats.deadline_rejections,
        )

    size = 1
    while f_times.size and size < cap:
        base = f_times + service[f_ends]
        chunk = max(1, _CHUNK_CELLS // max(n, 1))
        parents_parts: List[np.ndarray] = []
        qs_parts: List[np.ndarray] = []
        ts_parts: List[np.ndarray] = []
        layer_candidates = 0
        layer_rejections = 0
        for lo in range(0, f_times.size, chunk):
            hi = min(lo + chunk, f_times.size)
            member = np.unpackbits(
                pmask[lo:hi], axis=1, count=n, bitorder="little"
            ).astype(bool)
            allowed = adjacency[f_ends[lo:hi]] & ~member
            rows_c, qs_c = np.nonzero(allowed)
            layer_candidates += rows_c.size
            if not rows_c.size:
                continue
            rows_g = rows_c + lo
            t_new = base[rows_g] + times[f_ends[rows_g], qs_c]
            feasible = t_new <= deadline[qs_c]
            layer_rejections += rows_c.size - int(np.count_nonzero(feasible))
            parents_parts.append(rows_g[feasible])
            qs_parts.append(qs_c[feasible])
            ts_parts.append(t_new[feasible])

        if parents_parts:
            parents = np.concatenate(parents_parts).astype(np.int64)
            qs = np.concatenate(qs_parts).astype(np.int64)
            ts = np.concatenate(ts_parts)
        else:
            parents = np.empty(0, dtype=np.int64)
            qs = np.empty(0, dtype=np.int64)
            ts = np.empty(0, dtype=np.float64)

        if parents.size:
            # Canonical relaxation: stable-sort candidates by (time, parent
            # rank), keep the first per (subset, endpoint) target.
            order = np.lexsort((parents, ts))
            key = sid[parents[order]] * np.int64(n) + qs[order]
            _, first = np.unique(key, return_index=True)
            wparents = parents[order][first]
            wqs = qs[order][first]
            wts = ts[order][first]
            # Path-lex frontier invariant: (parent rank, endpoint) order.
            reorder = np.lexsort((wqs, wparents))
            wparents = wparents[reorder]
            wqs = wqs[reorder]
            wts = wts[reorder]

            k = wts.size
            new_pmask = pmask[wparents].copy()
            new_pmask[np.arange(k), wqs >> 3] |= (1 << (wqs & 7)).astype(
                np.uint8
            )
            _, new_sid = np.unique(new_pmask, axis=0, return_inverse=True)
            new_paths = [
                f_paths[p] + (ids[q],)
                for p, q in zip(wparents.tolist(), wqs.tolist())
            ]
            for path, t in zip(new_paths, wts.tolist()):
                states[(frozenset(path), path[-1])] = (t, path)
            f_paths = new_paths
            f_ends = wqs.astype(np.intp)
            f_times = wts
            pmask = new_pmask
            sid = new_sid.reshape(-1).astype(np.int64)
        else:
            f_paths = []
            f_ends = np.empty(0, dtype=np.intp)
            f_times = np.empty(0, dtype=np.float64)
            pmask = np.zeros((0, n_bytes), dtype=np.uint8)
            sid = np.empty(0, dtype=np.int64)

        size += 1
        stats.states_expanded += f_times.size
        stats.candidates_tried += layer_candidates
        stats.deadline_rejections += layer_rejections
        if tracer.enabled:
            tracer.event(
                "cvdps.layer",
                center=center_id,
                size=size,
                states=int(f_times.size),
                candidates=layer_candidates,
                deadline_rejections=layer_rejections,
            )
    return states


def collect_entries_vectorized(
    points_by_id: Mapping[str, object],
    states: Mapping[_StateKey, _StateVal],
    matrix: TravelMatrix,
) -> list:
    """Array-pass counterpart of :func:`repro.vdps.generator.collect_entries`.

    Reconstructing every entry's full arrival-time vector through
    ``arrival_times`` costs one memoised travel call per hop; here the
    prefix times are rebuilt by *position* across all same-length paths —
    ``t[c] = (t[c-1] + service[p(c-1)]) + T[p(c-1), p(c)]`` with
    ``t[0] = origin_times[p(0)]`` — the identical left-associated float
    chain (``clock`` starts at ``0.0`` and ``0.0 + x == x`` bitwise), so
    the materialised routes match the scalar collector's float for float.
    ``matrix`` must be the sorted-id :func:`center_matrix`.
    """
    from repro.core.routing import Route
    from repro.vdps.generator import CVdpsEntry, best_per_subset

    best = best_per_subset(states)
    ids = sorted(points_by_id)
    idx_of = {dp_id: i for i, dp_id in enumerate(ids)}
    service = np.array(
        [points_by_id[dp_id].service_hours for dp_id in ids], dtype=np.float64
    )
    times = matrix.times
    origin = matrix.origin_times
    ordered = sorted(
        best.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0])))
    )
    entries: list = []
    pos = 0
    while pos < len(ordered):
        length = len(ordered[pos][1][1])
        end = pos
        while end < len(ordered) and len(ordered[end][1][1]) == length:
            end += 1
        group = ordered[pos:end]
        paths = np.array(
            [[idx_of[p] for p in value[1]] for _, value in group],
            dtype=np.intp,
        )
        t = np.empty((len(group), length), dtype=np.float64)
        t[:, 0] = origin[paths[:, 0]]
        for c in range(1, length):
            prev = paths[:, c - 1]
            t[:, c] = (t[:, c - 1] + service[prev]) + times[prev, paths[:, c]]
        rows = t.tolist()
        for r, (subset, value) in enumerate(group):
            sequence = tuple(points_by_id[p] for p in value[1])
            entries.append(CVdpsEntry(subset, Route(sequence, tuple(rows[r]))))
        pos = end
    return entries
