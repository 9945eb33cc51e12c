"""Flood: the learned multi-dimensional in-memory index (§3–§5).

Layout: dims are ordered; the last is the *sort dimension*, the first
d−1 form a grid with ``cols[i]`` columns each. With flattening (§5.1)
each grid dimension's columns are equi-mass under that attribute's
empirical CDF (an RMI per dimension); without, columns are equal-width.
Points are stored sorted by (cell id, sort-dim value), cell ids running
in depth-first (row-major) order over the grid — exactly Fig 2.

Query flow (§3.2): *projection* intersects the query hyper-rectangle with
the grid and turns cells into physical ranges via the cell table;
*refinement* shrinks every visited cell's range to the query's bounds on
the sort dimension with one lockstep binary search across all those cells
(§5.2, §8); *scan* executes on the column store, with ranges proven exact
skipping per-point checks (§7.1).

The δ-bounded per-cell PLMs of §5.2 are built and counted in the index
size (§7.4, §7.8) but not read by queries: under numpy, one vectorized
search over all visited cells beats a learned lookup per cell, which
costs interpreter calls per cell.

Phase timings and per-query statistics are exposed in
``QueryResult.extra`` — they are the features/targets of the cost model
(§4.1.1).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.plm import PLM
from repro.core.query import Query, QueryResult
from repro.core.rmi import RMI
from repro.indexes.base import BaseIndex, selectivity_order

#: PLM error bound δ, in positions (§5.2)
PLM_DELTA = 50.0
#: cells with fewer points than this get no PLM
PLM_MIN_CELL = 32
#: keys each grid dimension's flattening RMI is fitted on (a uniform sample)
RMI_SAMPLE = 200_000


@dataclass
class Layout:
    """A Flood layout L = (O, {c_i}): dim order (last = sort dim) + columns."""

    order: list[int]          # permutation of range(d); order[-1] is sort dim
    cols: list[int]           # columns per grid dim, len d-1, each >= 1
    flatten: bool = True

    def __post_init__(self) -> None:
        if len(self.cols) != len(self.order) - 1:
            raise ValueError("need one column count per grid dimension")
        if any(c < 1 for c in self.cols):
            raise ValueError("column counts must be >= 1")

    @property
    def sort_dim(self) -> int:
        return self.order[-1]

    @property
    def grid_dims(self) -> list[int]:
        return self.order[:-1]

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cols, dtype=np.int64)) if self.cols else 1


def default_layout(data: np.ndarray, workload: list[Query],
                   target_cells: int | None = None, flatten: bool = True) -> Layout:
    """Heuristic (un-learned) layout: selectivity-ordered dims, most
    selective dim as sort dim, equal columns per grid dim. The optimizer
    (repro.core.optimizer) replaces this with the learned layout."""
    n, d = data.shape
    sel = selectivity_order(data, workload)
    sort_dim = int(sel[0]) if workload else d - 1
    grid = [int(x) for x in sel if int(x) != sort_dim]
    if target_cells is None:
        target_cells = max(1, n // 4096)
    c = max(1, int(round(target_cells ** (1 / max(1, d - 1)))))
    return Layout(order=grid + [sort_dim], cols=[c] * (d - 1), flatten=flatten)


class FloodIndex(BaseIndex):
    name = "flood"

    def __init__(self, layout: Layout | None = None):
        super().__init__()
        self.layout = layout
        self.cdfs: dict[int, RMI] = {}
        self.cell_starts: np.ndarray | None = None
        # Per-cell PLMs over the sort dimension (§5.2): built and counted in
        # index_size_bytes (§7.4), never read by queries — ``_refine``'s one
        # search over all visited cells is cheaper under numpy than a PLM
        # lookup per cell (module docstring).
        self.plms: dict[int, PLM] = {}
        self._mins: np.ndarray | None = None
        self._spans: np.ndarray | None = None

    # -- build ---------------------------------------------------------------
    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        if self.layout is None:
            self.layout = default_layout(data, workload)
        L = self.layout
        n, d = data.shape
        if len(L.order) != d:
            raise ValueError("layout order must cover all dims")
        self._mins = data.min(axis=0)
        self._spans = np.maximum(data.max(axis=0) - self._mins, 1e-300)
        if L.flatten:
            rng = np.random.default_rng(0)
            for dim in L.grid_dims:
                col = data[:, dim]
                if n > RMI_SAMPLE:
                    col = rng.choice(col, RMI_SAMPLE, replace=False)
                self.cdfs[dim] = RMI(col)
        cell_ids = self._cell_ids(data)
        order = np.lexsort((data[:, L.sort_dim], cell_ids))
        self.store = ColumnStore(data[order])
        sorted_cells = cell_ids[order]
        ncells = L.n_cells
        self.cell_starts = np.searchsorted(
            sorted_cells, np.arange(ncells + 1, dtype=np.int64)
        )
        # Per-cell CDF models over the sort dimension (§5.2). Cells smaller
        # than PLM_MIN_CELL get none: a PLM there costs more space than it
        # would save time.
        sizes = np.diff(self.cell_starts)
        self._size_stats = (
            float(sizes.mean()),
            float(np.median(sizes)),
            float(np.quantile(sizes, 0.99)),
        )
        sort_col = self.store.cols[L.sort_dim]
        self.plms = {}
        for cid in np.flatnonzero(sizes >= PLM_MIN_CELL):
            s, e = self.cell_starts[cid], self.cell_starts[cid + 1]
            self.plms[int(cid)] = PLM(sort_col[s:e], delta=PLM_DELTA)

    def _flat_u(self, dim: int, v: np.ndarray) -> np.ndarray:
        """Map values to [0, 1]: CDF when flattening, min-max otherwise."""
        if self.layout.flatten and dim in self.cdfs:
            return self.cdfs[dim].cdf(v)
        return np.clip((np.asarray(v, dtype=np.float64) - self._mins[dim])
                       / self._spans[dim], 0.0, 1.0)

    def _col_of(self, dim: int, c: int, v: np.ndarray) -> np.ndarray:
        """Column index of value(s) v along grid dim with c columns."""
        u = self._flat_u(dim, np.atleast_1d(v))
        return np.clip((u * c).astype(np.int64), 0, c - 1)

    def _cell_ids(self, data: np.ndarray) -> np.ndarray:
        L = self.layout
        ids = np.zeros(data.shape[0], dtype=np.int64)
        stride = 1
        # row-major: first grid dim most significant → build from last dim up
        for dim, c in zip(reversed(L.grid_dims), reversed(L.cols)):
            ids += self._col_of(dim, c, data[:, dim]) * stride
            stride *= c
        return ids

    # -- query ---------------------------------------------------------------
    def query(self, q: Query) -> QueryResult:
        """Overrides BaseIndex.query to time projection/refinement separately
        (the cost model's w_p / w_r targets, §4.1.1)."""
        if self.store is None:
            raise RuntimeError("query() before build()")
        L = self.layout
        t0 = time.perf_counter()
        cells, interior_ok = self._project(q)
        t_proj = time.perf_counter() - t0

        sort_filtered = q.filters(L.sort_dim)
        t0 = time.perf_counter()
        ranges = self._refine(q, cells, interior_ok, sort_filtered)
        t_ref = time.perf_counter() - t0

        stats = self.store.scan(ranges, q)
        avg_run = float((ranges[:, 1] - ranges[:, 0]).mean()) if len(ranges) else 0.0
        mean_sz, med_sz, p99_sz = self._size_stats
        return QueryResult(
            value=stats.value,
            n_matched=stats.n_matched,
            n_scanned=stats.n_scanned,
            index_time=t_proj + t_ref,
            scan_time=stats.scan_time,
            n_cells=int(cells.size),
            n_exact=stats.n_exact,
            extra={
                "proj_time": t_proj,
                "refine_time": t_ref,
                "refined": sort_filtered,
                "n_filtered_dims": int(q.filtered_dims.size),
                "total_cells": int(L.n_cells),
                "cell_size_mean": mean_sz,
                "cell_size_median": med_sz,
                "cell_size_p99": p99_sz,
                "avg_run_len": avg_run,
            },
        )

    def _project(self, q: Query):
        """Intersect the query rectangle with the grid (§3.2.1).

        Returns (cell ids visited in ascending order, per-cell bool: all
        grid-dim filters fully satisfied — candidate for exactness).
        """
        L = self.layout
        col_ranges: list[tuple[int, int]] = []
        interior_masks: list[np.ndarray] = []
        for dim, c in zip(L.grid_dims, L.cols):
            if q.filters(dim):
                lo, hi = q.ranges[dim]
                if lo > hi:  # matches nothing; below, an infinite bound is open
                    return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
                clo = int(self._col_of(dim, c, max(lo, -1e300))[0]) if np.isfinite(lo) else 0
                chi = int(self._col_of(dim, c, min(hi, 1e300))[0]) if np.isfinite(hi) else c - 1
                cols = np.arange(clo, chi + 1)
                # interior columns match the filter for sure (see §3.2.1);
                # boundary columns need per-point checks
                inner = (cols > clo) & (cols < chi)
                if not np.isfinite(lo):
                    inner |= cols < chi
                if not np.isfinite(hi):
                    inner |= cols > clo
                col_ranges.append((clo, chi))
                interior_masks.append(inner)
            else:
                col_ranges.append((0, c - 1))
                interior_masks.append(np.ones(c, dtype=bool))
        # cartesian product of column ranges → cell ids (row-major strides).
        # Singleton dims (1 column, or an unfiltered narrow range) fold into
        # a constant; only non-singleton dims pay an outer-sum — much
        # cheaper than a d-way meshgrid for the common mostly-1-column case.
        strides = np.ones(len(L.cols), dtype=np.int64)
        for i in range(len(L.cols) - 2, -1, -1):
            strides[i] = strides[i + 1] * L.cols[i + 1]
        const = 0
        arrs: list[np.ndarray] = []
        iconst = True
        iarrs: list[np.ndarray] = []
        for (lo, hi), s, im in zip(col_ranges, strides, interior_masks):
            if hi == lo:
                const += lo * s
                iconst = iconst and bool(im[0])
            else:
                arrs.append(np.arange(lo, hi + 1) * s)
                iarrs.append(im)
        if not arrs:
            cells = np.array([const], dtype=np.int64)
        else:
            acc = arrs[0]
            for a in arrs[1:]:
                acc = (acc[:, None] + a[None, :]).ravel()
            cells = acc + const
        if not iconst:
            interior_ok = np.zeros(cells.size, dtype=bool)
        elif not iarrs:
            interior_ok = np.ones(cells.size, dtype=bool)
        else:
            iacc = iarrs[0]
            for a in iarrs[1:]:
                iacc = (iacc[:, None] & a[None, :]).ravel()
            interior_ok = iacc
        return cells, interior_ok

    def _refine(self, q: Query, cells: np.ndarray, interior_ok: np.ndarray,
                sort_filtered: bool) -> np.ndarray:
        """Refinement (§3.2.2, §5.2): the visited cells' physical ranges as
        a (k, 3) int64 array of ``[start, end, exact]`` rows.

        Points of a cell are sorted by the sort dimension, so a filter
        [a, b] on it narrows the cell to [first point >= a, first point
        > b). All visited cells are refined at once (§8): one lockstep
        binary search runs both bounds of every cell together, one gather
        from the sort column per step, ~log2(largest cell) steps. Without
        a sort-dimension filter, physically contiguous cells with the same
        exactness merge into one range instead.
        """
        starts = self.cell_starts[cells]
        ends = self.cell_starts[cells + 1]
        keep = ends > starts
        starts, ends, exact = starts[keep], ends[keep], interior_ok[keep]
        if sort_filtered:
            a, b = q.ranges[self.layout.sort_dim]
            k = starts.size
            # for finite v: v <= b  <=>  v < nextafter(b, inf), so both bounds
            # are searches for the first point >= probe
            probe = np.repeat([a, np.nextafter(b, np.inf)], k)
            last = np.concatenate((ends, ends)) - 1
            # pos: last point known < probe (start - 1: none yet); steps of
            # 2^j, largest first, sum to >= any cell size
            pos = np.concatenate((starts, starts)) - 1
            col = self.store.cols[self.layout.sort_dim]
            for j in reversed(range(int(np.max(ends - starts, initial=0)).bit_length())):
                cand = np.minimum(pos + (1 << j), last)
                np.copyto(pos, cand, where=col.take(cand, mode="clip") < probe)
            pos += 1
            starts, ends = pos[:k], pos[k:]
            keep = ends > starts
            # refinement makes the sort dim exact, so a refined range is exact
            # exactly when its cell is interior in every grid dim
            starts, ends, exact = starts[keep], ends[keep], exact[keep]
        elif starts.size > 1:
            # cells come in ascending order, so contiguous ones are neighbours
            join = (ends[:-1] == starts[1:]) & (exact[:-1] == exact[1:])
            first = np.concatenate(([True], ~join))
            last = np.concatenate((~join, [True]))
            starts, ends, exact = starts[first], ends[last], exact[first]
        return np.column_stack((starts, ends, exact))

    # -- introspection -------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Grid metadata + cell table + per-cell models ("over 95% from the
        models of the sort attribute", §7.4)."""
        total = self.cell_starts.nbytes if self.cell_starts is not None else 0
        for m in self.cdfs.values():
            total += m.keys.nbytes // max(1, m.n // 1024)  # boundary summary
        for p in self.plms.values():
            total += p.size_bytes()
        return int(total)
