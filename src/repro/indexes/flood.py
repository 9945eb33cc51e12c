"""Flood: the learned multi-dimensional in-memory index (§3–§5).

Layout: dims are ordered; the last is the *sort dimension*, the first
d−1 form a grid with ``cols[i]`` columns each. With flattening (§5.1)
each grid dimension's columns are equi-mass under that attribute's
empirical CDF (an RMI per dimension); without, columns are equal-width.
Points are stored sorted by (cell id, sort-dim value), cell ids running
in depth-first (row-major) order over the grid — exactly Fig 2. The
:class:`Grid` holds the columns, the cell numbering and the projection;
the Spark layer uses the same class.

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


class Grid:
    """Flood's grid over a layout (§3.1): which column a value falls in,
    which cell a row falls in, and which cells a query touches.

    Grid dimension i has ``cols[i] − 1`` ascending ``thresholds``; a value's
    column is the number of thresholds <= it. Cells are numbered row-major
    over the grid dims, the first most significant (Fig 2). The numpy index
    and the Spark layer (``repro.sparkglue``) both lay rows out with
    :meth:`row_cells` and project queries with :meth:`project`.
    """

    def __init__(self, layout: Layout, thresholds: dict[int, np.ndarray],
                 cdfs: dict[int, RMI] | None = None):
        self.layout = layout
        #: grid dim -> (cols − 1,) ascending float64 column thresholds
        self.thresholds = thresholds
        #: grid dim -> flattening model; query endpoints are mapped through
        #: it, which lands every value in its threshold column (see fit)
        self.cdfs = cdfs or {}
        cols = layout.cols
        self.strides = np.ones(len(cols), dtype=np.int64)
        for i in range(len(cols) - 2, -1, -1):
            self.strides[i] = self.strides[i + 1] * cols[i + 1]

    @classmethod
    def fit(cls, layout: Layout, data: np.ndarray) -> "Grid":
        """Columns of ``data`` (n, d): equi-mass under each grid dim's
        empirical CDF when flattening (§5.1), equal-width otherwise."""
        thresholds: dict[int, np.ndarray] = {}
        cdfs: dict[int, RMI] = {}
        rng = np.random.default_rng(0)
        for dim, c in zip(layout.grid_dims, layout.cols):
            col = data[:, dim]
            if not layout.flatten:
                lo, hi = col.min(), col.max()
                thresholds[dim] = lo + (hi - lo) * np.arange(1, c) / c
                continue
            if col.size > RMI_SAMPLE:
                col = rng.choice(col, RMI_SAMPLE, replace=False)
            m = cdfs[dim] = RMI(col)
            # v's flattened column is int((r / n) * c), r = number of keys
            # <= v. It first reaches k at rank r_k, so column k starts at
            # the r_k-th key (same float operations as _column's).
            col_of_rank = (np.arange(m.n + 1) / m.n * c).astype(np.int64)
            r = np.searchsorted(col_of_rank, np.arange(1, c))
            thresholds[dim] = m.keys[r - 1]
        return cls(layout, thresholds, cdfs)

    def size_bytes(self) -> int:
        """The thresholds, plus a summary of each flattening model."""
        return int(sum(t.nbytes for t in self.thresholds.values())
                   + sum(m.keys.nbytes // max(1, m.n // 1024) for m in self.cdfs.values()))

    def row_cells(self):
        """A function from the grid dims' value arrays (in layout order) to
        each row's cell id. It closes over plain arrays and ints only, so
        Spark can ship it to workers that cannot import this package."""
        bounds = [self.thresholds[dim] for dim in self.layout.grid_dims]
        strides = self.strides.tolist()

        def cells(*columns):
            ids = 0
            for v, b, s in zip(columns, bounds, strides):
                ids = ids + np.searchsorted(b, v, side="right") * s
            return ids

        return cells

    def _column(self, dim: int, c: int, v: float) -> int:
        """Column of one query endpoint along grid dim ``dim``."""
        if dim in self.cdfs:
            return min(int(self.cdfs[dim].cdf(v)[0] * c), c - 1)
        return int(np.searchsorted(self.thresholds[dim], v, side="right"))

    def project(self, ranges: np.ndarray):
        """Intersect a query's (d, 2) ``[lo, hi]`` ranges with the grid
        (§3.2.1); ±inf marks an open side.

        Returns (cell ids visited in ascending order, per-cell bool: all
        grid-dim filters fully satisfied — candidate for exactness).
        """
        L = self.layout
        col_ranges: list[tuple[int, int]] = []
        interior_masks: list[np.ndarray] = []
        for dim, c in zip(L.grid_dims, L.cols):
            lo, hi = ranges[dim]
            if np.isfinite(lo) or np.isfinite(hi):
                if lo > hi:  # matches nothing; below, an infinite bound is open
                    return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
                clo = self._column(dim, c, lo) if np.isfinite(lo) else 0
                chi = self._column(dim, c, hi) if np.isfinite(hi) else c - 1
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
        const = 0
        arrs: list[np.ndarray] = []
        iconst = True
        iarrs: list[np.ndarray] = []
        for (lo, hi), s, im in zip(col_ranges, self.strides, interior_masks):
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


class FloodIndex(BaseIndex):
    name = "flood"

    def __init__(self, layout: Layout | None = None):
        super().__init__()
        self.layout = layout
        self.grid: Grid | None = None
        self.cell_starts: np.ndarray | None = None
        # Per-cell PLMs over the sort dimension (§5.2): built and counted in
        # index_size_bytes (§7.4), never read by queries — ``_refine``'s one
        # search over all visited cells is cheaper under numpy than a PLM
        # lookup per cell (module docstring).
        self.plms: dict[int, PLM] = {}

    # -- build ---------------------------------------------------------------
    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        if self.layout is None:
            self.layout = default_layout(data, workload)
        L = self.layout
        n, d = data.shape
        if len(L.order) != d:
            raise ValueError("layout order must cover all dims")
        self.grid = Grid.fit(L, data)
        cell_ids = np.zeros(n, dtype=np.int64)
        cell_ids += self.grid.row_cells()(*(data[:, dim] for dim in L.grid_dims))
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

    # -- query ---------------------------------------------------------------
    def query(self, q: Query) -> QueryResult:
        """Overrides BaseIndex.query to time projection/refinement separately
        (the cost model's w_p / w_r targets, §4.1.1)."""
        admit = self._admit(q)
        L = self.layout
        t0 = time.perf_counter()
        if admit:
            cells, interior_ok = self.grid.project(q.ranges)
        else:
            cells, interior_ok = np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
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
        if self.grid is None:
            return 0
        total = self.cell_starts.nbytes + self.grid.size_bytes()
        for p in self.plms.values():
            total += p.size_bytes()
        return int(total)
