"""In-memory column store substrate (§7.1).

Every index in this reproduction is a *layout* (a permutation of the rows
into a physical order plus page/cell metadata) over one ``ColumnStore``.
The store executes the scan step shared by all indexes and keeps the
counters the paper's Table 2 reports:

* scanned points (→ scan overhead SO = scanned / matched),
* scan wall time (ST; per-point TPS = ST / scanned),

and implements the paper's two scan optimizations:

* **exact ranges** skip per-point filter checks, and
* **cumulative aggregates**: a prefix-sum column answers SUM/COUNT over an
  exact range from its two endpoints (§7.1(2)) — "not a data cube as we
  can support arbitrary ranges".

The paper's store block-delta-compresses 64-bit ints; ours keeps float64
numpy columns (compression does not change which points are scanned, so
SO — the implementation-agnostic metric — is unaffected).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.query import AGG_SUM, Query


@dataclass
class ScanStats:
    value: float
    n_scanned: int
    n_matched: int
    n_exact: int
    scan_time: float


class ColumnStore:
    """Columnar storage of an (n, d) matrix in a fixed physical order."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be (n, d)")
        self.n, self.d = data.shape
        # column-major storage: one contiguous array per attribute
        self.cols = [np.ascontiguousarray(data[:, j]) for j in range(self.d)]
        # prefix sums for O(1) SUM over exact ranges; cumcount is implicit
        self._cums = [np.concatenate(([0.0], np.cumsum(c))) for c in self.cols]

    def matrix(self) -> np.ndarray:
        """Dense (n, d) view of the stored order (tests / rebuilds)."""
        return np.column_stack(self.cols)

    def scan(self, ranges, q: Query) -> ScanStats:
        """Scan physical ``[start, end)`` ranges; ``exact`` ranges skip
        filter checks (§7.1). Returns the aggregate and counters.

        ``ranges`` is anything ``np.asarray`` turns into (k, 3) integer rows
        ``(start, end, exact)``: an array or a list of tuples. Empty and
        inverted ranges scan nothing. Exact ranges are answered from their
        endpoints (prefix sums); the points of the others are gathered in
        one pass and checked against every filter.

        The timer covers only this function: indexes time their own
        projection/refinement and report it separately (Table 2's IT).
        """
        t0 = time.perf_counter()
        r = np.asarray(ranges, dtype=np.int64).reshape(-1, 3)
        r = r[r[:, 1] > r[:, 0]]
        exact = r[:, 2] != 0
        want_sum = q.agg == AGG_SUM

        s, e = r[exact, 0], r[exact, 1]
        n_exact = int((e - s).sum())
        if want_sum:
            cs = self._cums[q.agg_dim]
            total = float((cs[e] - cs[s]).sum())
        else:
            total = float(n_exact)

        s, e = r[~exact, 0], r[~exact, 1]
        lens = e - s
        m = int(lens.sum())
        k = 0
        if m:
            if s.size == 1:
                idx = slice(int(s[0]), int(e[0]))
            else:  # all positions, as a running sum: +1 within a range and
                # a jump from each range's end to the next one's start
                idx = np.ones(m, dtype=np.int64)
                idx[0] = s[0]
                idx[np.cumsum(lens[:-1])] = s[1:] - e[:-1] + 1
                np.cumsum(idx, out=idx)
            mask = None
            for dim in q.filtered_dims:
                col = self.cols[dim][idx]
                lo, hi = q.ranges[dim]
                cond = (col >= lo) & (col <= hi)
                mask = cond if mask is None else (mask & cond)
            k = m if mask is None else int(mask.sum())
            if not want_sum:
                total += k
            elif k:
                vals = self.cols[q.agg_dim][idx]
                total += float((vals if mask is None else vals[mask]).sum())
        return ScanStats(
            value=total,
            n_scanned=n_exact + m,
            n_matched=n_exact + k,
            n_exact=n_exact,
            scan_time=time.perf_counter() - t0,
        )

    def scan_gather(self, idx: np.ndarray, exact_mask: np.ndarray,
                    q: Query) -> ScanStats:
        """:meth:`scan` over explicit positions, each a one-point range.

        No index calls it; it stays because ``perfbench/trace.py`` patches
        it by name.
        """
        idx = np.asarray(idx, dtype=np.int64)
        return self.scan(np.column_stack((idx, idx + 1, exact_mask)), q)
