"""Inputs, answer checks, statistics and the result record shared by
every workload of the benchmark."""
from __future__ import annotations

import ctypes
import ctypes.util
import gc
import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro import datasets
from repro.core.query import AGG_SUM, Query
from repro.indexes.flood import Layout
from repro.workloads import QUERY_TYPES, make_workload

#: every dataset is generated from this seed; the workload seed only
#: changes the queries, so index size and layout never depend on it
DATA_SEED = 0
#: train queries use ``seed + TRAIN_SEED_OFFSET`` so they never repeat a
#: test query of the same run
TRAIN_SEED_OFFSET = 1_000_003
#: ``setup_s`` is the median of this many set-ups per run
SETUP_REPEATS = 3
#: query selectivity of every workload (paper §7.3)
SELECTIVITY = 1e-3

#: row counts per scale; ``bench`` is the repo's benchmark scale
ROWS = {
    "bench": dict(datasets.BENCH_ROWS),
    "tiny": {k: v // 100 for k, v in datasets.BENCH_ROWS.items()},
}


def load_data(name: str, scale: str) -> np.ndarray:
    data, _ = datasets.load(name, n=ROWS[scale][name], seed=DATA_SEED)
    return data


def test_queries(data: np.ndarray, name: str, n: int, seed: int,
                 types: tuple[tuple[int, ...], ...] | None = None) -> list[Query]:
    """``n`` test queries whose mix of query types is exactly the
    workload's weights (``repro.workloads.QUERY_TYPES``), optionally only
    of the ``types`` named by their filtered dimensions.

    ``make_workload`` draws each query's type at random, so the mix of a
    query set, and with it every percentile, shifts from seed to seed.
    Here the first queries of each type in a longer generated sequence
    fill that type's share, in generation order.
    """
    kind = {tuple(sorted(t[0])): k for k, t in enumerate(QUERY_TYPES[name])}
    w = np.array([t[2] for t in QUERY_TYPES[name]], dtype=float)
    total = w.sum()
    if types is not None:
        keep = np.zeros(w.size, dtype=bool)
        keep[[kind[tuple(sorted(t))] for t in types]] = True
        w = np.where(keep, w, 0.0)
    share = w.sum() / total  # of generated queries that can be used
    w /= w.sum()
    quota = np.floor(w * n).astype(int)
    quota[np.argsort(-(w * n - quota), kind="stable")[: n - quota.sum()]] += 1
    for factor in (1.25, 2, 4, 8):
        left, out = quota.copy(), []
        for q in make_workload(data, name, int(factor * n / share) + 20,
                               target_selectivity=SELECTIVITY, seed=seed):
            k = kind[tuple(q.filtered_dims.tolist())]
            if left[k]:
                left[k] -= 1
                out.append(q)
        if len(out) == n:
            return out
    raise RuntimeError(f"{name}: could not fill the query mix for seed {seed}")


def train_queries(data: np.ndarray, name: str, n: int, seed: int) -> list[Query]:
    return make_workload(data, name, n, target_selectivity=SELECTIVITY,
                         seed=seed + TRAIN_SEED_OFFSET)


def pinned(order: tuple[int, ...], cols: tuple[int, ...]) -> Layout:
    return Layout(order=list(order), cols=list(cols))


def rss_bytes() -> int:
    """Resident set size of this process, after handing freed heap pages
    back to the kernel, so that it counts live memory and not what earlier
    work freed."""
    gc.collect()
    _malloc_trim(0)
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _no_trim(pad: int) -> int:
    return 0


_malloc_trim = getattr(ctypes.CDLL(ctypes.util.find_library("c")), "malloc_trim",
                       _no_trim)


class Checker:
    """Expected COUNT and SUM of every query, from ``Query.mask``.

    The mask is evaluated on the rows that pass the query's two most
    selective filters, found by binary search in per-dimension sort
    orders; every matching row passes those filters, so the answer equals
    brute force over all rows at a fraction of the cost. Only one mask
    exists at a time and the sort orders are dropped once the answers are
    known, so the check adds nothing to the memory an index is measured
    with.

    SUM is compared with a tolerance: prefix sums over a column of total
    magnitude ``S`` lose up to ~``S·2⁻⁵²`` per subtraction.
    """

    def __init__(self, data: np.ndarray, queries: list[Query]):
        self.count = np.empty(len(queries), dtype=np.int64)
        self.total = np.empty(len(queries))
        n = data.shape[0]
        # per dim: sorted values, row of each sorted position, position of each row
        by_dim: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for i, q in enumerate(queries):
            spans = []
            for dim in q.filtered_dims.tolist():
                if dim not in by_dim:
                    perm = np.argsort(data[:, dim], kind="stable")
                    pos = np.empty(n, dtype=np.int64)
                    pos[perm] = np.arange(n)
                    by_dim[dim] = (data[perm, dim], perm, pos)
                vals = by_dim[dim][0]
                lo, hi = q.ranges[dim]
                a = int(np.searchsorted(vals, lo, "left"))
                spans.append((max(a, int(np.searchsorted(vals, hi, "right"))) - a, a, dim))
            spans.sort()
            if spans:
                _, a, dim = spans[0]
                cand = by_dim[dim][1][a:a + spans[0][0]]
                if len(spans) > 1:
                    w, a, dim = spans[1]
                    p = by_dim[dim][2][cand]
                    cand = cand[(p >= a) & (p < a + w)]
                rows = data[cand]
            else:
                rows = data
            m = q.mask(rows)
            self.count[i] = int(m.sum())
            self.total[i] = (float(rows[m, q.agg_dim].sum()) if q.agg == AGG_SUM
                             else float(self.count[i]))
        self._abs_tol = np.abs(data).sum(axis=0) * 1e-12
        self._agg_dim = [q.agg_dim for q in queries]
        self._is_sum = [q.agg == AGG_SUM for q in queries]

    def ok(self, i: int, value: float, count: int) -> bool:
        if count != self.count[i]:
            return False
        if not self._is_sum[i]:
            return value == self.count[i]
        return math.isclose(value, self.total[i], rel_tol=1e-9,
                            abs_tol=float(self._abs_tol[self._agg_dim[i]]))


def tail(lat_ms: np.ndarray, p: float) -> tuple[float, int]:
    """``p``-th percentile and the number of samples beyond it."""
    v = float(np.percentile(lat_ms, p))
    return v, int((lat_ms > v).sum())


class Samples:
    """Query latencies in ms, with the position of each query in its pool."""

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.ms: list[float] = []

    def add(self, i: int, ms: float) -> None:
        self.ids.append(i)
        self.ms.append(ms)

    def __len__(self) -> int:
        return len(self.ms)

    def per_query(self) -> np.ndarray:
        """Median latency of each distinct query. Percentiles are taken over
        these, so every query of the pool counts once however often the
        loop reached it, and a last pass cut short by the deadline does not
        weigh the queries at the start of the pool twice."""
        ids, ms = np.asarray(self.ids), np.asarray(self.ms)
        order = np.lexsort((ms, ids))
        ids, ms = ids[order], ms[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        ends = np.r_[starts[1:], ids.size]
        return (ms[(starts + ends - 1) // 2] + ms[(starts + ends) // 2]) / 2


def latency_metrics(res: "Result", lat: Samples, elapsed: float) -> None:
    """``query_p50_ms``, ``query_p90_ms`` and ``qps`` of a query loop, and
    the report lines that state their sample counts."""
    per_q = lat.per_query()
    p90, beyond90 = tail(per_q, 90)
    p99, beyond99 = tail(per_q, 99)
    res.end_to_end.update(query_p50_ms=float(np.median(per_q)), query_p90_ms=p90,
                          qps=len(lat) / elapsed)
    res.note("query_samples", len(lat), "queries",
             f"{per_q.size} distinct; {beyond90} beyond p90, {beyond99} beyond p99")
    if beyond99 >= 10:
        res.note("query_p99_ms", p99, "ms", f"{beyond99} distinct queries beyond it")


@dataclass
class Result:
    """What one run measured: counts of operations, the metrics of the
    result line, and further lines for the human-readable report."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    spans: dict | None = None

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def note(self, name: str, value, unit: str, detail: str = "") -> None:
        extra = f"  ({detail})" if detail else ""
        self.notes.append(f"{name} = {value} {unit}{extra}")
