"""The numpy Flood workloads: ``tpch-scan`` and ``osm-refine`` (queries on
a pinned layout) and ``tpch-build`` (learn a layout, then load a pinned
one).

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned and its answer was checked.
"""
from __future__ import annotations

import gc
import itertools
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from perfbench import common, trace
from perfbench.common import Checker, Result, Samples, latency_metrics, rss_bytes
from repro.core import optimizer
from repro.harness.bench import default_cost_model
from repro.indexes.flood import FloodIndex

#: queries per traced/untraced block when the traced run alternates
TRACE_BLOCK = 200
#: untimed queries after the builds, so lazy set-up is done before timing
WARMUP_QUERIES = 200
#: the cost model every calibration uses (``benchmarks/bench_table2.py``'s)
COST_MODEL_KW = dict(n_layouts=4, n=15_000)


@dataclass(frozen=True)
class QuerySpec:
    dataset: str
    order: tuple[int, ...]
    cols: tuple[int, ...]
    n_queries: int          # distinct test queries per run
    #: query types to draw, by filtered dimensions (None: the whole mix)
    types: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class BuildSpec:
    dataset: str
    order: tuple[int, ...]  # the pinned layout every load builds
    cols: tuple[int, ...]
    n_train: int            # queries the optimizer learns from
    n_checks: int           # queries run on each freshly loaded index


def _cost_features(r) -> dict:
    """The cost model's per-query statistics, as ``CostModel.calibrate``
    derives them from a ``QueryResult``."""
    e = r.extra
    return {
        "n_cells": r.n_cells, "n_scanned": r.n_scanned,
        "total_cells": e["total_cells"], "cell_size_mean": e["cell_size_mean"],
        "cell_size_median": e["cell_size_median"], "cell_size_p99": e["cell_size_p99"],
        "n_filtered_dims": e["n_filtered_dims"],
        "pts_per_cell": r.n_scanned / max(1, r.n_cells),
        "avg_run_len": e["avg_run_len"],
        "exact_frac": r.n_exact / max(1, r.n_scanned),
        "refined": 1.0 if e["refined"] else 0.0,
    }


def _pred_err_pct(cost_model, results: list) -> float:
    """Absolute error of Eq. 1's predicted mean query time against the
    measured mean, in % of the measured mean."""
    rows = [_cost_features(r) for r in results if r.n_cells and r.n_scanned]
    measured = [r.total_time for r in results if r.n_cells and r.n_scanned]
    pred = cost_model.predict_time(rows)
    return float(100.0 * abs(pred.mean() - np.mean(measured)) / np.mean(measured))


def _build(data, layout, tracer=None, op: int = -1):
    """One load; returns (index, seconds, RSS growth). The caller drops its
    previous index first, so the growth is what this one keeps."""
    if tracer is not None:
        tracer.op_id = op
    r0 = rss_bytes()
    t0 = time.perf_counter()
    idx = FloodIndex(layout=layout).build(data)
    dt = time.perf_counter() - t0
    return idx, dt, rss_bytes() - r0


def _peak_build_mb(data, layout) -> float:
    """Peak traced allocation during one build (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        idx = FloodIndex(layout=layout).build(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del idx
    return peak / 2**20


class _Loop:
    """Runs queries against one index, checks each answer and keeps the
    latencies; ``keep`` also keeps the ``QueryResult`` objects."""

    def __init__(self, index, queries, checker: Checker, res: Result):
        self.index, self.queries, self.checker, self.res = index, queries, checker, res

    def run(self, positions, lat: Samples, keep: list | None = None,
            tracer=None) -> None:
        query = self.index.query
        for i in positions:
            q = self.queries[i]
            if tracer is not None:
                tracer.op_id = i
            t0 = time.perf_counter()
            try:
                r = query(q)
            except Exception:  # counted as a failed operation
                self.res.check(False)
                continue
            dt = time.perf_counter() - t0
            self.res.check(self.checker.ok(i, r.value, r.n_matched))
            lat.add(i, dt * 1e3)
            if keep is not None:
                keep.append(r)


def run_queries(spec: QuerySpec, scale: str, seed: int, seconds: float,
                traced: bool) -> Result:
    res = Result()
    data = common.load_data(spec.dataset, scale)
    queries = common.test_queries(data, spec.dataset, spec.n_queries, seed, spec.types)
    layout = common.pinned(spec.order, spec.cols)
    res.meta.update(rows=int(data.shape[0]), queries=len(queries),
                    layout={"order": list(spec.order), "cols": list(spec.cols)})
    tracer = trace.flood_tracer() if traced else None
    if tracer:
        tracer.install()

    idx, times, rss = None, [], []
    for k in range(common.SETUP_REPEATS):
        idx = None
        idx, dt, dr = _build(data, layout, tracer, k)
        times.append(dt)
        rss.append(dr)
    if tracer:
        tracer.uninstall()
    setup = float(np.median(times))
    res.end_to_end.update(setup_s=setup, load_s=setup,
                          index_bytes=float(idx.index_size_bytes()),
                          resident_mb=float(np.median(rss)) / 2**20)
    res.note("setup_runs_s", [round(t, 4) for t in times], "s")
    checker = Checker(data, queries)
    loop = _Loop(idx, queries, checker, res)
    loop.run(range(min(WARMUP_QUERIES, len(queries))), Samples())  # untimed
    if traced:
        return _traced_queries(res, tracer, loop, data, layout, seconds)

    # closed loop over the query pool until the deadline; the first full
    # pass gives the exact scan overhead of this query set
    lat = Samples()
    first: list = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = passes = 0
    while time.perf_counter() < deadline:
        block = range(i, min(i + 64, len(queries)))
        loop.run(block, lat, keep=first if passes == 0 else None)
        i = block.stop % len(queries)
        passes += i == 0
    latency_metrics(res, lat, time.perf_counter() - t0)
    if passes == 0:  # finish the first pass, untimed
        loop.run(range(i, len(queries)), Samples(), keep=first)
    res.end_to_end["scan_overhead"] = (sum(r.n_scanned for r in first)
                                       / max(1, sum(r.n_matched for r in first)))
    res.note("pool_passes", passes + i / len(queries), "passes")
    res.note("error_rate", res.failed / res.attempted, "fraction")
    return res


def _traced_queries(res: Result, tracer, loop: _Loop, data, layout,
                    seconds: float) -> Result:
    """Alternate untraced and traced blocks of the same queries until the
    deadline, then calibrate a cost model to compare Eq. 1 with them."""
    n = len(loop.queries)
    plain, traced_lat, plain_res, kept = Samples(), Samples(), [], []
    deadline = time.perf_counter() + seconds
    i = 0
    for b in itertools.count():
        block = range(i, min(i + TRACE_BLOCK, n))
        for on in (b % 2 == 1, b % 2 == 0):  # alternate which side runs first
            if on:
                tracer.install()
                loop.run(block, traced_lat, keep=kept, tracer=tracer)
                tracer.uninstall()
            else:
                loop.run(block, plain, keep=plain_res)
        i = block.stop % n
        if time.perf_counter() >= deadline:
            break
    tracer.install()
    err = _pred_err_pct(default_cost_model(**COST_MODEL_KW), plain_res)
    tracer.uninstall()
    tab = tracer.table()
    res.per_layer.update(trace.query_layers(tab, kept))
    res.per_layer.update(trace.build_layers(tab))
    res.per_layer.update(trace.learn_layers(tab))
    res.per_layer["cost_model.pred_err_pct"] = err
    res.per_layer["flood.build_peak_mb"] = _peak_build_mb(data, layout)
    res.per_layer["trace.overhead_pct"] = 100.0 * (
        np.median(traced_lat.ms) / np.median(plain.ms) - 1.0)
    res.note("error_rate", res.failed / res.attempted, "fraction")
    res.spans = tracer.dump()
    return res


def run_build(spec: BuildSpec, scale: str, seed: int, seconds: float,
              traced: bool) -> Result:
    """Learn (``optimize_layout``) then load (``FloodIndex.build`` on the
    pinned layout), repeated; each load is checked by querying it."""
    res = Result()
    data = common.load_data(spec.dataset, scale)
    train = common.train_queries(data, spec.dataset, spec.n_train, seed)
    checks = common.test_queries(data, spec.dataset, spec.n_checks, seed)
    checker = None
    layout = common.pinned(spec.order, spec.cols)
    d = data.shape[1]
    res.meta.update(rows=int(data.shape[0]), train_queries=len(train),
                    check_queries=len(checks), cost_model=COST_MODEL_KW,
                    layout={"order": list(spec.order), "cols": list(spec.cols)})
    tracer = trace.flood_tracer() if traced else None
    if tracer:
        tracer.install()

    # set-up: calibrate the cost model; operation k learns with model
    # k mod SETUP_REPEATS, so learn time is not tied to one calibration
    models, times = [], []
    for _ in range(common.SETUP_REPEATS):
        t0 = time.perf_counter()
        models.append(default_cost_model(**COST_MODEL_KW))
        times.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    res.end_to_end["setup_s"] = float(np.median(times))
    res.note("setup_runs_s", [round(t, 4) for t in times], "s")

    learn, load, rss, cells, err = [], [], [], [], []
    op_s: dict[bool, list] = {False: [], True: []}
    lat = Samples()
    traced_results: list = []
    check_s, so, idx = 0.0, None, None
    t_start = time.perf_counter()
    op = 0
    while True:
        on = traced and op % 2 == 1   # traced run: every other op is traced
        if on:
            tracer.install()
            tracer.op_id = op
        model = models[op % len(models)]
        t0 = time.perf_counter()
        try:
            lay = optimizer.optimize_layout(data, train, model).layout
            ok = (sorted(lay.order) == list(range(d)) and len(lay.cols) == d - 1
                  and min(lay.cols) >= 1)
        except Exception:  # counted as a failed operation
            ok, lay = False, None
        learn.append(time.perf_counter() - t0)
        res.check(ok)
        if lay is not None:
            cells.append(lay.n_cells)
        idx = None
        idx, dt, dr = _build(data, layout, tracer, op)
        op_s[on].append(time.perf_counter() - t0)
        load.append(dt)
        rss.append(dr)
        if checker is None:
            checker = Checker(data, checks)
        # query the loaded index with every check query, each timed
        kept: list = []
        c0 = time.perf_counter()
        _Loop(idx, checks, checker, res).run(range(len(checks)), lat, keep=kept,
                                             tracer=tracer if on else None)
        check_s += time.perf_counter() - c0
        if on:
            tracer.uninstall()
            traced_results += kept
        elif traced:
            err.append(_pred_err_pct(model, kept))
        if so is None:
            so = sum(r.n_scanned for r in kept) / max(1, sum(r.n_matched for r in kept))
        op += 1
        elapsed = time.perf_counter() - t_start
        # start another operation only if at least half of it falls within
        # the run; a traced run needs one untraced and one traced operation
        if elapsed + elapsed / op / 2 > seconds and (not traced or op >= 2):
            break

    res.end_to_end.update(load_s=float(np.median(load)),
                          index_bytes=float(idx.index_size_bytes()),
                          resident_mb=float(np.median(rss)) / 2**20,
                          scan_overhead=so)
    latency_metrics(res, lat, check_s)
    res.note("learn_s", float(np.median(learn)), "s", f"median of {len(learn)} operations")
    res.note("load_runs_s", [round(t, 4) for t in load], "s")
    res.note("learned_cells", cells, "cells")
    res.note("error_rate", res.failed / res.attempted, "fraction")
    if not traced:
        return res

    tab = tracer.table()
    res.per_layer.update(trace.build_layers(tab))
    res.per_layer.update(trace.learn_layers(tab))
    res.per_layer.update(trace.query_layers(tab, traced_results))
    res.per_layer["cost_model.pred_err_pct"] = float(np.mean(err))
    res.per_layer["flood.build_peak_mb"] = _peak_build_mb(data, layout)
    res.per_layer["trace.overhead_pct"] = 100.0 * (
        np.median(op_s[True]) / np.median(op_s[False]) - 1.0)
    res.spans = tracer.dump()
    return res
