"""Spans and counters recorded around the public entry points of each
layer, from the benchmark's side only.

A :class:`Tracer` patches the entry points while installed and restores
them on :meth:`Tracer.uninstall`, so untraced code runs the original
functions with no wrapper in between. Spans live in parallel lists in
memory (name, start, end, parent, operation id, optional value) and are
written out once, at the end of a run. Single-threaded: the parent of a
span is whatever span was open when it began.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.values: list[float] = []
        self.op_id = -1  # set by the benchmark before each operation
        self._stack = [-1]
        self._patches: list[tuple] = []
        self.installed = False

    # -- recording -----------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.values.append(0.0)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(_now())
        return sid

    def finish(self, sid: int) -> None:
        self.ends[sid] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.finish(sid)

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, value=None) -> None:
        """Record a span ``name`` around ``owner.attr`` while installed.
        ``value(args, result)`` stores one number on the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.finish(sid)
            if value is not None:
                tracer.values[sid] = float(value(args, out))
            return out

        self._patches.append((owner, attr, orig, traced, attr in vars(owner)))

    def install(self) -> None:
        for owner, attr, _, traced, _ in self._patches:
            setattr(owner, attr, traced)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, orig, _, own in self._patches:
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self.installed = False

    # -- analysis ------------------------------------------------------------
    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump(self) -> dict:
        return {
            "names": self.names, "start_ns": self.starts, "end_ns": self.ends,
            "parent": self.parents, "op": self.ops, "value": self.values,
        }


def _runs(idx: np.ndarray) -> int:
    """Contiguous position runs in a gather index (ranges it amounts to)."""
    return int(idx.size and 1 + np.count_nonzero(np.diff(idx) != 1))


def flood_tracer() -> Tracer:
    """A tracer over every numpy layer Flood's query and build paths use."""
    from repro.columnstore.store import ColumnStore
    from repro.core import optimizer
    from repro.core.cost_model import CostModel
    from repro.core.plm import PLM
    from repro.core.rmi import RMI
    from repro.indexes import base, flood
    from repro.ml.random_forest import RandomForestRegressor

    t = Tracer()
    t.patch(flood.FloodIndex, "query", "flood.query")
    t.patch(flood.FloodIndex, "build", "flood.build")
    t.patch(ColumnStore, "__init__", "store.init")
    t.patch(ColumnStore, "scan", "store.scan", lambda a, _: len(a[1]))
    t.patch(ColumnStore, "scan_gather", "store.scan", lambda a, _: _runs(a[1]))
    t.patch(RMI, "__init__", "rmi.fit")
    t.patch(RMI, "cdf", "rmi.cdf")
    t.patch(PLM, "__init__", "plm.fit", lambda a, _: a[0].size_bytes())
    for mod in (base, flood, optimizer):
        t.patch(mod, "selectivity_order", "base.selectivity_order")
    t.patch(optimizer, "optimize_layout", "optimizer.optimize_layout")
    t.patch(CostModel, "calibrate", "cost_model.calibrate")
    t.patch(CostModel, "predict_time", "cost_model.predict")
    t.patch(RandomForestRegressor, "fit", "forest.fit")
    t.patch(RandomForestRegressor, "predict", "forest.predict")
    return t


def spark_tracer() -> Tracer:
    """A tracer over the ``sparkglue`` entry points."""
    from repro.sparkglue import layout, scan

    t = Tracer()
    t.patch(layout, "learn_boundaries", "spark.learn_boundaries")
    t.patch(layout, "apply_flood_layout", "spark.apply_flood_layout")
    for mod in (layout, scan):
        t.patch(mod, "cell_runs_for_query", "spark.cell_runs", lambda a, out: len(out))
    t.patch(scan, "flood_scan", "spark.flood_scan")
    return t


class SpanTable:
    """Columnar view of a tracer's spans with self times and roots."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        self.name = np.asarray(tracer.names, dtype=object)
        self.dur = np.asarray(tracer.ends, dtype=np.int64) - np.asarray(
            tracer.starts, dtype=np.int64)
        self.parent = np.asarray(tracer.parents, dtype=np.int64)
        self.value = np.asarray(tracer.values, dtype=np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        #: span duration minus the time its child spans cover
        self.self_ns = self.dur - child.astype(np.int64)
        # parents precede children, so one forward pass resolves roots
        root = np.arange(n)
        for i in np.flatnonzero(has_parent):
            root[i] = root[self.parent[i]]
        self.root = root

    def roots(self, name: str) -> np.ndarray:
        """Top-level spans (opened by the benchmark itself) named ``name``."""
        return np.flatnonzero((self.name == name) & (self.parent < 0))

    def under(self, name: str, roots: np.ndarray) -> np.ndarray:
        """Spans named ``name`` anywhere below one of ``roots``."""
        return np.flatnonzero((self.name == name) & np.isin(self.root, roots)
                              & (self.parent >= 0))

    def children(self, names: tuple[str, ...], parents: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.isin(self.name, names)
                              & np.isin(self.parent, parents))

    def named(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.name == name)


def per_op(total: float, n: int) -> float:
    return total / n if n else 0.0


def build_layers(tab: SpanTable) -> dict[str, float]:
    """Build-path metrics over the builds the benchmark issued."""
    b = tab.roots("flood.build")
    nb = b.size
    fits = {k: tab.under(k, b) for k in ("rmi.fit", "plm.fit", "store.init")}
    parts = tab.children(("rmi.fit", "plm.fit", "store.init"), b)
    return {
        "rmi.fit_s": per_op(tab.dur[fits["rmi.fit"]].sum() / 1e9, nb),
        "plm.fit_s": per_op(tab.dur[fits["plm.fit"]].sum() / 1e9, nb),
        "plm.count": per_op(fits["plm.fit"].size, nb),
        "plm.bytes": per_op(tab.value[fits["plm.fit"]].sum(), nb),
        "store.init_s": per_op(tab.dur[fits["store.init"]].sum() / 1e9, nb),
        "flood.build_self_s": per_op(
            (tab.dur[b].sum() - tab.dur[parts].sum()) / 1e9, nb),
    }


def query_layers(tab: SpanTable, results: list) -> dict[str, float]:
    """Query-path metrics over the queries the benchmark issued; ``results``
    are their ``QueryResult`` objects."""
    q = tab.roots("flood.query")
    nq = q.size
    store = tab.under("store.scan", q)
    store_ns = float(tab.self_ns[store].sum())
    scanned = sum(r.n_scanned for r in results)
    return {
        "flood.index_self_ms": per_op(tab.self_ns[q].sum() / 1e6, nq),
        "flood.cells_per_query": per_op(sum(r.n_cells for r in results), len(results)),
        "flood.refine_ms": per_op(sum(r.extra["refine_time"] for r in results) * 1e3,
                                  len(results)),
        "flood.project_ms": per_op(sum(r.extra["proj_time"] for r in results) * 1e3,
                                   len(results)),
        "store.scan_ms": per_op(store_ns / 1e6, nq),
        "store.ranges_per_query": per_op(tab.value[store].sum(), nq),
        "store.scanned_per_query": per_op(scanned, len(results)),
        "store.exact_frac": per_op(sum(r.n_exact for r in results), scanned),
        "store.ns_per_point": per_op(store_ns, scanned),
        "rmi.cdf_ms": per_op(tab.dur[tab.under("rmi.cdf", q)].sum() / 1e6, nq),
    }


def learn_layers(tab: SpanTable) -> dict[str, float]:
    """Optimizer, cost-model and forest metrics, wherever they ran."""
    o = tab.roots("optimizer.optimize_layout")
    no = o.size
    cal = tab.named("cost_model.calibrate")
    pred = tab.named("cost_model.predict")
    fit = tab.named("forest.fit")
    fpred = tab.named("forest.predict")
    out = {
        "cost_model.calibrate_s": per_op(tab.dur[cal].sum() / 1e9, cal.size),
        "cost_model.predict_ms": per_op(tab.dur[pred].sum() / 1e6, pred.size),
        "forest.fit_s": per_op(tab.dur[fit].sum() / 1e9, fit.size),
        "forest.predict_s": per_op(tab.dur[fpred].sum() / 1e9, fpred.size),
    }
    if no:
        out.update({
            "optimizer.learn_s": tab.dur[o].sum() / 1e9 / no,
            "optimizer.self_s": tab.self_ns[o].sum() / 1e9 / no,
            "optimizer.cost_evals": tab.children(("cost_model.predict",), o).size / no,
            "base.selectivity_order_s":
                tab.dur[tab.under("base.selectivity_order", o)].sum() / 1e9 / no,
        })
    return out


def spark_layers(tab: SpanTable) -> dict[str, float]:
    """``sparkglue`` metrics: set-up spans are medians over the run's
    set-ups (the first one also warms the JVM); query spans are means."""
    learn = tab.named("spark.learn_boundaries")
    lay = tab.roots("spark.layout")
    q = tab.roots("spark.query")
    nq = q.size
    plan = tab.under("spark.plan", q)
    runs = tab.under("spark.cell_runs", q)
    execs = tab.under("spark.exec", q)
    return {
        "spark.learn_boundaries_s": float(np.median(tab.dur[learn])) / 1e9 if learn.size else 0.0,
        "spark.layout_s": float(np.median(tab.dur[lay])) / 1e9 if lay.size else 0.0,
        "spark.project_ms": per_op(tab.dur[runs].sum() / 1e6, nq),
        "spark.plan_ms": per_op((tab.dur[plan].sum() - tab.dur[runs].sum()) / 1e6, nq),
        "spark.exec_ms": per_op(tab.dur[execs].sum() / 1e6, nq),
        "spark.runs_per_query_mean": per_op(tab.value[runs].sum(), nq),
        "spark.runs_per_query_max": float(tab.value[runs].max()) if runs.size else 0.0,
    }
