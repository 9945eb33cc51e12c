"""The ``spark-osm`` workload: ``sparkglue`` on the osm data with the
``osm-refine`` layout.

Set-up is DataFrame creation + ``learn_boundaries`` + ``apply_flood_layout``
+ materialising the cache, after one untimed warm-up set-up; each query is
``flood_scan(...).agg(count, sum).collect()``, in a closed loop with one
client. The Spark session runs ``local[k]`` with ``k = min(4, nproc)`` and
keeps its scratch files in the given work directory. A query aggregates to
one row, so it runs with one shuffle partition, and without adaptive
execution, which re-plans each query and made latency less steady.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from perfbench import common, trace
from perfbench.common import Checker, Result, Samples, latency_metrics
from repro import datasets
from repro.core.query import AGG_SUM

#: queries per traced/untraced block when the traced run alternates
TRACE_BLOCK = 10
#: untimed queries after set-up, while the JVM compiles the query path
WARMUP_QUERIES = 5
SPARK_MEMORY = "2g"


@dataclass(frozen=True)
class SparkSpec:
    dataset: str
    order: tuple[int, ...]
    cols: tuple[int, ...]
    n_queries: int


def spark_cores() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def start_spark(work: Path):
    """A local Spark session whose scratch files stay under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    tempfile.tempdir = None
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    # every JVM spark-submit starts, launcher included: no perf-data file
    # in the system temp directory, and temp files under ``work``
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    from pyspark.sql import SparkSession

    cores = spark_cores()
    spark = (
        SparkSession.builder.master(f"local[{cores}]").appName("perfbench")
        .config("spark.driver.memory", SPARK_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.sql.shuffle.partitions", "1")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait(timeout=60)


def _span(tracer, name: str):
    if tracer is None or not tracer.installed:
        return contextlib.nullcontext()
    return tracer.span(name)


def run_spark(spec: SparkSpec, scale: str, seed: int, seconds: float,
              traced: bool, work: Path) -> Result:
    res = Result()
    data = common.load_data(spec.dataset, scale)
    dims = datasets.DIMS[spec.dataset]
    queries = common.test_queries(data, spec.dataset, spec.n_queries, seed)
    checker = Checker(data, queries)
    bounds = [{dims[d]: (float(q.ranges[d, 0]), float(q.ranges[d, 1]))
               for d in q.filtered_dims.tolist()} for q in queries]
    layout = common.pinned(spec.order, spec.cols)
    res.meta.update(rows=int(data.shape[0]), queries=len(queries),
                    layout={"order": list(spec.order), "cols": list(spec.cols)},
                    spark_master=f"local[{spark_cores()}]",
                    spark_memory=SPARK_MEMORY)
    t0 = time.perf_counter()
    spark = start_spark(work)
    res.note("session_start_s", time.perf_counter() - t0, "s", "not part of setup_s")
    try:
        _measure(spark, res, data, dims, queries, checker, bounds, layout,
                 seconds, traced)
    finally:
        stop_spark(spark)
    return res


def _measure(spark, res, data, dims, queries, checker, bounds, layout,
             seconds, traced) -> None:
    from pyspark.sql import functions as F

    from repro.sparkglue import layout as sl, scan as ss

    n = data.shape[0]
    cores = spark_cores()
    pdf = pd.DataFrame(data, columns=dims)
    # one untimed set-up on a tenth of the rows: the JVM compiles the
    # layout path and starts its Python workers once per session
    t0 = time.perf_counter()
    df = spark.createDataFrame(pdf.iloc[::10])
    warm = sl.apply_flood_layout(df, sl.learn_boundaries(df, layout, dims),
                                 num_partitions=cores).cache()
    res.check(warm.count() == len(pdf.iloc[::10]))
    warm.unpersist(blocking=True)
    res.note("warmup_s", time.perf_counter() - t0, "s", "not part of setup_s")
    tracer = trace.spark_tracer() if traced else None
    if tracer:
        tracer.install()
    laid, times, learn, load = None, [], [], []
    for k in range(common.SETUP_REPEATS):
        if laid is not None:
            laid.unpersist(blocking=True)
        t0 = time.perf_counter()
        df = spark.createDataFrame(pdf)
        t1 = time.perf_counter()
        sfl = sl.learn_boundaries(df, layout, dims)
        t2 = time.perf_counter()
        with _span(tracer, "spark.layout"):
            laid = sl.apply_flood_layout(df, sfl, num_partitions=cores).cache()
            rows = laid.count()
        t3 = time.perf_counter()
        res.check(rows == n)
        times.append(t3 - t0)
        learn.append(t2 - t1)
        load.append(t3 - t2)
    if tracer:
        tracer.uninstall()
    res.end_to_end.update(setup_s=float(np.median(times)),
                          load_s=float(np.median(load)))
    res.note("setup_runs_s", [round(t, 4) for t in times], "s")
    res.note("learn_s", float(np.median(learn)), "s", "learn_boundaries, median")

    # what the layout keeps and how much it makes a query read: rows per
    # cell as Spark assigned them, summed over each query's cell runs
    sc = spark.sparkContext
    cached = sum(i.memSize() for i in sc._jsc.sc().getRDDStorageInfo())
    res.end_to_end["resident_mb"] = cached / 2**20
    res.end_to_end["index_bytes"] = float(sum(b.nbytes for b in sfl.boundaries.values()))
    hist = np.zeros(layout.n_cells + 1, dtype=np.int64)
    for cell, cnt in laid.groupBy(sl.CELL_COL).count().collect():
        hist[cell + 1] = cnt
    res.check(int(hist.sum()) == n)
    cum = np.cumsum(hist)
    kept = np.array([sum(int(cum[hi + 1] - cum[lo])
                         for lo, hi in sl.cell_runs_for_query(sfl, b))
                     for b in bounds])
    res.end_to_end["scan_overhead"] = float(kept.sum() / max(1, checker.count.sum()))

    def one(i: int, lat: Samples) -> None:
        q = queries[i]
        col = dims[q.agg_dim]
        t0 = time.perf_counter()
        try:
            with _span(tracer, "spark.query"):
                with _span(tracer, "spark.plan"):
                    plan = ss.flood_scan(laid, sfl, bounds[i]).agg(
                        F.count(F.lit(1)).alias("n"), F.sum(col).alias("s"))
                with _span(tracer, "spark.exec"):
                    row = plan.collect()[0]
        except Exception:  # counted as a failed operation
            res.check(False)
            return
        lat.add(i, (time.perf_counter() - t0) * 1e3)
        count = int(row["n"])
        value = float(row["s"] or 0.0) if q.agg == AGG_SUM else float(count)
        res.check(checker.ok(i, value, count))

    for i in range(min(WARMUP_QUERIES, len(queries))):  # JIT, untimed
        one(i, Samples())
    lat = Samples()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    if not traced:
        i = 0
        while time.perf_counter() < deadline:
            one(i, lat)
            i = (i + 1) % len(queries)
        latency_metrics(res, lat, time.perf_counter() - t_start)
        res.note("error_rate", res.failed / res.attempted, "fraction")
        return

    plain, traced_lat, seen = Samples(), Samples(), []
    i = 0
    for b in itertools.count():
        block = [(i + j) % len(queries) for j in range(TRACE_BLOCK)]
        for on in (b % 2 == 1, b % 2 == 0):  # alternate which side runs first
            if on:
                tracer.install()
                for k in block:
                    tracer.op_id = k
                    one(k, traced_lat)
                tracer.uninstall()
            else:
                for k in block:
                    one(k, plain)
        seen += block
        i = (block[-1] + 1) % len(queries)
        if time.perf_counter() >= deadline:
            break
    tab = tracer.table()
    res.per_layer.update(trace.spark_layers(tab))
    res.per_layer["spark.rows_kept_frac"] = float(kept[seen].mean() / n)
    res.per_layer["trace.overhead_pct"] = 100.0 * (
        np.median(traced_lat.ms) / np.median(plain.ms) - 1.0)
    res.spans = tracer.dump()
