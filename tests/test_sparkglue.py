"""Spark layer: Flood layout as partitioning/sort + data-skipping scans.

Results are oracle-checked against DuckDB over the same input
(repro.oracle.assert_equivalent), and the layout's structural invariants
(cell clustering, within-partition sort order, skipping effectiveness)
are asserted on the materialized DataFrame.
"""
import os
import pickle
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest
from pyspark import cloudpickle
from pyspark.sql import functions as F

from repro import datasets, synth_data
from repro.core.query import query_from_dict
from repro.indexes.flood import FloodIndex, Grid, Layout
from repro.oracle import assert_equivalent
from repro.sparkglue.layout import (CELL_COL, SparkFloodLayout, apply_flood_layout,
                                    cell_runs_for_query, learn_boundaries)
from repro.sparkglue.scan import flood_scan, scan_counts
from repro.workloads import make_workload

DIM_COLS = ["l_orderkey", "l_quantity", "l_discount", "l_extendedprice"]
LAYOUT = Layout(order=[0, 1, 2, 3], cols=[8, 4, 4])  # sort dim: extendedprice


@pytest.fixture(scope="module")
def li_pdf():
    return synth_data.lineitem_pdf(sf=0.005, seed=0)


@pytest.fixture(scope="module")
def laid(spark, li_pdf):
    df = spark.createDataFrame(li_pdf)
    sfl = learn_boundaries(df, LAYOUT, DIM_COLS, sample_rows=20_000)
    out = apply_flood_layout(df, sfl, num_partitions=8).cache()
    out.count()  # materialize
    yield out, sfl
    out.unpersist()


QUERIES = [
    {"l_quantity": (10.0, 20.0)},
    {"l_orderkey": (100.0, 900.0)},
    {"l_orderkey": (500.0, 2000.0), "l_discount": (0.02, 0.05)},
    {"l_quantity": (1.0, 5.0), "l_extendedprice": (1000.0, 30000.0)},
    {"l_discount": (0.05, 0.05)},  # equality
    {"l_orderkey": (100.0, 200.0), "l_quantity": (5.0, 25.0),
     "l_extendedprice": (900.0, 50000.0)},
]


def _sql_where(bounds):
    return " AND ".join(
        f"({c} >= {lo} AND {c} <= {hi})" for c, (lo, hi) in bounds.items()
    )


@pytest.mark.parametrize("bounds", QUERIES)
def test_count_matches_duckdb_oracle(laid, li_pdf, bounds):
    df, sfl = laid
    got = flood_scan(df, sfl, bounds).agg(F.count("*").alias("cnt"))
    assert_equivalent(
        got,
        f"SELECT count(*) AS cnt FROM lineitem WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


@pytest.mark.parametrize("bounds", QUERIES[:3])
def test_sum_matches_duckdb_oracle(laid, li_pdf, bounds):
    df, sfl = laid
    got = flood_scan(df, sfl, bounds).agg(
        F.round(F.sum("l_extendedprice"), 2).alias("s")
    )
    assert_equivalent(
        got,
        "SELECT round(sum(l_extendedprice), 2) AS s FROM lineitem "
        f"WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


def test_row_level_equivalence(laid, li_pdf):
    """Full matching-row set (not just aggregates) equals DuckDB's."""
    df, sfl = laid
    bounds = {"l_orderkey": (100.0, 300.0), "l_quantity": (10.0, 40.0)}
    got = (
        flood_scan(df, sfl, bounds)
        .select("l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice")
    )
    assert_equivalent(
        got,
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
        f"FROM lineitem WHERE {_sql_where(bounds)}",
        lineitem=li_pdf,
    )


def test_layout_clusters_cells(laid):
    """Each cell id must live in exactly one partition-contiguous run:
    sortWithinPartitions(cell, sort) ⇒ cells sorted inside partitions."""
    df, _ = laid

    def check(pdf_iter):
        for pdf in pdf_iter:
            cells = pdf[CELL_COL].to_numpy()
            ok = bool((np.diff(cells) >= 0).all()) if len(cells) else True
            yield pd.DataFrame({"ok": [ok]})

    res = df.mapInPandas(check, schema="ok boolean").collect()
    assert all(r["ok"] for r in res)


def test_sort_dim_ordered_within_cells(laid):
    df, sfl = laid

    def check(pdf_iter):
        for pdf in pdf_iter:
            ok = True
            for _, grp in pdf.groupby(CELL_COL):
                v = grp[sfl.sort_col].to_numpy()
                if (np.diff(v) < 0).any():
                    ok = False
            yield pd.DataFrame({"ok": [ok]})

    res = df.mapInPandas(check, schema="ok boolean").collect()
    assert all(r["ok"] for r in res)


def _brute(pdf, bounds):
    m = np.ones(len(pdf), dtype=bool)
    for c, (lo, hi) in bounds.items():
        m &= (pdf[c] >= lo).to_numpy() & (pdf[c] <= hi).to_numpy()
    return int(m.sum())


def test_selective_query_skips_most_rows(laid, li_pdf):
    df, sfl = laid
    scanned, matched = scan_counts(df, sfl, {"l_orderkey": (100.0, 300.0)})
    assert scanned < len(li_pdf) / 2  # 8 columns on orderkey → ≥ 7/8 of cells skippable
    assert matched == _brute(li_pdf, {"l_orderkey": (100.0, 300.0)})


def test_unselective_query_skips_nothing(laid, li_pdf):
    df, sfl = laid
    assert scan_counts(df, sfl, {}) == (len(li_pdf), len(li_pdf))


def test_scan_counts_match_brute_force(laid, li_pdf):
    df, sfl = laid
    bounds = {"l_orderkey": (100.0, 500.0), "l_quantity": (10.0, 30.0)}
    scanned, matched = scan_counts(df, sfl, bounds)
    assert matched == _brute(li_pdf, bounds)
    assert matched <= scanned <= len(li_pdf)
    # a sort-dim bound is refined away: only rows inside it are scanned
    sort_only = {"l_extendedprice": (1000.0, 2000.0)}
    assert scan_counts(df, sfl, sort_only) == (_brute(li_pdf, sort_only),) * 2


@pytest.mark.parametrize("bounds", [
    {"l_orderkey": (900.0, 100.0)},                 # grid dim: no cell runs
    {"l_extendedprice": (50000.0, -np.inf)},        # sort dim, open side
    {"l_quantity": (np.inf, 10.0), "l_discount": (0.0, 0.1)},
])
def test_inverted_bounds_match_nothing(laid, bounds):
    df, sfl = laid
    assert flood_scan(df, sfl, bounds).count() == 0
    assert scan_counts(df, sfl, bounds) == (0, 0)


def test_cell_runs_merge_contiguous():
    layout = Layout(order=[0, 1, 2], cols=[4, 4])
    thresholds = {0: np.array([1.0, 2.0, 3.0]), 1: np.array([1.0, 2.0, 3.0])}
    sfl = SparkFloodLayout(grid=Grid(layout, thresholds), dim_cols=["a", "b", "c"])
    # no filters → one run covering all 16 cells
    assert cell_runs_for_query(sfl, {}) == [(0, 15)]
    # filter selecting b in one column → 4 disjoint runs
    runs = cell_runs_for_query(sfl, {"b": (0.0, 0.5)})
    assert runs == [(0, 0), (4, 4), (8, 8), (12, 12)]
    # filter on the leading dim → one contiguous run
    runs = cell_runs_for_query(sfl, {"a": (0.0, 1.5)})
    assert runs == [(0, 7)]
    # lo > hi on a grid dim → no run at all
    assert cell_runs_for_query(sfl, {"a": (2.0, 1.0)}) == []


def test_row_cells_unpickle_without_repro(tmp_path):
    """Spark ships the cell-id function to Python workers that may not
    have this package on their path: it must unpickle without it."""
    data = np.random.default_rng(0).random((500, 3))
    grid = Grid.fit(Layout(order=[0, 1, 2], cols=[5, 3]), data)
    cells = grid.row_cells()
    code = ("import importlib.util, pickle, sys\n"
            "assert importlib.util.find_spec('repro') is None\n"
            "f, cols = pickle.loads(sys.stdin.buffer.read())\n"
            "sys.stdout.buffer.write(pickle.dumps(f(*cols)))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         input=cloudpickle.dumps((cells, [data[:, 0], data[:, 1]])),
                         capture_output=True, check=True)
    assert np.array_equal(pickle.loads(out.stdout), cells(data[:, 0], data[:, 1]))


def test_spark_reproduces_numpy_flood(spark):
    """On data small enough that Spark's sample holds every row, Spark and
    numpy Flood learn the same thresholds, put the same number of rows in
    every cell, visit the same cells and scan and match the same rows."""
    dims = datasets.DIMS["osm"]
    data = datasets.osm(n=21_000, seed=0)
    layout = Layout(order=[2, 3, 0, 4, 5, 1], cols=[16, 16, 1, 2, 1])
    idx = FloodIndex(layout=layout).build(data)
    df = spark.createDataFrame(pd.DataFrame(data, columns=dims))
    sfl = learn_boundaries(df, layout, dims)
    laid = apply_flood_layout(df, sfl, num_partitions=4).cache()
    try:
        for dim in layout.grid_dims:
            assert np.array_equal(sfl.boundaries[dim], idx.grid.thresholds[dim])
        counts = np.zeros(layout.n_cells, dtype=np.int64)
        for cell, cnt in laid.groupBy(CELL_COL).count().collect():
            counts[cell] = cnt
        assert np.array_equal(counts, np.diff(idx.cell_starts))
        queries = make_workload(data, "osm", 40, seed=3) + [
            query_from_dict(6, {2: (44.0, 41.0)}),
            query_from_dict(6, {1: (1.3e9, -np.inf), 3: (-72.0, -70.0)}),
            query_from_dict(6, {3: (-np.inf, -71.0), 1: (1.2e9, np.inf)}),
        ]
        for q in queries:
            bounds = {dims[d]: tuple(q.ranges[d]) for d in q.filtered_dims.tolist()}
            runs = cell_runs_for_query(sfl, bounds)
            cells = [c for lo, hi in runs for c in range(lo, hi + 1)]
            r = idx.query(q)
            if not q.empty:
                assert cells == idx.grid.project(q.ranges)[0].tolist()
            assert scan_counts(laid, sfl, bounds) == (r.n_scanned, r.n_matched)
    finally:
        laid.unpersist()


def test_flatten_false_uses_equal_width(spark, li_pdf):
    df = spark.createDataFrame(li_pdf)
    lay = Layout(order=[0, 1, 2, 3], cols=[4, 2, 2], flatten=False)
    sfl = learn_boundaries(df, lay, DIM_COLS, sample_rows=5000)
    b = sfl.boundaries[0]
    widths = np.diff(np.concatenate(([li_pdf["l_orderkey"].min()], b,
                                     [li_pdf["l_orderkey"].max()])))
    assert widths.std() / widths.mean() < 0.1
