"""Query execution over the Flood-partitioned DataFrame, all in Catalyst.

* :func:`flood_scan` — the projection's cell-id runs become a
  range-predicate disjunction on the clustered ``__flood_cell`` column
  (data skipping over the clustered layout), ANDed with the residual
  per-dimension predicates. Correctness is oracle-checked against DuckDB
  in tests.
* :func:`scan_counts` — numpy Flood's ``(n_scanned, n_matched)`` for the
  same query, in one aggregation: refinement keeps exactly the rows of a
  visited cell that pass the sort-dim bound, so those rows are the scanned
  ones, and the residual predicate counts the matched ones among them.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame, functions as F

from repro.sparkglue.layout import CELL_COL, SparkFloodLayout, cell_runs_for_query


def _runs_predicate(runs: list[tuple[int, int]]) -> Column:
    pred = None
    for lo, hi in runs:
        c = F.col(CELL_COL).between(int(lo), int(hi))
        pred = c if pred is None else (pred | c)
    return pred if pred is not None else F.lit(False)


def _residual_predicate(bounds: dict[str, tuple[float, float]]) -> Column:
    """Rows inside every filtered range, as ``Query.mask`` reads them: a
    range with no finite bound filters nothing, and one with lo > hi
    matches nothing."""
    pred = F.lit(True)
    for name, (lo, hi) in bounds.items():
        if not (np.isfinite(lo) or np.isfinite(hi)):
            continue
        if lo > -np.inf:
            pred = pred & (F.col(name) >= float(lo))
        if hi < np.inf:
            pred = pred & (F.col(name) <= float(hi))
    return pred


def flood_scan(laid: DataFrame, sfl: SparkFloodLayout,
               bounds: dict[str, tuple[float, float]]) -> DataFrame:
    """Rows matching the query, reached through cell-run data skipping."""
    runs = cell_runs_for_query(sfl, bounds)
    return laid.filter(_runs_predicate(runs)).filter(_residual_predicate(bounds))


def scan_counts(laid: DataFrame, sfl: SparkFloodLayout,
                bounds: dict[str, tuple[float, float]]) -> tuple[int, int]:
    """``(n_scanned, n_matched)`` of numpy Flood on the same grid: rows of
    the visited cells within the sort-dim bound, and those among them that
    match the query (SO = n_scanned / n_matched)."""
    runs = cell_runs_for_query(sfl, bounds)
    sort = {k: v for k, v in bounds.items() if k == sfl.sort_col}
    row = (laid.filter(_runs_predicate(runs) & _residual_predicate(sort))
           .agg(F.count(F.lit(1)).alias("scanned"),
                F.sum(_residual_predicate(bounds).cast("long")).alias("matched"))
           .collect()[0])
    return int(row["scanned"]), int(row["matched"] or 0)
