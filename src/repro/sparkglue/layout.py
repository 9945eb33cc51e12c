"""Flood's learned layout as a Spark partitioning/sort scheme.

This is the distributed realization of §3.1 (per the reproduction band:
"a custom partitioning/sort scheme applied per-partition then scanned via
DataFrame filters with data skipping"). Spark uses numpy Flood's own
:class:`~repro.indexes.flood.Grid`, so both assign every row the same cell
and project every query onto the same cells:

1. :func:`learn_boundaries` — ``Grid.fit`` on a sample collected to the
   driver: per grid dimension, equi-mass column thresholds under the
   sample's CDF (§5.1), or equal-width ones without flattening. A sample
   that holds every row gives numpy Flood's thresholds exactly.
2. :func:`apply_flood_layout` — a pandas UDF assigns each row its cell id
   with ``Grid.row_cells``, then ``repartitionByRange(cell_id)`` +
   ``sortWithinPartitions(cell_id, sort_dim)`` materializes exactly
   Flood's storage order: cells contiguous, sort-dim ordered within.
3. :func:`cell_runs_for_query` — ``Grid.project`` on the driver, with the
   visited cells merged into contiguous cell-id runs.

The resulting DataFrame is clustered on ``cell_id``; range predicates on
it are pushed into the in-memory columnar scan where batch-level min/max
stats skip non-matching batches (Spark's cached-relation pruning), the
DataFrame analogue of Flood's cell table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType

from repro.indexes.flood import Grid, Layout

CELL_COL = "__flood_cell"


@dataclass
class SparkFloodLayout:
    """A learned grid + the column names of its dims."""

    grid: Grid
    dim_cols: list[str]                    # dataframe column per dim index

    @property
    def layout(self) -> Layout:
        return self.grid.layout

    @property
    def boundaries(self) -> dict[int, np.ndarray]:
        """Grid dim -> ascending column thresholds."""
        return self.grid.thresholds

    @property
    def sort_col(self) -> str:
        return self.dim_cols[self.layout.sort_dim]


def learn_boundaries(df: DataFrame, layout: Layout, dim_cols: list[str],
                     sample_rows: int = 50_000, seed: int = 0) -> SparkFloodLayout:
    """Fit the grid on a sample of about ``sample_rows`` rows (every row
    when the DataFrame has no more)."""
    n = df.count()
    frac = min(1.0, sample_rows / max(n, 1))
    sample = df.select(*dim_cols)
    if frac < 1.0:
        sample = sample.sample(frac, seed=seed)
    data = sample.toPandas().to_numpy(dtype=np.float64)
    return SparkFloodLayout(grid=Grid.fit(layout, data), dim_cols=dim_cols)


def cell_id_expr(sfl: SparkFloodLayout):
    """Pandas UDF computing each row's row-major cell id."""
    from pyspark.sql.functions import pandas_udf

    # captures only numpy arrays: Spark's Python workers need not import repro
    cells = sfl.grid.row_cells()

    @pandas_udf(LongType())
    def _cell(*series: pd.Series) -> pd.Series:
        return pd.Series(cells(*(s.to_numpy(dtype=np.float64) for s in series)))

    return _cell(*[F.col(sfl.dim_cols[dm]) for dm in sfl.layout.grid_dims])


def apply_flood_layout(df: DataFrame, sfl: SparkFloodLayout,
                       num_partitions: int | None = None) -> DataFrame:
    """Materialize Flood's storage order as a Spark DataFrame.

    Rows gain ``__flood_cell``; partitions hold contiguous cell-id ranges
    (repartitionByRange) and rows within each partition are sorted by
    (cell id, sort dim) — Fig 2's serialization order, distributed.
    """
    with_cell = df.withColumn(CELL_COL, cell_id_expr(sfl))
    parted = (
        with_cell.repartitionByRange(num_partitions, CELL_COL)
        if num_partitions
        else with_cell.repartitionByRange(CELL_COL)
    )
    return parted.sortWithinPartitions(CELL_COL, sfl.sort_col)


def cell_runs_for_query(sfl: SparkFloodLayout,
                        bounds: dict[str, tuple[float, float]]) -> list[tuple[int, int]]:
    """Projection (§3.2.1) on the driver: contiguous [lo, hi] cell-id runs
    intersecting the query rectangle. ``bounds`` maps column name -> range;
    columns outside the layout are left to the residual filter."""
    ranges = np.full((len(sfl.dim_cols), 2), [-np.inf, np.inf])
    for dim, name in enumerate(sfl.dim_cols):
        if name in bounds:
            ranges[dim] = bounds[name]
    cells, _ = sfl.grid.project(ranges)
    if not cells.size:
        return []
    # cells ascend, so a run breaks wherever the next id is not one more
    brk = np.diff(cells) != 1
    starts = cells[np.concatenate(([True], brk))]
    ends = cells[np.concatenate((brk, [True]))]
    return list(zip(starts.tolist(), ends.tolist()))
