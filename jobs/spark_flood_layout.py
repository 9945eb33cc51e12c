"""spark-submit entrypoint: Flood's layout + data-skipping scan on Spark.

Builds the TPC-H-lite lineitem at a scale factor, applies the learned
Flood layout as a repartitionByRange + sortWithinPartitions scheme,
runs a few range queries through the cell-skipping scan, and prints per
query the rows matched, the rows scanned (numpy Flood's count for the same
grid: rows of the visited cells within the sort-dim bound) and the scan
overhead.

Usage: ``spark-submit jobs/spark_flood_layout.py [--sf 0.01]``
"""
import argparse

from pyspark.sql import SparkSession

from repro import synth_data
from repro.indexes.flood import Layout
from repro.sparkglue.layout import apply_flood_layout, learn_boundaries
from repro.sparkglue.scan import scan_counts

DIM_COLS = ["l_orderkey", "l_quantity", "l_discount", "l_extendedprice"]
QUERIES = [
    {"l_orderkey": (100.0, 2000.0)},
    {"l_quantity": (10.0, 15.0), "l_discount": (0.02, 0.04)},
    {"l_orderkey": (500.0, 1500.0), "l_extendedprice": (1000.0, 20000.0)},
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--partitions", type=int, default=16)
    args = ap.parse_args()
    spark = SparkSession.builder.appName("flood-layout").getOrCreate()
    df = synth_data.lineitem(spark, sf=args.sf)
    layout = Layout(order=[0, 1, 2, 3], cols=[16, 4, 4])
    sfl = learn_boundaries(df, layout, DIM_COLS)
    laid = apply_flood_layout(df, sfl, num_partitions=args.partitions).cache()
    n = laid.count()
    print(f"laid out {n} rows over {laid.rdd.getNumPartitions()} partitions")
    for bounds in QUERIES:
        scanned, matched = scan_counts(laid, sfl, bounds)
        print(f"query {bounds}")
        print(f"  matched={matched} scanned={scanned} "
              f"skipped_frac={1 - scanned / n:.3f} SO={scanned / max(1, matched):.2f}")
    spark.stop()


if __name__ == "__main__":
    main()
