"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at 1/100 of the rows: twice untraced with one seed
and once traced. Checks that each run exits 0 and ends with the result
line, that every end-to-end metric of BENCHMARK.json is there with its
unit, that no answer was wrong (error_rate 0), that scan_overhead and
index_bytes repeat exactly, that the traced run reports every per-layer
metric and a non-zero value for each layer the workload runs, and that
the report prints the workload's other metrics by name. Last, it checks
that a directory holding only BENCHMARK.json and perfbench/ (no program)
makes the benchmark fail without a result. Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
SECONDS = "1"

_NUMPY_QUERY = ("flood.project_ms", "flood.refine_ms", "flood.index_self_ms",
                "flood.cells_per_query", "store.scan_ms", "store.ranges_per_query",
                "store.scanned_per_query", "store.ns_per_point", "rmi.cdf_ms")
_NUMPY_BUILD = ("rmi.fit_s", "store.init_s", "flood.build_self_s", "flood.build_peak_mb")
_COST = ("cost_model.calibrate_s", "cost_model.predict_ms", "forest.fit_s",
         "forest.predict_s")
#: per-layer metrics that must be non-zero on each workload's traced run
LAYERS = {
    "tpch-scan": _NUMPY_QUERY + _NUMPY_BUILD + _COST + ("plm.fit_s", "plm.count"),
    "osm-refine": _NUMPY_QUERY + _NUMPY_BUILD + _COST,
    "tpch-build": _NUMPY_QUERY + _NUMPY_BUILD + _COST + (
        "optimizer.learn_s", "optimizer.self_s", "optimizer.cost_evals",
        "base.selectivity_order_s"),
    "spark-osm": ("spark.learn_boundaries_s", "spark.layout_s", "spark.project_ms",
                  "spark.plan_ms", "spark.exec_ms", "spark.runs_per_query_mean",
                  "spark.runs_per_query_max", "spark.rows_kept_frac"),
}
#: metrics the report prints besides the result line, per workload
REPORTED = {
    "tpch-scan": ("query_p99_ms", "error_rate", "query_samples"),
    "osm-refine": ("query_p99_ms", "error_rate", "query_samples"),
    "tpch-build": ("learn_s", "error_rate", "query_samples"),
    "spark-osm": ("learn_s", "error_rate", "query_samples", "session_start_s"),
}
EXACT = ("scan_overhead", "index_bytes")


class Failed(Exception):
    pass


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if p.returncode != 0 and cwd == ROOT:
        raise Failed(f"{workload} trace={trace} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return p.returncode, p.stdout.strip().splitlines()


def result(workload: str, lines: list[str], specs: list[dict]) -> dict:
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise Failed(f"{workload}: result keys {sorted(out)}")
    if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
        raise Failed(f"{workload}: wrong answers: {lines[-1]}")
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != want:
        raise Failed(f"{workload}: metrics/units {got} != {want}")
    for name, unit in want.items():
        if not any(re.match(rf"{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)", ln)
                   for ln in lines):
            raise Failed(f"{workload}: report does not print {name} in {unit}")
    return {k: v["value"] for k, v in out["metrics"].items()}


def check_workload(workload: str) -> None:
    runs = []
    for _ in range(2):
        _, lines = run(workload, 0)
        runs.append(result(workload, lines, BENCH["end_to_end"]))
        for name in REPORTED[workload]:
            if not any(ln.startswith(f"{name} = ") for ln in lines):
                raise Failed(f"{workload}: report does not print {name}")
        if not any(ln == "error_rate = 0.0 fraction" for ln in lines):
            raise Failed(f"{workload}: error_rate is not 0")
    # a tiny build can fit in memory the process already holds
    zero = [m for m, v in runs[0].items() if v == 0 and m != "resident_mb"]
    if zero:
        raise Failed(f"{workload}: end-to-end metrics read 0: {zero}")
    for name in EXACT:
        if runs[0][name] != runs[1][name]:
            raise Failed(f"{workload}: {name} differs: {runs[0][name]} vs {runs[1][name]}")
    _, lines = run(workload, 1)
    layers = result(workload, lines, BENCH["per_layer"])
    missing = [m for m in LAYERS[workload] if not layers[m]]
    if missing:
        raise Failed(f"{workload}: traced run measured nothing for {missing}")


def check_no_program() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail, no result."""
    empty = ROOT / "perfbench" / ".work" / "no-program"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", empty / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    try:
        code, lines = run("tpch-scan", 0, cwd=empty)
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    if code == 0 or (lines and lines[-1].startswith("{")):
        raise Failed(f"run without a program exited {code} with {lines[-1:]}")


def main() -> int:
    try:
        for w in BENCH["workloads"]:
            check_workload(w["name"])
            print(f"ok  {w['name']}")
        check_no_program()
        print("ok  fails without a program")
    except Failed as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
