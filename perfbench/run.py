"""Run one workload of the Flood benchmark and print its metrics.

    python3 perfbench/run.py --workload tpch-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program under test is imported from
``src/`` of that checkout; without it the run fails. Every line of the
report names a metric with its unit; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``). Every run writes its stamp, metrics and report to
``perfbench/out/``, and a traced run its spans too. See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("tpch-scan", "osm-refine", "tpch-build", "spark-osm")


def workloads(scale: str) -> dict:
    from perfbench.flood_numpy import BuildSpec, QuerySpec
    from perfbench.spark_osm import SparkSpec

    tiny = scale == "tiny"
    tpch_scan = ((4, 1, 5, 2, 3, 6, 0), (5, 1, 1, 5, 1, 1))          # 25 cells
    tpch_load = ((4, 1, 5, 2, 3, 6, 0), (20, 10, 4, 5, 1, 1))        # 4000 cells
    osm = ((2, 3, 4, 5, 0, 1), (64, 64, 1, 1, 1))                    # 4096 cells
    return {
        "tpch-scan": QuerySpec("tpch", *tpch_scan, n_queries=1000 if tiny else 4000),
        # the osm types that filter the timestamp, the sort dimension
        "osm-refine": QuerySpec("osm", *osm, n_queries=1000 if tiny else 8000,
                                types=((1,), (1, 4))),
        "tpch-build": BuildSpec("tpch", *tpch_load, n_train=50 if tiny else 200,
                                n_checks=50 if tiny else 250),
        "spark-osm": SparkSpec("osm", *osm, n_queries=20 if tiny else 2000),
    }


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def stamp(args) -> dict:
    import numpy

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    from perfbench import common

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(ROOT / "src"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pandas": version("pandas"),
        "pyspark": version("pyspark"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "workload_seed": args.seed,
        "data_seed": common.DATA_SEED,
        "train_seed": args.seed + common.TRAIN_SEED_OFFSET,
        "selectivity": common.SELECTIVITY,
        "setup_repeats": common.SETUP_REPEATS,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def write_spans(path: Path, spans: dict) -> None:
    """Spans as columns: ``names`` indexes ``name_table``; times in ns."""
    import numpy as np

    table = sorted(set(spans["names"]))
    ids = {n: i for i, n in enumerate(table)}
    np.savez_compressed(
        path, name_table=np.asarray(table),
        names=np.asarray([ids[n] for n in spans["names"]], dtype=np.int16),
        **{k: np.asarray(v) for k, v in spans.items() if k != "names"})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                    help="tiny: 1/100 of the rows, for the self-test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    bench = json.loads(spec_file.read_text())
    for var in THREAD_VARS:  # one client, one thread: steadier timings
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.flood_numpy import BuildSpec, QuerySpec, run_build, run_queries
    from perfbench.spark_osm import run_spark

    spec = workloads(args.scale)[args.workload]
    traced = bool(args.trace)
    t0 = time.perf_counter()
    if isinstance(spec, QuerySpec):
        res = run_queries(spec, args.scale, args.seed, args.seconds, traced)
    elif isinstance(spec, BuildSpec):
        res = run_build(spec, args.scale, args.seed, args.seconds, traced)
    else:
        res = run_spark(spec, args.scale, args.seed, args.seconds, traced,
                        BENCH_DIR / ".work")
    wall = time.perf_counter() - t0

    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    got = res.per_layer if traced else res.end_to_end
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics, lines = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            value = float(got[name])
            lines.append(f"{name} = {value!r} {unit}")
        elif traced:  # a layer this workload does not run did no work
            value = 0.0
            lines.append(f"{name} = 0.0 {unit}  (layer not run by {args.workload})")
        else:
            raise KeyError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}

    meta = stamp(args) | res.meta
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    base = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base.with_suffix(".json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "notes": res.notes,
         "attempted": res.attempted, "failed": res.failed}, indent=1))
    if res.spans is not None:
        write_spans(base.with_suffix(".spans.npz"), res.spans)
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines + res.notes:
        print(line)
    print(f"wall_s = {wall:.3f} s  (whole run after start-up)")
    print(json.dumps({"correct": res.failed == 0 and res.attempted > 0,
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
