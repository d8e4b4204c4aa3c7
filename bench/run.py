#!/usr/bin/env python3
"""GBF-PUM benchmark: time workloads through the public API, check every output.

    python3 bench/run.py --workload minnesota_sweep --seed 0 --seconds 8 --trace 0

`--workload all` (the default) runs both workloads one after another in
this process. Per workload it prints each metric with its unit; the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics untraced, per-layer metrics traced). A
detailed report per run goes to bench/out/.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads. On two cores the default
# two OpenBLAS threads make the per-community kernel slower and much noisier.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# order of a combined run; peak_rss_mb there is the process high-water mark so far
WORKLOADS = ("minnesota_sweep", "global_solve")
NEEDED = ("BENCHMARK.json", "src/gbfpum/__init__.py", "data/minnesota_surrogate.edges", "data/geometric_200.edges")


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, read from the libraries themselves."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import harness
    import workloads

    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        result, report = harness.run_workload(workload, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(result["metrics"]):
        raise RuntimeError("metrics differ from the names in BENCHMARK.json")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    report.update(seed=seed, seconds=seconds, trace=trace, thread_pin=THREAD_PIN,
                  blas_threads=blas_threads(), result=result)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    print(f"{name} seed={seed} trace={int(trace)} blas_threads={report['blas_threads']}")
    for k, m in result["metrics"].items():
        print(f"  {k:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for p in report["problems"]:
        print(f"  PROBLEM {p}")
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    missing = [f for f in NEEDED if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a gbfpum checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
