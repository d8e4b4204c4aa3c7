#!/usr/bin/env python3
"""Time the pipeline and each of its stages on both committed graphs; write BENCH_<label>.json.

    PYTHONPATH=src python3 scripts/stage_bench.py --label <label> [--repeats R]

Cases, each a `run_pipeline` call with the graph's reference signal,
epsilon 0.01 and default detection:

- data/minnesota_surrogate.edges at N = 200, 400, 600, 800: s = 2 at sample
  seeds 0-4, and s = 1.5 at sample seeds 5 and 8, whose covers hold the
  road graph's largest kernel pieces (1,509 and 1,090 vertices);
- data/geometric_200.edges at N = 20, 40, 60, 80: s = 2 at sample seeds 0-4.

Each case runs R times (default 5), each on a `Graph` freshly loaded from
the edge text, so no Katz vector memoised on a graph carries over. Per case
the file holds the median and quartiles of every `wall_times` key over the
runs, the community count, the largest subdomain, the largest connected
piece of any subdomain (the order of the kernel route's largest dense
eigendecomposition at fractional s) and the rrmse. Every run of a case must
give the same rrmse, or the script raises: runs are deterministic at a
fixed thread count. The header holds the git revision, the numpy and scipy
versions, the BLAS/OpenMP thread pin, the host's processor count and the
process's peak resident memory. The file is written at the repository root.
`check(path)` raises unless a file holds every case with finite medians.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads, as bench/run.py does:
# runs repeat bit for bit only at a fixed thread count.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse import csgraph  # noqa: E402

from gbfpum import (  # noqa: E402
    DetectionParams,
    KernelParams,
    load_graph,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)

ROOT = Path(__file__).resolve().parent.parent
# (graph file, sample counts, (s, sample seeds) rows)
GRAPHS = [
    ("minnesota_surrogate", (200, 400, 600, 800), [(2.0, range(5)), (1.5, (5, 8))]),
    ("geometric_200", (20, 40, 60, 80), [(2.0, range(5))]),
]
CASES = [
    (name, count, seed, s)
    for name, counts, rows in GRAPHS
    for count in counts
    for s, seeds in rows
    for seed in seeds
]


def case_name(graph: str, count: int, seed: int, s: float) -> str:
    return f"{graph} N={count} sample_seed={seed} s={s:g}"


def largest_piece(g, cover) -> int:
    """Vertices in the largest connected piece of any subdomain."""
    union = g.disjoint_union([c.subdomain for c in cover.communities])
    _, label = csgraph.connected_components(union.adjacency(), directed=False)
    return int(np.bincount(label).max())


def run_case(text: str, y: np.ndarray, count: int, seed: int, s: float, repeats: int) -> dict:
    """The case's statistics over `repeats` runs, each on a freshly loaded graph."""
    times, scores = [], set()
    for _ in range(repeats):
        g = load_graph(text)
        W = sample_nodes(g.n, count, seed)
        result, cover = run_pipeline(g, y, W, DetectionParams(), KernelParams(s=s))
        times.append(result.wall_times)
        scores.add(result.rrmse)
    if len(scores) != 1:
        raise RuntimeError(f"the {repeats} runs gave {len(scores)} different rrmse values")
    wall = {}
    for key in times[0]:
        q1, median, q3 = np.percentile([t[key] for t in times], [25, 50, 75])
        wall[key] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    return {
        "communities": len(cover.communities),
        "max_subdomain": max(len(c.subdomain) for c in cover.communities),
        "max_piece": largest_piece(g, cover),
        "rrmse": scores.pop(),
        "wall_times": wall,
    }


def git_rev() -> str:
    """The checkout's commit, with -dirty when its tracked files differ from it."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def check(path) -> None:
    """Raise unless the file at `path` holds every case, in order, with finite medians."""
    with open(path) as fh:
        cases = json.load(fh)["cases"]
    names = [c["case"] for c in cases]
    expect = [case_name(*c) for c in CASES]
    if names != expect:
        differ = sorted(set(names) ^ set(expect))
        raise ValueError(f"{path}: cases differ from the script's (in order or in {differ})")
    for c in cases:
        for key, stats in c["wall_times"].items():
            if not math.isfinite(stats["median"]):
                raise ValueError(f"{path}: {c['case']} {key} median is {stats['median']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=5, help="runs per case (default 5)")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error(f"label must be letters, digits, '_', '.' or '-', got {args.label!r}")
    if args.repeats < 1:
        parser.error(f"repeats must be at least 1, got {args.repeats}")

    t0 = time.perf_counter()
    texts, signals = {}, {}
    for name, _, _ in GRAPHS:
        texts[name] = (ROOT / "data" / f"{name}.edges").read_text()
        signals[name] = synthetic_signal(load_graph(texts[name]))
    cases = []
    for name, count, seed, s in CASES:
        stats = run_case(texts[name], signals[name], count, seed, s, args.repeats)
        case = case_name(name, count, seed, s)
        cases.append({"case": case, **stats})
        total = stats["wall_times"]["total_s"]["median"]
        print(f"{case}: total_s {total:.4f}, max piece {stats['max_piece']}", flush=True)

    header = {
        "label": args.label,
        "git_rev": git_rev(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "threads": THREADS,
        "repeats": args.repeats,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "wall_s": round(time.perf_counter() - t0, 2),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    # the header one key per line, then one line per case
    head = json.dumps(header, indent=1)[: -len("\n}")]
    rows = ",\n".join(f"  {json.dumps(c)}" for c in cases)
    out.write_text(f'{head},\n "cases": [\n{rows}\n ]\n}}\n')
    print(f"wrote {out.name}", flush=True)


if __name__ == "__main__":
    main()
