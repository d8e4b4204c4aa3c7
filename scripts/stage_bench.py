#!/usr/bin/env python3
"""Time the pipeline and each of its stages on the committed graphs and on road surrogates; write BENCH_<label>.json.

    PYTHONPATH=src python3 scripts/stage_bench.py --label <label> [--repeats R]

Cases, each a `run_pipeline` call with the graph's reference signal,
epsilon 0.01 and default detection:

- data/minnesota_surrogate.edges at N = 200, 400, 600, 800: s = 2 at sample
  seeds 0-4, and s = 1.5 at sample seeds 5 and 8, whose covers hold the
  road graph's largest kernel pieces (1,509 and 1,090 vertices);
- data/geometric_200.edges at N = 20, 40, 60, 80: s = 2 at sample seeds 0-4;
- `generate_datasets.road_surrogate(n, 1.25 n, seed 1)` at n = 10^4,
  2*10^4, 5*10^4, 10^5 and 2*10^5, written as edge-list text: one case
  each, N = n/10 at sample seed 0, s = 2.

The graphs are made one at a time, each dropped after its cases. Each case
runs R times (default 5), each run on a `Graph` freshly loaded from the
edge text, so no Katz vector memoised on a graph carries over, and with
`synthetic_signal` computed on it. Per case the file holds the median and
quartiles of every `wall_times` key and of the set-up times `load_s` and
`signal_s`; the community count, the largest subdomain, the largest
connected piece of any subdomain (the order of the kernel route's largest
dense eigendecomposition at fractional s) and the rrmse; the provenance's
scored splits (`split_entries`), small cores merged (`merges`), merges that
left a disconnected core (`merges_disconnected`) and JSON bytes; the sha256
of the cover JSON; and the process's peak resident memory after the case.
Runs are deterministic at a fixed thread count, so the script raises unless
every run of a case gives the same rrmse and cover, and a case pinned in
`COVER_SHA256` that cover; a change that moves a pinned cover on purpose
re-pins it from the file. The header holds the git revision, the numpy and
scipy versions, the BLAS/OpenMP thread pin and the host's processor count.
The file is written at the repository root.
`check(path)` raises unless a file holds every case with finite medians.
"""

import os

# Run as a script, pin BLAS/OpenMP to one thread before numpy loads, as
# bench/run.py does: runs repeat bit for bit only at a fixed thread count.
# Imported (for `check`), it leaves the importer's environment alone.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
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

from generate_datasets import road_surrogate  # noqa: E402
from gbfpum import (  # noqa: E402
    DetectionParams,
    KernelParams,
    load_graph,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)

ROOT = Path(__file__).resolve().parent.parent
# (graph, sample counts, (s, sample seeds) rows)
GRAPHS = [
    ("minnesota_surrogate", (200, 400, 600, 800), [(2.0, range(5)), (1.5, (5, 8))]),
    ("geometric_200", (20, 40, 60, 80), [(2.0, range(5))]),
    *((f"road_surrogate_{n}", (n // 10,), [(2.0, (0,))]) for n in (10_000, 20_000, 50_000, 100_000, 200_000)),
]
CASES = [
    (name, count, seed, s)
    for name, counts, rows in GRAPHS
    for count in counts
    for s, seeds in rows
    for seed in seeds
]
# sha256 of the cover JSON, per pinned case
COVER_SHA256 = {
    "road_surrogate_10000 N=1000 sample_seed=0 s=2": "79282aedcfb51cc74d2dca1e995b543081963fb44c9a147189919fb5a35b248a",
    "road_surrogate_20000 N=2000 sample_seed=0 s=2": "30c57f0f578078149a31038b2cf33bc6a3a2b22fcde13600c94dec697b914c19",
    "road_surrogate_50000 N=5000 sample_seed=0 s=2": "02b00af0cf37540516d6d967cc2ce55430bff85bc3f9938e82c69839936e448c",
    "road_surrogate_100000 N=10000 sample_seed=0 s=2": "f48787ec32384155b415030e1e364379f3d8d36c7502013a22981901c5493e94",
    "road_surrogate_200000 N=20000 sample_seed=0 s=2": "74ec0edec318e0eadb118886c26e33ccda9da7a6b3769c9e9406a44dd79d513a",
}


def case_name(graph: str, count: int, seed: int, s: float) -> str:
    return f"{graph} N={count} sample_seed={seed} s={s:g}"


def graph_text(name: str) -> str:
    """The graph's edge-list text: road_surrogate_<n> generated, any other read from data/."""
    kind, _, order = name.rpartition("_")
    if kind == "road_surrogate":
        n = int(order)
        edges = road_surrogate(n=n, m_target=int(1.25 * n), seed=1)
        return "".join(f"{u} {v}\n" for u, v in edges)
    return (ROOT / "data" / f"{name}.edges").read_text()


def largest_piece(g, cover) -> int:
    """Vertices in the largest connected piece of any subdomain."""
    union = g.disjoint_union([c.subdomain for c in cover.communities])
    _, label = csgraph.connected_components(union.adjacency(), directed=False)
    return int(np.bincount(label).max())


def run_case(text: str, graph: str, count: int, seed: int, s: float, repeats: int) -> dict:
    """The case's statistics over `repeats` runs, each on a freshly loaded graph.

    Raises RuntimeError when the runs differ in rrmse or cover, or when
    their cover's sha256 is not the case's pin in `COVER_SHA256`.
    """
    case = case_name(graph, count, seed, s)
    times, scores, digests = [], set(), set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        g = load_graph(text)
        t1 = time.perf_counter()
        y = synthetic_signal(g)
        setup = {"load_s": t1 - t0, "signal_s": time.perf_counter() - t1}
        W = sample_nodes(g.n, count, seed)
        result, cover = run_pipeline(g, y, W, DetectionParams(), KernelParams(s=s))
        times.append({**result.wall_times, **setup})
        scores.add(result.rrmse)
        digests.add(hashlib.sha256(cover.to_json().encode()).hexdigest())
    if len(scores) != 1 or len(digests) != 1:
        raise RuntimeError(f"{case}: {len(scores)} rrmse values and {len(digests)} covers in {repeats} runs")
    digest = digests.pop()
    pin = COVER_SHA256.get(case, digest)
    if digest != pin:
        raise RuntimeError(f"{case}: cover sha256 {digest} is not the pinned {pin}")
    wall = {}
    for key in times[0]:
        q1, median, q3 = np.percentile([t[key] for t in times], [25, 50, 75])
        wall[key] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    actions = [e["action"] for e in cover.provenance]
    return {
        "communities": len(cover.communities),
        "max_subdomain": max(len(c.subdomain) for c in cover.communities),
        "max_piece": largest_piece(g, cover),
        "rrmse": scores.pop(),
        "split_entries": sum(a.startswith("split") for a in actions),
        "merges": sum(a.startswith("merge") for a in actions),
        "merges_disconnected": actions.count("merge_disconnected"),
        "provenance_bytes": len(json.dumps(cover.provenance, sort_keys=True, indent=2)),
        "cover_sha256": digest,
        "wall_times": wall,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
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
    cases = []
    for graph, group in itertools.groupby(CASES, key=lambda c: c[0]):
        text = graph_text(graph)  # one graph at a time: this drops the last one's text
        for _, count, seed, s in group:
            stats = run_case(text, graph, count, seed, s, args.repeats)
            case = case_name(graph, count, seed, s)
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
