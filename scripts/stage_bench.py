#!/usr/bin/env python3
"""Time the pipeline and the global baseline, and digest what each run returns; write BENCH_<label>.json.

    PYTHONPATH=src python3 scripts/stage_bench.py --label <label> [--repeats R] > digest.jsonl

Cases, each a `run_pipeline` call with the graph's reference signal,
epsilon 0.01 and default detection unless named `global_gbf_baseline`:

- data/minnesota_surrogate.edges at N = 200, 400, 600, 800: s = 2 at sample
  seeds 0-4, and s = 1.5 at sample seeds 5 and 8, whose covers hold the
  road graph's largest kernel pieces (1,509 and 1,090 vertices); at
  N = 200 and 800, sample seed 0, s = 1 and 3; and `global_gbf_baseline`
  at N = 200 and 800, sample seed 0, s = 1, 2, 3 and 4, and at N = 200,
  s = 1.5 (one dense eigendecomposition of the whole graph's Laplacian);
- data/geometric_200.edges at N = 20, 40, 60, 80: s = 2 at sample seeds 0-4;
- `generate_datasets.road_surrogate(n, 1.25 n, seed 1)` at n = 10^4,
  2*10^4, 5*10^4, 10^5 and 2*10^5, written as edge-list text: one case
  each, N = n/10 at sample seed 0, s = 2.

The graphs are made one at a time, each dropped after its cases. Each case
runs R times (default 5), each run on a `Graph` freshly loaded from the
edge text, so no Katz vector memoised on a graph carries over, and with
`synthetic_signal` computed on it. Every run yields a digest of its
outputs: the sha256 of the signal, of the cover JSON and of its core and
overlap lists alone (`cores`, which a change of the provenance format
leaves as it is), of the approximant off the samples W and at W, and of
the diagnostics JSON; the `repr` of rrmse; and `w_misses`, how many sample
values the approximant misses. A baseline has no cover, so its digest has
no `cover` or `cores`. Runs are deterministic at a fixed thread count, so
the script raises unless every run of a case gives the same digest, with
`w_misses` 0 and, for a case pinned in `COVER_SHA256`, that cover; a
change that moves a pinned cover on purpose re-pins it from the file.
Every pipeline run also raises unless the partition-of-unity weights of
its cover (`build_pu`) sum to one at every vertex, within 1e-12.

stdout holds one JSON line per case, its name and digest and no timing,
so two checkouts or two runs compare with `cmp`; progress goes to stderr.
Per case the file holds the digest; the median and quartiles of every
`wall_times` key and of the set-up times `load_s` and `signal_s`; the
rrmse; for a pipeline, the community count, the largest subdomain, the
largest connected piece of any subdomain (the order of the kernel route's
largest dense eigendecomposition at fractional s), the provenance's scored
splits (`split_entries`), small cores merged (`merges`), merges that left
a disconnected core (`merges_disconnected`) and JSON bytes, and the sha256
of the cover JSON; and the process's peak resident memory after the case.
The header holds the git revision, the numpy and scipy versions, the
BLAS/OpenMP thread pin and the host's processor count. The file is written
at the repository root.
`check(path)` raises unless a file holds every case with finite medians
and a digest that misses no sample value.
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
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse import csgraph  # noqa: E402

from generate_datasets import road_surrogate  # noqa: E402
from gbfpum import (  # noqa: E402
    DetectionParams,
    KernelParams,
    build_pu,
    global_gbf_baseline,
    load_graph,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)

ROOT = Path(__file__).resolve().parent.parent
ROAD, PIPELINE, BASELINE = "minnesota_surrogate", "run_pipeline", "global_gbf_baseline"
# (graph, route, sample count, sample seed, s), each graph's cases together
CASES = [
    *((ROAD, PIPELINE, count, seed, s)
      for count in (200, 400, 600, 800) for s, seeds in ((2.0, range(5)), (1.5, (5, 8))) for seed in seeds),
    *((ROAD, PIPELINE, count, 0, s) for s in (1.0, 3.0) for count in (200, 800)),
    *((ROAD, BASELINE, count, 0, s) for s in (1.0, 2.0, 3.0, 4.0) for count in (200, 800)),
    (ROAD, BASELINE, 200, 0, 1.5),
    *(("geometric_200", PIPELINE, count, seed, 2.0) for count in (20, 40, 60, 80) for seed in range(5)),
    *((f"road_surrogate_{n}", PIPELINE, n // 10, 0, 2.0) for n in (10_000, 20_000, 50_000, 100_000, 200_000)),
]
PU_TOL = 1e-12  # the largest miss of one in a vertex's partition-of-unity weight sum
# sha256 of the cover JSON, per pinned case
COVER_SHA256 = {
    "road_surrogate_10000 N=1000 sample_seed=0 s=2": "79282aedcfb51cc74d2dca1e995b543081963fb44c9a147189919fb5a35b248a",
    "road_surrogate_20000 N=2000 sample_seed=0 s=2": "30c57f0f578078149a31038b2cf33bc6a3a2b22fcde13600c94dec697b914c19",
    "road_surrogate_50000 N=5000 sample_seed=0 s=2": "02b00af0cf37540516d6d967cc2ce55430bff85bc3f9938e82c69839936e448c",
    "road_surrogate_100000 N=10000 sample_seed=0 s=2": "f48787ec32384155b415030e1e364379f3d8d36c7502013a22981901c5493e94",
    "road_surrogate_200000 N=20000 sample_seed=0 s=2": "74ec0edec318e0eadb118886c26e33ccda9da7a6b3769c9e9406a44dd79d513a",
}


def case_name(graph: str, route: str, count: int, seed: int, s: float) -> str:
    kind = "" if route == PIPELINE else f" {route}"
    return f"{graph}{kind} N={count} sample_seed={seed} s={s:g}"


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


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_partition_of_unity(case: str, cover, n: int) -> None:
    """Raise RuntimeError, naming the case and the worst vertex, unless the weights of
    `build_pu(cover, n)` sum to one at every vertex within PU_TOL."""
    copies = np.concatenate([c.subdomain for c in cover.communities])
    total = np.bincount(copies, weights=build_pu(cover, n).weights(copies), minlength=n)
    miss = np.abs(total - 1.0)
    if miss.max() > PU_TOL:
        v = int(np.argmax(miss))
        raise RuntimeError(f"{case}: partition-of-unity weights sum to {float(total[v])!r} at vertex {v}")


def output_digest(y, W, result, cover) -> dict:
    """The run's outputs as sha256 digests, the `repr` of rrmse and the missed sample count."""
    digest = {"signal": sha(y.tobytes())}
    if cover is not None:
        pairs = [[c.core.tolist(), c.overlap.tolist()] for c in cover.communities]
        digest.update(cover=sha(cover.to_json().encode()), cores=sha(json.dumps(pairs).encode()))
    at_w = np.zeros(len(y), dtype=bool)
    at_w[W] = True
    approx = result.approximant
    diags = json.dumps([asdict(d) for d in result.per_community], sort_keys=True)
    return {
        **digest,
        "approx_off_w": sha(approx[~at_w].tobytes()),
        "approx_at_w": sha(approx[at_w].tobytes()),
        "w_misses": int(np.sum(approx[W] != y[W])),
        "rrmse": repr(result.rrmse),
        "diagnostics": sha(diags.encode()),
    }


def run_case(text: str, graph: str, route: str, count: int, seed: int, s: float, repeats: int) -> dict:
    """The case's digest and statistics over `repeats` runs, each on a freshly loaded graph.

    Raises RuntimeError when a run's partition-of-unity weights miss one
    (`check_partition_of_unity`), when the runs' digests differ, when the
    approximant misses a sample value, or when the cover's sha256 is not the
    case's pin in `COVER_SHA256`.
    """
    case = case_name(graph, route, count, seed, s)
    times, digests = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        g = load_graph(text)
        t1 = time.perf_counter()
        y = synthetic_signal(g)
        setup = {"load_s": t1 - t0, "signal_s": time.perf_counter() - t1}
        W = sample_nodes(g.n, count, seed)
        if route == PIPELINE:
            result, cover = run_pipeline(g, y, W, DetectionParams(), KernelParams(s=s))
            check_partition_of_unity(case, cover, g.n)
        else:
            result, cover = global_gbf_baseline(g, y, W, KernelParams(s=s)), None
        times.append({**result.wall_times, **setup})
        digests.append(output_digest(y, W, result, cover))
    digest = digests[0]
    differ = [key for key in digest if any(d[key] != digest[key] for d in digests)]
    if differ:
        raise RuntimeError(f"{case}: {repeats} runs differ in {', '.join(differ)}")
    if digest["w_misses"]:
        raise RuntimeError(f"{case}: the approximant misses {digest['w_misses']} sample values")
    pin = COVER_SHA256.get(case, digest.get("cover"))
    if digest.get("cover") != pin:
        raise RuntimeError(f"{case}: cover sha256 {digest['cover']} is not the pinned {pin}")
    wall = {}
    for key in times[0]:
        q1, median, q3 = np.percentile([t[key] for t in times], [25, 50, 75])
        wall[key] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    stats = {}
    if cover is not None:
        actions = [e["action"] for e in cover.provenance]
        stats = {
            "communities": len(cover.communities),
            "max_subdomain": max(len(c.subdomain) for c in cover.communities),
            "max_piece": largest_piece(g, cover),
            "split_entries": sum(a.startswith("split") for a in actions),
            "merges": sum(a.startswith("merge") for a in actions),
            "merges_disconnected": actions.count("merge_disconnected"),
            "provenance_bytes": len(json.dumps(cover.provenance, sort_keys=True, indent=2)),
            "cover_sha256": digest["cover"],
        }
    return {
        "rrmse": result.rrmse,
        **stats,
        "wall_times": wall,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "digest": digest,
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
    """Raise unless the file at `path` holds every case, in order, with finite medians and a
    digest that misses no sample value."""
    with open(path) as fh:
        cases = json.load(fh)["cases"]
    names = [c["case"] for c in cases]
    expect = [case_name(*c) for c in CASES]
    if names != expect:
        differ = sorted(set(names) ^ set(expect))
        raise ValueError(f"{path}: cases differ from the script's (in order or in {differ})")
    for c in cases:
        if "digest" not in c:
            raise ValueError(f"{path}: {c['case']} has no digest")
        if c["digest"]["w_misses"]:
            raise ValueError(f"{path}: {c['case']} misses {c['digest']['w_misses']} sample values")
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
        for case in group:
            stats = run_case(text, *case, args.repeats)
            name = case_name(*case)
            cases.append({"case": name, **stats})
            print(json.dumps({"case": name, **stats["digest"]}), flush=True)
            total = stats["wall_times"]["total_s"]["median"]
            piece = f", max piece {stats['max_piece']}" if "max_piece" in stats else ""
            print(f"{name}: total_s {total:.4f}{piece}", file=sys.stderr, flush=True)

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
    print(f"wrote {out.name}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
