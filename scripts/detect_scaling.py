#!/usr/bin/env python3
"""Time set-up and community detection on larger road-network surrogates; no options.

Builds `generate_datasets.road_surrogate` (seed 1, m = 1.25 n) at n = 10,000,
20,000 and 50,000, writes it as edge-list text, samples N = n/10 vertices
(sample seed 0) and runs `detect_communities` with default parameters. Each
size runs REPEATS times from a fresh `load_graph`, so no run reuses the
Katz vector memoised on the graph. Prints one JSON line per graph: the
set-up times `load_s` (`load_graph` on the edge text) and `signal_s`
(`synthetic_signal`), the stage times of `Cover.stage_times` and their
total `detect_s`, each as the median of the runs with a `<name>_range`
[min, max] beside it, since a shared host spreads them; then the community
count, the largest subdomain, the provenance entries of scored splits
(`split_entries`), the small cores merged (`merges`) and how many of those
merges left a disconnected core (`merges_disconnected`), the provenance's
JSON size in bytes and the sha256 of the cover JSON. Every run must repeat
that digest, and it must equal the pinned `COVER_SHA256` of its size; either
mismatch raises, so a change to any cover at scale fails the script. A change
that moves a cover on purpose re-pins the digest it prints. Run it with the
sources first on the path:

    PYTHONPATH=src python3 scripts/detect_scaling.py
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads, as bench/run.py does:
# runs repeat bit for bit only at a fixed thread count.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from generate_datasets import road_surrogate  # noqa: E402

from gbfpum import (  # noqa: E402
    Cover,
    DetectionParams,
    detect_communities,
    load_graph,
    sample_nodes,
    synthetic_signal,
)

REPEATS = 3
# sha256 of the default cover's JSON per graph order n
COVER_SHA256 = {
    10_000: "79282aedcfb51cc74d2dca1e995b543081963fb44c9a147189919fb5a35b248a",
    20_000: "30c57f0f578078149a31038b2cf33bc6a3a2b22fcde13600c94dec697b914c19",
    50_000: "02b00af0cf37540516d6d967cc2ce55430bff85bc3f9938e82c69839936e448c",
}


def timed_run(text: str, N: int) -> tuple[dict[str, float], Cover]:
    """One load, signal and detection run: (its times, its cover)."""
    t0 = time.perf_counter()
    g = load_graph(text)
    times = {"load_s": time.perf_counter() - t0}
    t0 = time.perf_counter()
    synthetic_signal(g)
    times["signal_s"] = time.perf_counter() - t0
    W = sample_nodes(g.n, N, 0)
    t0 = time.perf_counter()
    cover = detect_communities(g, W, DetectionParams())
    total = time.perf_counter() - t0
    return {**times, **cover.stage_times, "detect_s": total}, cover


def main() -> None:
    for n, pinned in COVER_SHA256.items():
        edges = road_surrogate(n=n, m_target=int(1.25 * n), seed=1)
        text = "".join(f"{u} {v}\n" for u, v in edges)
        runs = [timed_run(text, n // 10) for _ in range(REPEATS)]
        digests = {hashlib.sha256(cover.to_json().encode()).hexdigest() for _, cover in runs}
        if len(digests) != 1:
            raise RuntimeError(f"n = {n}: the {REPEATS} runs gave {len(digests)} different covers")
        if digests != {pinned}:
            raise RuntimeError(f"n = {n}: cover sha256 {digests.pop()} is not the pinned {pinned}")
        cover = runs[0][1]
        line = {"n": n, "N": n // 10, "repeats": REPEATS}
        for key in runs[0][0]:
            values = [times[key] for times, _ in runs]
            line[key] = round(statistics.median(values), 4)
            line[f"{key}_range"] = [round(min(values), 4), round(max(values), 4)]
        actions = [e["action"] for e in cover.provenance]
        line.update(
            communities=len(cover.communities),
            max_subdomain=max(len(c.subdomain) for c in cover.communities),
            split_entries=sum(a.startswith("split") for a in actions),
            merges=sum(a.startswith("merge") for a in actions),
            merges_disconnected=actions.count("merge_disconnected"),
            provenance_bytes=len(json.dumps(cover.provenance, sort_keys=True, indent=2)),
            cover_sha256=digests.pop(),
        )
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
