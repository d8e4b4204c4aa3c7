#!/usr/bin/env python3
"""Time set-up and community detection on larger road-network surrogates; no options.

Builds `generate_datasets.road_surrogate` (seed 1, m = 1.25 n) at n = 10,000,
20,000 and 50,000, writes it as edge-list text, samples N = n/10 vertices
(sample seed 0) and runs `detect_communities` with default parameters. Prints
one JSON line per graph: the set-up times `load_s` (`load_graph` on the edge
text) and `signal_s` (`synthetic_signal`), the stage times of
`Cover.stage_times`, their total, the community count, the largest
subdomain, the provenance entries of scored splits (`split_entries`),
the small cores merged (`merges`) and how many of those merges left a
disconnected core (`merges_disconnected`), the provenance's JSON size in
bytes and the sha256 of the cover JSON. Run it with each checkout's sources
first on the path and diff the digests:

    PYTHONPATH=src python3 scripts/detect_scaling.py
"""

import hashlib
import json
import time

from generate_datasets import road_surrogate

from gbfpum import DetectionParams, detect_communities, load_graph, sample_nodes, synthetic_signal

SIZES = (10_000, 20_000, 50_000)


def main() -> None:
    for n in SIZES:
        edges = road_surrogate(n=n, m_target=int(1.25 * n), seed=1)
        text = "".join(f"{u} {v}\n" for u, v in edges)
        t0 = time.perf_counter()
        g = load_graph(text)
        load_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        synthetic_signal(g)
        signal_s = time.perf_counter() - t0
        W = sample_nodes(g.n, n // 10, 0)
        t0 = time.perf_counter()
        cover = detect_communities(g, W, DetectionParams())
        total = time.perf_counter() - t0
        actions = [e["action"] for e in cover.provenance]
        line = {
            "n": n,
            "N": len(W),
            "load_s": round(load_s, 4),
            "signal_s": round(signal_s, 4),
            **{k: round(v, 4) for k, v in cover.stage_times.items()},
            "detect_s": round(total, 4),
            "communities": len(cover.communities),
            "max_subdomain": max(len(c.subdomain) for c in cover.communities),
            "split_entries": sum(a.startswith("split") for a in actions),
            "merges": sum(a.startswith("merge") for a in actions),
            "merges_disconnected": actions.count("merge_disconnected"),
            "provenance_bytes": len(json.dumps(cover.provenance, sort_keys=True, indent=2)),
            "cover_sha256": hashlib.sha256(cover.to_json().encode()).hexdigest(),
        }
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
