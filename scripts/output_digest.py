#!/usr/bin/env python3
"""Print one JSON line of output digests per road-graph case, to compare two checkouts.

Run with the checkout's sources first on the path and diff the outputs:

    PYTHONPATH=src python3 scripts/output_digest.py > digest.jsonl

Cases, all on data/minnesota_surrogate.edges with the reference signal and
epsilon 0.01:

- the reference signal `synthetic_signal(g)` itself, whose line holds only
  the sha256 of its bytes, so a change to it shows on its own line;
- 28 `run_pipeline` calls at N = 200, 400, 600, 800: the benchmark sweep's 24
  (sample seeds 0-4 at s = 2, sample seed 5 at s = 1.5), plus sample seed 0 at
  s = 1 and s = 3 for N = 200 and 800;
- `global_gbf_baseline` at N = 200 and 800, sample seed 0, s = 2, then the
  same two sample sets at s = 1, 3 and 4, so the odd-s and s > 2 solves of
  the kernel route show too, and the N = 200 set at s = 1.5, the fractional
  route (one dense eigendecomposition of the whole graph's Laplacian).

Each other line holds the sha256 of the cover JSON, of its core and overlap lists
alone (`cores`, which a change of the provenance format leaves as it is), of
the approximant's bytes off the samples W and at W, and of the diagnostics
JSON; the `repr` of rrmse; and how many sample values the approximant misses.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads, as bench/run.py does:
# runs repeat bit for bit only at a fixed thread count.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import hashlib  # noqa: E402
import json  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gbfpum import (  # noqa: E402
    DetectionParams,
    KernelParams,
    global_gbf_baseline,
    load_graph,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)

GRAPH = Path(__file__).resolve().parent.parent / "data" / "minnesota_surrogate.edges"
COUNTS = (200, 400, 600, 800)
PIPELINES = (
    [(count, seed, 2.0) for seed in range(5) for count in COUNTS]
    + [(count, 5, 1.5) for count in COUNTS]
    + [(count, 0, s) for s in (1.0, 3.0) for count in (200, 800)]
)
GLOBAL_COUNTS = (200, 800)
GLOBAL_CASES = [(count, s) for s in (1.0, 3.0, 4.0) for count in GLOBAL_COUNTS] + [(200, 1.5)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(case: str, y, W, result, cover) -> dict:
    at_w = np.zeros(len(y), dtype=bool)
    at_w[W] = True
    approx = result.approximant
    diags = json.dumps([asdict(d) for d in result.per_community], sort_keys=True)
    cover_sha = cores_sha = None
    if cover is not None:
        pairs = [[c.core.tolist(), c.overlap.tolist()] for c in cover.communities]
        cover_sha, cores_sha = sha(cover.to_json().encode()), sha(json.dumps(pairs).encode())
    return {
        "case": case,
        "cover": cover_sha,
        "cores": cores_sha,
        "approx_off_w": sha(approx[~at_w].tobytes()),
        "approx_at_w": sha(approx[at_w].tobytes()),
        "w_misses": int(np.sum(approx[W] != y[W])),
        "rrmse": repr(result.rrmse),
        "diagnostics": sha(diags.encode()),
    }


def main() -> None:
    with open(GRAPH) as fh:
        g = load_graph(fh)
    y = synthetic_signal(g)
    print(json.dumps({"case": "synthetic_signal", "signal": sha(y.tobytes())}), flush=True)
    for count, seed, s in PIPELINES:
        W = sample_nodes(g.n, count, seed)
        result, cover = run_pipeline(g, y, W, DetectionParams(), KernelParams(s=s))
        case = f"run_pipeline N={count} sample_seed={seed} s={s:g}"
        print(json.dumps(digest(case, y, W, result, cover)), flush=True)
    for count in GLOBAL_COUNTS:
        W = sample_nodes(g.n, count, 0)
        result = global_gbf_baseline(g, y, W, KernelParams())
        print(json.dumps(digest(f"global_gbf_baseline N={count}", y, W, result, None)), flush=True)
    for count, s in GLOBAL_CASES:
        W = sample_nodes(g.n, count, 0)
        result = global_gbf_baseline(g, y, W, KernelParams(s=s))
        case = f"global_gbf_baseline N={count} s={s:g}"
        print(json.dumps(digest(case, y, W, result, None)), flush=True)


if __name__ == "__main__":
    main()
