#!/usr/bin/env python3
"""Regenerate the edge-list datasets committed under data/.

Both graphs are fully determined by the seeds below; the committed files are
the canonical copies and this script only exists to document how they were
produced.

- geometric_200.edges: random geometric graph, 200 points in the unit square,
  connection radius 0.13, seeded; retried until connected.
- minnesota_surrogate.edges: stand-in for the Minnesota road network (2642
  vertices, 3304 edges). Seeded points in a 2:3 rectangle, Delaunay
  triangulation, then a minimum spanning tree plus the shortest remaining
  Delaunay edges up to the target edge count. Connected and planar, with the
  low average degree (~2.5) of a road network.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import Delaunay

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def write_edges(path: Path, edges, header: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for u, v in sorted(edges):
            fh.write(f"{u} {v}\n")
    print(f"wrote {path} ({len(edges)} edges)")


def geometric(n=200, radius=0.13, seed=7):
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        pts = rng.random((n, 2))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        iu, ju = np.triu_indices(n, k=1)
        mask = d2[iu, ju] <= radius**2
        edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
        rows = [e[0] for e in edges]
        cols = [e[1] for e in edges]
        adj = coo_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp == 1:
            return edges, attempt
    sys.exit("no connected geometric graph found")


def road_surrogate(n=2642, m_target=3304, seed=42):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * np.array([2.0, 3.0])
    simplices = Delaunay(pts).simplices.astype(np.int64)
    sides = np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]])
    edges = np.unique(np.sort(sides, axis=1), axis=0)  # (lo, hi) pairs in lexicographic order
    lengths = np.linalg.norm(pts[edges[:, 0]] - pts[edges[:, 1]], axis=1)

    adj = coo_matrix((lengths, (edges[:, 0], edges[:, 1])), shape=(n, n))
    mst = minimum_spanning_tree(adj).tocoo()
    lo, hi = np.minimum(mst.row, mst.col), np.maximum(mst.row, mst.col)
    in_mst = np.isin(edges[:, 0] * n + edges[:, 1], lo.astype(np.int64) * n + hi)
    # the shortest edges off the tree, in stable length order, up to the target count
    order = np.argsort(lengths, kind="stable")
    extra = order[~in_mst[order]][: max(m_target - int(in_mst.sum()), 0)]
    keep = np.sort(np.concatenate([np.flatnonzero(in_mst), extra]))
    return list(zip(edges[keep, 0].tolist(), edges[keep, 1].tolist()))


def main():
    DATA_DIR.mkdir(exist_ok=True)
    edges, attempt = geometric()
    write_edges(
        DATA_DIR / "geometric_200.edges",
        edges,
        f"random geometric graph, n=200, radius=0.13, seed=7, attempt={attempt}",
    )
    edges = road_surrogate()
    write_edges(
        DATA_DIR / "minnesota_surrogate.edges",
        edges,
        "road-network surrogate, n=2642, m=3304, seed=42 (see scripts/generate_datasets.py)",
    )


if __name__ == "__main__":
    main()
