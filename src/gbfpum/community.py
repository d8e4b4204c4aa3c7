"""Divisive overlapping community detection driven by sample-node centrality.

Communities are split at the two most central interpolation nodes while the
split keeps raising global modularity, small cores are merged into the most
Jaccard-similar big one, and each core grows an overlap ring sized by the
fraction of its vertices' neighbors that stay inside the core.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .graph import Graph, as_vertex_set
from .metrics import (
    KatzParams,
    default_alpha,
    jaccard_communities,
    katz_centrality,
    modularity,
)

FORMAT_VERSION = 1


@dataclass
class Community:
    """One subdomain: a disjoint core plus the overlap ring added later."""

    core: np.ndarray
    overlap: np.ndarray
    interpolation_nodes: np.ndarray

    @property
    def subdomain(self) -> np.ndarray:
        return np.union1d(self.core, self.overlap)


@dataclass
class Cover:
    communities: list[Community]
    provenance: list[dict] = field(default_factory=list)

    def membership(self, n: int) -> np.ndarray:
        """Core assignment per vertex; cores must partition 0..n-1."""
        return core_membership(n, [c.core for c in self.communities])

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "communities": [
                {
                    "id": cid,
                    "core": c.core.tolist(),
                    "overlap": c.overlap.tolist(),
                }
                for cid, c in enumerate(self.communities)
            ],
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict, n: int, W: np.ndarray) -> "Cover":
        comms = []
        for entry in sorted(doc["communities"], key=lambda e: e["id"]):
            core = as_vertex_set(entry["core"], n)
            overlap = as_vertex_set(entry["overlap"], n)
            sub = np.union1d(core, overlap)
            comms.append(
                Community(
                    core=core,
                    overlap=overlap,
                    interpolation_nodes=np.intersect1d(sub, W),
                )
            )
        return cls(communities=comms, provenance=list(doc.get("provenance", [])))


@dataclass(frozen=True)
class DetectionParams:
    small_fraction: float = 0.02
    katz: KatzParams | None = None  # None -> default alpha
    t_low: float = 0.4
    t_high: float = 0.8

    def __post_init__(self):
        if not 0 < self.small_fraction < 1:
            raise ValueError("small_fraction must lie in (0, 1)")
        if not 0 < self.t_low < self.t_high <= 1:
            raise ValueError("need 0 < t_low < t_high <= 1")


def split_community(
    g: Graph, core: np.ndarray, W: np.ndarray, katz: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Bipartition a sorted core at its two most central sample nodes.

    Seeds are the top two Katz-ranked members of W inside the core (ties to
    the lower vertex id); every core vertex joins the seed it reaches in
    fewer hops within the induced core subgraph. The first seed takes ties
    and the vertices neither seed reaches. Returns None when the core holds
    fewer than two sample nodes.
    """
    w_in = np.intersect1d(core, W)
    if len(w_in) < 2:
        return None
    seeds = sorted(w_in.tolist(), key=lambda v: (-katz[v], v))[:2]
    sub = g.adjacency()[core][:, core]
    d1, d2 = csgraph.shortest_path(
        sub, unweighted=True, indices=np.searchsorted(core, seeds)
    )
    to_second = d2 < d1
    return core[~to_second], core[to_second]


def core_membership(n: int, cores: list[np.ndarray]) -> np.ndarray:
    """Core id per vertex; the cores must cover every vertex 0..n-1."""
    member = -np.ones(n, dtype=np.int64)
    for cid, core in enumerate(cores):
        member[core] = cid
    if (member < 0).any():
        raise ValueError("cores do not cover every vertex")
    return member


def _split_phase(
    g: Graph, W: np.ndarray, katz: np.ndarray, provenance: list[dict]
) -> list[np.ndarray]:
    """Greedy divisive loop: accept each split that raises global modularity."""
    cores: list[np.ndarray] = [np.arange(g.n, dtype=np.int64)]
    q_run = modularity(g, core_membership(g.n, cores))
    q_prev, q_curr = -1.0, -0.5
    while len(cores) <= len(W) and q_curr > q_prev:
        q_pass_start = q_run
        for cid in range(len(cores)):
            if len(cores) + 1 > len(W):
                break
            parts = split_community(g, cores[cid], W, katz)
            if parts is None:
                continue
            side1, side2 = parts
            candidate = cores[:cid] + [side1] + cores[cid + 1 :] + [side2]
            q_cand = modularity(g, core_membership(g.n, candidate))
            if q_cand > q_run:
                cores = candidate
                provenance.append(
                    {"action": "split", "q_before": q_run, "q_after": q_cand}
                )
                q_run = q_cand
            else:
                provenance.append(
                    {"action": "split_rejected", "q_before": q_run, "q_after": q_cand}
                )
        q_prev, q_curr = q_pass_start, q_run
    return cores


def merge_small(
    g: Graph,
    cores: list[np.ndarray],
    p: DetectionParams,
    provenance: list[dict],
) -> list[np.ndarray]:
    """Fold cores smaller than ceil(small_fraction*n) into the most similar big one.

    Without any big community, small cores merge among themselves largest-first
    until every survivor is big or one core remains. Ties on Jaccard similarity
    go to the lowest community id. Merged cores may be disconnected; that is
    logged, not rejected.
    """
    threshold = int(np.ceil(p.small_fraction * g.n))
    cores = [c.copy() for c in cores]

    def is_small(c):
        return len(c) < threshold

    if any(not is_small(c) for c in cores):
        small_ids = [i for i, c in enumerate(cores) if is_small(c)]
        big_ids = [i for i, c in enumerate(cores) if not is_small(c)]
        bigs = {i: cores[i] for i in big_ids}
        for sid in small_ids:
            best, best_j = None, -1.0
            for bid in big_ids:
                jv = jaccard_communities(g, cores[sid], bigs[bid])
                if jv > best_j:
                    best, best_j = bid, jv
            bigs[best] = np.union1d(bigs[best], cores[sid])
            _log_merge(g, provenance, bigs[best])
        return [bigs[i] for i in big_ids]

    # no big community exists: merge smalls pairwise, largest first
    while len(cores) > 1 and any(is_small(c) for c in cores):
        sizes = [(-len(c), i) for i, c in enumerate(cores)]
        sizes.sort()
        src = sizes[0][1]
        best, best_j = None, -1.0
        for j, c in enumerate(cores):
            if j == src:
                continue
            jv = jaccard_communities(g, cores[src], c)
            if jv > best_j:
                best, best_j = j, jv
        lo, hi = min(src, best), max(src, best)
        union = np.union1d(cores[lo], cores[hi])
        _log_merge(g, provenance, union)
        cores = [c for i, c in enumerate(cores) if i not in (lo, hi)]
        cores.insert(lo, union)
    return cores


def _log_merge(g: Graph, provenance: list[dict], result: np.ndarray) -> None:
    connected = g.induced_subgraph(result)[0].is_connected()
    action = "merge" if connected else "merge_disconnected"
    provenance.append({"action": action, "q_before": None, "q_after": None})


def expand_overlap(
    g: Graph, cores: list[np.ndarray], p: DetectionParams
) -> list[np.ndarray]:
    """Overlap ring per core from the internal-neighbor ratio r(v).

    r(v) <= t_low pulls in v's 2-hop neighborhood, t_low < r(v) <= t_high the
    1-hop one; boundary-free vertices add nothing. Cores are untouched, so a
    second application is a no-op.
    """
    A = g.adjacency()
    deg = g.degrees()
    overlaps = []
    for core in cores:
        in_core = np.zeros(g.n)
        in_core[core] = 1.0
        r = (A[core] @ in_core) / np.maximum(deg[core], 1)
        has_nb = deg[core] > 0
        far = core[has_nb & (r <= p.t_low)]
        near = core[has_nb & (p.t_low < r) & (r <= p.t_high)]
        ring1 = A[np.union1d(far, near)].indices
        ring2 = A[np.unique(A[far].indices)].indices
        extra = np.setdiff1d(np.union1d(ring1, ring2), core)
        overlaps.append(extra.astype(np.int64))
    return overlaps


def detect_communities(g: Graph, W: np.ndarray, p: DetectionParams) -> Cover:
    """Full detection pipeline: split while modularity rises, merge, expand."""
    W = as_vertex_set(W, g.n)
    if len(W) == 0:
        raise ValueError("need at least one interpolation node")
    katz_params = p.katz or KatzParams(alpha=default_alpha(g))
    katz = katz_centrality(g, katz_params)

    provenance: list[dict] = [
        {
            "action": "katz",
            "q_before": None,
            "q_after": None,
            "alpha": katz_params.alpha,
            "mode": "closed-form",
        }
    ]
    cores = _split_phase(g, W, katz, provenance)
    cores = merge_small(g, cores, p, provenance)
    q_final = modularity(g, core_membership(g.n, cores))
    overlaps = expand_overlap(g, cores, p)
    provenance.append({"action": "expand", "q_before": q_final, "q_after": q_final})

    communities = []
    for core, overlap in zip(cores, overlaps):
        sub = np.union1d(core, overlap)
        communities.append(
            Community(
                core=core,
                overlap=overlap,
                interpolation_nodes=np.intersect1d(sub, W),
            )
        )
    return Cover(communities=communities, provenance=provenance)
