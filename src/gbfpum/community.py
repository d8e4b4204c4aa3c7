"""Divisive overlapping community detection driven by sample-node centrality.

Communities are split at the two most central interpolation nodes while the
split keeps raising global modularity, small cores are merged into the most
Jaccard-similar big one, and each core grows an overlap ring sized by the
fraction of its vertices' neighbors that stay inside the core.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .graph import Graph, as_vertex_set
from .metrics import default_alpha, katz_centrality, modularity, modularity_from_counts
from .numerics import check_positive

FORMAT_VERSION = 1


@dataclass
class Community:
    """One subdomain: a disjoint core plus the overlap ring added later."""

    core: np.ndarray
    overlap: np.ndarray
    interpolation_nodes: np.ndarray

    @classmethod
    def of(cls, core: np.ndarray, overlap: np.ndarray, W: np.ndarray) -> "Community":
        """Community with the samples W in core ∪ overlap as interpolation nodes."""
        return cls(core, overlap, np.intersect1d(np.union1d(core, overlap), W))

    @property
    def subdomain(self) -> np.ndarray:
        return np.union1d(self.core, self.overlap)


@dataclass
class Cover:
    communities: list[Community]
    provenance: list[dict] = field(default_factory=list)
    # wall seconds per detection stage; not serialised, so the JSON stays deterministic
    stage_times: dict[str, float] = field(default_factory=dict, compare=False)

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
        comms = [
            Community.of(as_vertex_set(e["core"], n), as_vertex_set(e["overlap"], n), W)
            for e in sorted(doc["communities"], key=lambda e: e["id"])
        ]
        return cls(communities=comms, provenance=list(doc.get("provenance", [])))


@dataclass(frozen=True)
class DetectionParams:
    small_fraction: float = 0.02
    alpha: float | None = None  # Katz attenuation; None -> metrics.default_alpha
    t_low: float = 0.4
    t_high: float = 0.8

    def __post_init__(self):
        if not 0 < self.small_fraction < 1:
            raise ValueError(f"small_fraction = {self.small_fraction} is not in (0, 1)")
        if self.alpha is not None:
            check_positive("alpha", self.alpha)
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


def _owners(n: int, cores: list[np.ndarray]) -> np.ndarray:
    """Index of the core holding each vertex, -1 where none does."""
    owner = -np.ones(n, dtype=np.int64)
    for cid, core in enumerate(cores):
        owner[core] = cid
    return owner


def core_membership(n: int, cores: list[np.ndarray]) -> np.ndarray:
    """Core id per vertex; the cores must cover every vertex 0..n-1."""
    member = _owners(n, cores)
    if (member < 0).any():
        raise ValueError("cores do not cover every vertex")
    return member


def _split_plan(
    g: Graph, core: np.ndarray, W: np.ndarray, katz: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], list[tuple[int, int]]] | None:
    """The core's bipartition and each side's (intra, degree sum) counts.

    `intra` counts the ordered vertex pairs inside the side joined by an edge,
    as `metrics.modularity` does; both sides' counts come from one label-mask
    pass over the core's adjacency rows.
    """
    parts = split_community(g, core, W, katz)
    if parts is None:
        return None
    rows = g.adjacency()[core]
    label = np.zeros(g.n, dtype=np.int8)  # 0 outside the core
    for k, side in enumerate(parts, start=1):
        label[side] = k
    src = np.repeat(label[core], np.diff(rows.indptr))
    intra = np.bincount(src[src == label[rows.indices]], minlength=3)
    deg = g.degrees()
    return parts, [
        (int(intra[k]), int(deg[side].sum())) for k, side in enumerate(parts, start=1)
    ]


def _split_phase(
    g: Graph, W: np.ndarray, katz: np.ndarray, provenance: list[dict]
) -> list[np.ndarray]:
    """Greedy divisive loop: accept each split that raises global modularity.

    Passes over the cores stop after one that accepts no split (each accepted
    split strictly raises Q). Each core carries its intra and degree-sum
    counts, so a candidate is scored without a pass over the whole graph. A
    core's bipartition depends only on the core, W and katz, so it is computed
    once, when the core is created, and reused by every later pass.
    """
    everything = np.arange(g.n, dtype=np.int64)
    cores = [everything]
    counts = [(len(g.indices), int(g.degrees().sum()))]
    plans = [_split_plan(g, everything, W, katz)]
    q_run = modularity_from_counts(*np.array(counts, dtype=np.float64).T, g.m)
    accepted = True
    while accepted:
        accepted = False
        for cid in range(len(cores)):  # cores split off in this pass wait for the next
            plan = plans[cid]
            if plan is None:
                continue
            (side1, side2), (c1, c2) = plan
            cand = counts[:cid] + [c1] + counts[cid + 1 :] + [c2]
            q_cand = modularity_from_counts(*np.array(cand, dtype=np.float64).T, g.m)
            if q_cand > q_run:
                cores = cores[:cid] + [side1] + cores[cid + 1 :] + [side2]
                counts = cand
                plans[cid] = _split_plan(g, side1, W, katz)
                plans.append(_split_plan(g, side2, W, katz))
                provenance.append(
                    {"action": "split", "q_before": q_run, "q_after": q_cand}
                )
                q_run = q_cand
                accepted = True
            else:
                provenance.append(
                    {"action": "split_rejected", "q_before": q_run, "q_after": q_cand}
                )
    return cores


def merge_small(
    g: Graph,
    cores: list[np.ndarray],
    p: DetectionParams,
    provenance: list[dict],
) -> list[np.ndarray]:
    """Fold cores smaller than ceil(small_fraction*n) into the most similar big one.

    Without any big core, the largest core (lowest id among equals) absorbs
    the others one at a time, most similar to the growing union first, so a
    single core remains. Ties on Jaccard similarity go to the lowest
    community id. Merged cores may be disconnected; that is logged, not
    rejected.
    """
    threshold = int(np.ceil(p.small_fraction * g.n))
    cores = [c.copy() for c in cores]
    bigs = [c for c in cores if len(c) >= threshold]
    if bigs:
        # later small cores compare against the big ones grown so far
        owner = _owners(g.n, bigs)
        for small in (c for c in cores if len(c) < threshold):
            sim = _mean_jaccard(g, small, owner, [len(c) for c in bigs])
            best = int(np.argmax(sim))
            bigs[best] = np.union1d(bigs[best], small)
            owner[small] = best
            _log_merge(g, provenance, bigs[best])
        return bigs

    # no big core: the largest absorbs the rest
    src = min(range(len(cores)), key=lambda i: (-len(cores[i]), i))
    union, others = cores[src], cores[:src] + cores[src + 1 :]
    while others:
        sim = _mean_jaccard(g, union, _owners(g.n, others), [len(c) for c in others])
        union = np.union1d(union, others.pop(int(np.argmax(sim))))
        _log_merge(g, provenance, union)
    return [union]


def _mean_jaccard(
    g: Graph, U: np.ndarray, owner: np.ndarray, sizes: list[int]
) -> np.ndarray:
    """`jaccard_communities(g, U, V)` for every core V, from one sparse product.

    `owner[v]` is the index of the core holding v (negative: none) and
    `sizes` the core sizes. A vertex pair with no common neighbour has
    Jaccard 0, so only the nonzeros of A[U] @ A.T (= A[U] @ A, A being
    symmetric) are evaluated; their sum per owning core over |U|·|V| is the
    mean over all pairs. Sorted column indices make each sum run in the
    row-major order of `jaccard_communities`.
    """
    A = g.adjacency()
    P = A[U] @ A
    P.sort_indices()
    deg = g.degrees().astype(np.float64)
    rows = np.repeat(U, np.diff(P.indptr))
    jac = P.data / (deg[rows] + deg[P.indices] - P.data)
    own = owner[P.indices]
    live = own >= 0
    sums = np.bincount(own[live], weights=jac[live], minlength=len(sizes))
    return sums / (len(U) * np.asarray(sizes))


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
    t0 = time.perf_counter()
    alpha = default_alpha(g) if p.alpha is None else p.alpha
    katz = katz_centrality(g, alpha)
    t1 = time.perf_counter()

    provenance: list[dict] = [
        {
            "action": "katz",
            "q_before": None,
            "q_after": None,
            "alpha": alpha,
            "mode": "closed-form",
        }
    ]
    cores = _split_phase(g, W, katz, provenance)
    t2 = time.perf_counter()
    cores = merge_small(g, cores, p, provenance)
    q_final = modularity(g, core_membership(g.n, cores))
    t3 = time.perf_counter()
    overlaps = expand_overlap(g, cores, p)
    t4 = time.perf_counter()
    provenance.append({"action": "expand", "q_before": q_final, "q_after": q_final})

    communities = [Community.of(c, o, W) for c, o in zip(cores, overlaps)]
    stage_times = {
        "katz_s": t1 - t0,
        "split_s": t2 - t1,
        "merge_s": t3 - t2,
        "expand_s": t4 - t3,
    }
    return Cover(communities, provenance, stage_times)
