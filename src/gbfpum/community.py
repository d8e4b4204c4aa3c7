"""Divisive overlapping community detection driven by sample-node centrality.

Communities are split at the two most central interpolation nodes while the
split keeps raising global modularity, small cores are merged into the most
Jaccard-similar big one, and each core grows an overlap ring sized by the
fraction of its vertices' neighbors that stay inside the core.

The merge loop only picks each target; whether each merge left its core
connected is read afterwards from one minimum spanning forest, each edge
weighted by the merge step at which its later end arrived. By Kruskal's
argument the forest's edges up to step t span the cores as they stood then.

The stages hand on one core label per vertex, ids 0..k-1: `_split_phase`
returns it, `merge_small` maps it to the merged cores and `expand_overlap`
reads each vertex's core from it. `detect_communities` turns it into vertex
lists once, for the `Community` objects. Only inside the split phase does a
vertex carry the label -1, for a core that a pass leaves alone.

`split_community` is the split phase's pass function: one call plans the
bipartitions of many cores at once and scores each plan's modularity gain
from the same edges, so each plan is scored in the call that makes it. Each
stage finds the edges inside its cores with `graph.intra_edges`, one mask
over the CSR entries, on global vertex ids.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graph import Graph, as_vertex_set, bad_id, groups, integer_entries, intra_edges, sorted_unique
from .metrics import default_alpha, katz_centrality, modularity
from .numerics import is_real, shown

FORMAT_VERSION = 3
T_LOW, T_HIGH = 0.4, 0.8  # overlap thresholds on the internal-neighbor ratio (`expand_overlap`)


@dataclass
class Community:
    """One subdomain: a disjoint core plus the overlap ring added later.

    Core and overlap are vertex ids, read by the integer rule
    (`graph.integer_entries`, so a mask or a fractional id raises ValueError
    naming it) and held flat, as `graph.vertex_ids` reads ids, and as int64,
    so an id that int64 cannot hold raises ValueError too; `build_pu` checks
    their range.
    """

    core: np.ndarray
    overlap: np.ndarray

    def __post_init__(self):
        self.core, self.overlap = map(_int64_ids, (self.core, self.overlap))

    @cached_property
    def subdomain(self) -> np.ndarray:
        # computed once: core and overlap are never modified, and no caller writes to it
        return sorted_unique(np.concatenate([self.core, self.overlap]))


def _int64_ids(ids) -> np.ndarray:
    """`ids` by the integer rule, flattened, as int64; ValueError names an id int64 cannot hold."""
    a = np.ravel(integer_entries(ids, bad_id))
    if a.dtype.kind != "i" and a.size and not -(2**63) <= a.min() <= a.max() < 2**63:
        raise ValueError(f"vertex id {a.max() if a.max() >= 2**63 else a.min()} lies outside int64")
    return a.astype(np.int64, copy=False)


@dataclass
class Cover:
    """Communities and the sample set W; each community interpolates at W ∩ its subdomain."""

    communities: list[Community]
    samples: np.ndarray  # W: vertex ids, which the interpolation stage checks; not serialised
    provenance: list[dict] = field(default_factory=list)
    # wall seconds per detection stage; not serialised, so the JSON stays deterministic
    stage_times: dict[str, float] = field(default_factory=dict, compare=False)

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
        """The cover a `to_json_dict` document states; its community ids must be 0..k-1.

        ValueError names the lowest id that is repeated or missing.
        """
        entries = sorted(doc["communities"], key=lambda e: e["id"])
        for k, i in enumerate(e["id"] for e in entries):
            if i != k:  # the ids before are 0..k-1, so an id below k repeats k - 1
                fault = "repeated" if i < k else "missing"
                raise ValueError(f"community id {min(i, k)} is {fault}")
        comms = [Community(as_vertex_set(e["core"], n), as_vertex_set(e["overlap"], n))
                 for e in entries]
        return cls(comms, as_vertex_set(W, n), list(doc.get("provenance", [])))


@dataclass(frozen=True)
class DetectionParams:
    small_fraction: float = 0.02

    def __post_init__(self):
        if not (is_real(self.small_fraction) and 0 < self.small_fraction < 1):
            raise ValueError(f"small_fraction = {shown(self.small_fraction)} is not in (0, 1)")


def split_community(
    g: Graph, label: np.ndarray, W: np.ndarray, katz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One split pass: bipartition and score every core of `label` at once.

    `label` holds the core of each vertex; vertices labelled -1 are in no
    core to split. A core is planned when it holds two sample nodes of the
    sorted set W. Its seeds are its top two Katz-ranked samples, and every
    core vertex joins the seed it reaches in fewer hops within the induced
    core subgraph; the first seed takes ties and the vertices neither seed
    reaches. The ranking reads the Katz floats as they are, so its tie-break
    (the lower vertex id) applies only to exactly equal floats: two
    automorphic vertices whose Katz values differ in the last bit rank by
    that rounding.

    Returns (second, planned, gain): `second[v]` is True where v joins its
    core's second side, `planned` lists the planned cores in ascending id
    order, and `gain` holds each one's `deg_a*deg_b - 2m*cut` (int64), where
    cut counts the core's edges between its sides a and b and deg_a, deg_b
    are the sides' degree sums.

    One breadth-first search on global vertex ids serves every planned core:
    the planned cores share no kept edge, and a super-source, vertex n, lists
    every first seed before every second seed. The queue is first in, first
    out, so by induction on the hop count each level holds the first seeds'
    trees before the second seeds' trees: a vertex with
    d1 <= d2 is found from a first seed's tree, one with d2 < d1 only from a
    second seed's. A vertex joins side b exactly when the root of its search
    tree, found by pointer jumping over the predecessors, is a second seed;
    unreached vertices, among them every vertex of no planned core, root at
    themselves and stay on side a. The same kept edges give each core's cut.
    """
    w = W[label[W] >= 0]
    lw = label[w]
    order = np.lexsort((w, -katz[w], lw))
    w, lw = w[order], lw[order]
    head = np.ones(len(w), dtype=bool)  # the first (most central) sample of each core
    head[1:] = lw[1:] != lw[:-1]
    first = np.flatnonzero(head)
    first = first[first + 1 < len(w)]
    first = first[lw[first + 1] == lw[first]]
    planned = lw[first]
    if len(planned) == 0:
        return np.zeros(g.n, dtype=bool), planned, np.zeros(0, dtype=np.int64)
    label = _restrict(label, planned)
    u, v = intra_edges(g, label)
    seeds = np.concatenate([w[first], w[first + 1]])
    # the kept edges' rows in order, then the super-source row n; columns as given
    indptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=g.n)), [len(u) + len(seeds)]])
    adj = sp.csr_matrix(
        (np.ones(indptr[-1]), np.append(v, seeds), indptr), shape=(g.n + 1, g.n + 1)
    )
    pred = csgraph.breadth_first_order(adj, g.n, return_predecessors=True)[1][: g.n]
    root = np.where((pred < 0) | (pred == g.n), np.arange(g.n), pred)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    is_second = np.zeros(g.n, dtype=bool)
    is_second[seeds[len(planned) :]] = True
    second = is_second[root]
    k = int(label.max()) + 1
    cut = np.bincount(label[u[second[u] != second[v]]], minlength=k)[planned] // 2  # each twice
    # the sides' degree sums of core c in row c + 1; the vertices labelled -1 fill row 0
    deg = np.bincount(2 * label + second + 2, weights=g.degrees(), minlength=2 * k + 2)
    deg = deg.reshape(-1, 2).astype(np.int64)[planned + 1]
    return second, planned, deg[:, 0] * deg[:, 1] - len(g.indices) * cut


def _restrict(label: np.ndarray, ids) -> np.ndarray:
    """`label` where it is one of `ids`, -1 elsewhere."""
    keep = np.zeros(int(label.max()) + 2, dtype=bool)  # keep[-1], read by label -1, stays False
    keep[ids] = True
    return np.where(keep[label], label, -1)


def core_membership(n: int, cores: list[np.ndarray]) -> np.ndarray:
    """Core id per vertex: the index of the one core in `cores` that holds it.

    The cores must partition 0..n-1; a ValueError names the first vertex
    that two cores share, else the first that no core holds.
    """
    members = np.concatenate([np.zeros(0, dtype=np.int64), *cores])
    hits = np.bincount(members, minlength=n)
    if (hits > 1).any():
        v = int(np.argmax(hits > 1))
        raise ValueError(f"cores overlap: vertex {v} lies in {int(hits[v])} cores")
    if (hits == 0).any():
        raise ValueError(f"vertex {int(np.argmax(hits == 0))} lies in no core")
    member = np.empty(n, dtype=np.int64)
    member[members] = np.repeat(np.arange(len(cores)), [len(c) for c in cores])
    return member


def _split_phase(
    g: Graph, W: np.ndarray, katz: np.ndarray, provenance: list[dict]
) -> np.ndarray:
    """Divisive loop over the bisection tree: split each core whose split raises Q.

    Splitting core c into sides a and b changes modularity by
    dQ = 2*(deg_a*deg_b - 2m*cut)/(2m)^2, where cut counts the edges between
    the sides; no other core's split alters it. So each core is scored once,
    in the `split_community` pass that plans it, and a rejected core is
    final. The first pass holds one core, the whole graph; each later pass
    plans and scores together the cores the previous one split or created,
    and splits those with deg_a*deg_b > 2m*cut. A split core keeps its id;
    the second sides take the next free ids in ascending core order. Each
    scored core logs its exact dQ, correctly rounded, whose sign is the
    decision. The loop ends at the first pass that plans nothing, and the
    core label of every vertex, ids 0..k-1, is returned.
    """
    two_m = len(g.indices)
    label = np.zeros(g.n, dtype=np.int64)
    k = 1  # cores so far
    touched = label
    while True:
        second, planned, gain = split_community(g, touched, W, katz)
        if len(planned) == 0:
            return label
        for cid, gn in zip(planned.tolist(), gain.tolist()):
            provenance.append(
                {
                    "action": "split" if gn > 0 else "split_rejected",
                    "core_id": cid,
                    "dq": 2 * gn / two_m**2,  # Python ints: the quotient is correctly rounded
                }
            )
        split = planned[gain > 0]
        fresh = np.arange(k, k + len(split))
        new = np.arange(k)
        new[split] = fresh
        label = np.where(second, new[label], label)
        k += len(split)
        touched = _restrict(label, np.concatenate([split, fresh]))


def merge_small(
    g: Graph, label: np.ndarray, p: DetectionParams, provenance: list[dict]
) -> np.ndarray:
    """Fold cores smaller than ceil(small_fraction*n) into the most similar big one.

    `label` holds the core id 0..k-1 of every vertex. Small cores merge in id
    order, each into the big core of highest mean Jaccard similarity as grown
    so far; ties go to the lowest community id. Without any big core, the
    largest core (lowest id among equals) counts as the one big core, so a
    single core remains. Merged cores may be disconnected; that is logged,
    not rejected. Returns the merged label, the big cores renumbered 0.. in
    ascending id order.

    The loop only picks each target, from one product A[smalls] @ A of
    common-neighbour counts (a pair with none has Jaccard 0). Connectivity
    is read after it: a vertex arrives at step 0 in a big core or at step t
    with the t-th small core, and an edge inside a final core weighs the
    later step of its ends, plus 1. By Kruskal's argument, the edges of
    weight <= t+1 of a minimum spanning forest span the graph as it stood
    after step t, so a core then has (its vertices) - (its forest edges)
    connected pieces.
    """
    threshold = int(np.ceil(p.small_fraction * g.n))
    sizes = np.bincount(label)
    if len(sizes) < 2 or sizes.min() >= threshold:
        return label
    is_big = sizes >= threshold
    is_big[np.argmax(sizes)] = True  # the largest core is big, or promoted to it
    big, small = np.flatnonzero(is_big), np.flatnonzero(~is_big)
    cores = groups(label)
    rows = np.concatenate([cores[i] for i in small])
    A = g.adjacency()
    P = A[rows] @ A
    P.sort_indices()  # each sum below runs in the row-major order of `jaccard_communities`
    degree = g.degrees().astype(np.float64)
    jac = P.data / (degree[np.repeat(rows, np.diff(P.indptr))] + degree[P.indices] - P.data)
    bounds = P.indptr[np.cumsum(np.concatenate([[0], sizes[small]]))]  # each small core's entries
    rank = np.full(len(sizes), -1)  # big index per core id; a small core reads -1 until it merges
    rank[big] = np.arange(len(big))
    owner = rank[label]
    big_sizes = sizes[big]
    into = np.empty(len(small), dtype=np.int64)
    for t, sid in enumerate(small):
        at = slice(bounds[t], bounds[t + 1])
        own = owner[P.indices[at]]
        live = own >= 0
        sums = np.bincount(own[live], weights=jac[at][live], minlength=len(big))
        into[t] = best = np.argmax(sums / (sizes[sid] * big_sizes))
        owner[cores[sid]] = best
        big_sizes[best] += sizes[sid]

    arrival = np.zeros(len(sizes), dtype=np.int64)
    arrival[small] = np.arange(1, len(small) + 1)
    arrival = arrival[label]
    u, v = intra_edges(g, owner)
    up = u < v
    u, v = u[up], v[up]
    weight = np.maximum(arrival[u], arrival[v]) + 1  # >= 1: a zero entry is no edge
    forest = csgraph.minimum_spanning_tree(sp.csr_matrix((weight, (u, v)), shape=(g.n, g.n)))
    forest = forest.tocoo()
    weight = forest.data.astype(np.int64)
    pieces = sizes[big] - np.bincount(owner[forest.row[weight == 1]], minlength=len(big))
    joins = np.bincount(weight, minlength=len(small) + 2)  # forest edges added per step, at t+1
    for t, (sid, best) in enumerate(zip(small, into), start=1):
        pieces[best] += sizes[sid] - joins[t + 1]
        provenance.append({"action": "merge" if pieces[best] == 1 else "merge_disconnected"})
    return owner


def expand_overlap(g: Graph, label: np.ndarray) -> list[np.ndarray]:
    """Overlap ring per core from the internal-neighbor ratio r(v).

    `label` holds the core id 0..k-1 of every vertex. r(v) <= T_LOW pulls in
    v's 2-hop neighborhood, T_LOW < r(v) <= T_HIGH the 1-hop one;
    boundary-free vertices add nothing. Cores are untouched, so a second
    application is a no-op.

    Every core at once: r(v) from the row counts of the intra-core edges, and
    each ring as (core, vertex) keys: the 1-hop ones from the CSR entries of
    the ring's vertices, the 2-hop ones from one product A[far] @ A.
    """
    r = np.bincount(intra_edges(g, label)[0], minlength=g.n) / np.maximum(g.degrees(), 1)
    far = np.flatnonzero(r <= T_LOW)  # a vertex of no edge reads r = 0 and adds nothing
    at = (r <= T_HIGH)[g.heads]  # the edges out of every vertex that adds its 1-hop ring
    two_hop = g.adjacency()[far] @ g.adjacency()
    keys = sorted_unique(
        np.concatenate(
            [
                label[g.heads[at]] * g.n + g.indices[at],
                np.repeat(label[far], np.diff(two_hop.indptr)) * g.n + two_hop.indices,
            ]
        )
    )
    cid, v = np.divmod(keys, g.n)
    keep = label[v] != cid
    cid, v = cid[keep], v[keep]
    bounds = np.searchsorted(cid, np.arange(int(label.max()) + 2))
    return [v[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def detect_communities(g: Graph, W: np.ndarray, p: DetectionParams) -> Cover:
    """Full detection pipeline: split while modularity rises, merge, expand."""
    W = as_vertex_set(W, g.n)
    if len(W) == 0:
        raise ValueError("need at least one interpolation node")
    t0 = time.perf_counter()
    katz = katz_centrality(g)
    t1 = time.perf_counter()

    # the Katz entry records the graph's alpha, the one katz_centrality solved at
    provenance: list[dict] = [{"action": "katz", "alpha": default_alpha(g)}]
    label = _split_phase(g, W, katz, provenance)
    t2 = time.perf_counter()
    label = merge_small(g, label, p, provenance)
    q_final = modularity(g, label)
    t3 = time.perf_counter()
    overlaps = expand_overlap(g, label)
    t4 = time.perf_counter()
    provenance.append({"action": "expand", "q_after": q_final})

    communities = [Community(c, o) for c, o in zip(groups(label), overlaps)]
    stage_times = {
        "katz_s": t1 - t0,
        "split_s": t2 - t1,
        "merge_s": t3 - t2,
        "expand_s": t4 - t3,
    }
    return Cover(communities, W, provenance, stage_times)
