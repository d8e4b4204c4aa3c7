from fractions import Fraction
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gbfpum import (
    DetectionParams,
    Graph,
    default_alpha,
    detect_communities,
    katz_centrality,
    modularity,
    sample_nodes,
)
import gbfpum.community
from gbfpum.community import (
    FORMAT_VERSION,
    Cover,
    _split_phase,
    core_membership,
    expand_overlap,
    merge_small,
    split_community,
)
from gbfpum.errors import OutOfRangeError
from gbfpum.metrics import jaccard_communities

from conftest import neighbors, random_connected_graph


def bfs_hops(g, src, allowed):
    """Hop count from src to every vertex it reaches inside `allowed`."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbors(g, u):
                if w in allowed and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def split_oracle(g, core, W, katz):
    """Split by per-vertex BFS: side 2 only for vertices strictly nearer seed 2."""
    w_in = sorted(set(core.tolist()) & set(W.tolist()), key=lambda v: (-katz[v], v))
    if len(w_in) < 2:
        return None
    allowed = set(core.tolist())
    d1, d2 = bfs_hops(g, w_in[0], allowed), bfs_hops(g, w_in[1], allowed)
    side2 = [v for v in core.tolist() if v in d2 and (v not in d1 or d2[v] < d1[v])]
    side1 = [v for v in core.tolist() if v not in side2]
    return side1, side2


def cores_of(label):
    """Vertex list of each core id 0..max(label)."""
    return [np.flatnonzero(label == c).tolist() for c in range(label.max() + 1)]


def one_core_split(g, core, W, katz):
    """(side1, side2) of `split_community` run on the single core `core`; None if unplanned."""
    label = np.full(g.n, -1, dtype=np.int64)
    label[core] = 0
    second, planned, _ = split_community(g, label, W, katz)
    if len(planned) == 0:
        return None
    return core[~second[core]], core[second[core]]


def overlap_oracle(g, core):
    """Per-vertex overlap ring: r(v) <= 0.4 picks v's 2-hop neighborhood, r(v) <= 0.8 its 1-hop one."""
    core_set = set(core.tolist())
    extra = set()
    for v in core.tolist():
        nb = neighbors(g, v)
        if not nb:
            continue
        r = sum(w in core_set for w in nb) / len(nb)
        if r <= 0.4:
            extra.update(nb)
            for u in nb:
                extra.update(neighbors(g, u))
        elif r <= 0.8:
            extra.update(nb)
    return sorted(extra - core_set)


def exact_modularity(g, membership):
    """Q as a Fraction: each community's edge count and degree sum, summed exactly."""
    A = g.adjacency().toarray().astype(np.int64)
    deg, two_m = A.sum(axis=1), int(A.sum())
    q = Fraction(0)
    for c in np.unique(membership):
        vs = np.flatnonzero(membership == c)
        intra, deg_c = int(A[np.ix_(vs, vs)].sum()), int(deg[vs].sum())
        q += Fraction(intra, two_m) - Fraction(deg_c**2, two_m**2)
    return q


def replay_split_log(g, W, katz, provenance):
    """Rebuild the bisection tree one scored core at a time, following the log's decisions.

    Each pass plans, with a fresh `split_oracle` call, every core the
    previous pass split or created, in ascending id order; an accepted split's
    second side takes the next id. Yields (entry, core id, exact dQ, membership
    before, membership after the split) for every `split` and `split_rejected`
    entry. dQ comes from the sides' own edge and degree counts:
    2*(deg_a*deg_b - 2m*cut)/(2m)^2.
    """
    A = g.adjacency().toarray().astype(np.int64)
    deg, two_m = A.sum(axis=1), int(A.sum())
    log = iter(e for e in provenance if e["action"] in ("split", "split_rejected"))
    cores = [np.arange(g.n)]
    todo = [0]
    while todo:
        touched = []
        for cid in todo:
            parts = split_oracle(g, cores[cid], W, katz)
            if parts is None:
                continue
            a, b = (np.array(side, dtype=np.int64) for side in parts)
            gain = int(deg[a].sum()) * int(deg[b].sum()) - two_m * int(A[np.ix_(a, b)].sum())
            candidate = cores[:cid] + [a] + cores[cid + 1 :] + [b]
            entry = next(log, None)
            assert entry is not None, "log holds fewer scored splits than the replay"
            yield (
                entry,
                cid,
                Fraction(2 * gain, two_m**2),
                core_membership(g.n, cores),
                core_membership(g.n, candidate),
            )
            if entry["action"] == "split":
                cores = candidate
                touched += [cid, len(cores) - 1]
        todo = sorted(touched)
    assert next(log, None) is None, "log holds more scored splits than the replay"


def merge_oracle(g, cores, p, provenance):
    """`merge_small` by one `jaccard_communities` call per pair of cores.

    Returns (merged cores, near_tie): near_tie is set when the two highest
    similarities of a pick are nonzero and within a relative 1e-12, where the
    summation order of the mean, not the tie rule, decides the pick.
    """
    threshold = int(np.ceil(p.small_fraction * g.n))
    cores = [c.copy() for c in cores]
    near_tie = False

    def pick(src, candidates):
        nonlocal near_tie
        best, best_j = None, -1.0
        values = []
        for i, c in candidates:
            jv = jaccard_communities(g, src, c)
            values.append(jv)
            if jv > best_j:
                best, best_j = i, jv
        top = sorted(values)[-2:]
        near_tie |= len(top) == 2 and top[1] > 0 and top[1] - top[0] <= 1e-12 * top[1]
        return best

    def log(union):
        connected = g.induced_subgraph(union)[0].is_connected()
        action = "merge" if connected else "merge_disconnected"
        provenance.append({"action": action})

    big_ids = [i for i, c in enumerate(cores) if len(c) >= threshold]
    if not big_ids:  # the largest core, lowest id among equals, is the one big core
        big_ids = [min(range(len(cores)), key=lambda i: (-len(cores[i]), i))]
    bigs = {i: cores[i] for i in big_ids}
    for sid, small in enumerate(cores):
        if sid in bigs:
            continue
        best = pick(small, [(b, bigs[b]) for b in big_ids])
        bigs[best] = np.union1d(bigs[best], small)
        log(bigs[best])
    return [bigs[i] for i in big_ids], near_tie


def check_cover_invariants(g, W, cover):
    cores = [c.core for c in cover.communities]
    allcore = np.concatenate(cores)
    assert len(allcore) == len(np.unique(allcore)) == g.n  # disjoint partition
    union = np.unique(np.concatenate([c.subdomain for c in cover.communities]))
    assert np.array_equal(union, np.arange(g.n))
    assert len(cover.communities) <= len(W)
    assert np.array_equal(cover.samples, np.unique(W)) and cover.samples.dtype == np.int64
    for c in cover.communities:
        assert len(np.intersect1d(c.subdomain, W)) >= 1
        assert len(np.intersect1d(c.core, c.overlap)) == 0
    for e in cover.provenance:
        if e["action"] in ("split", "split_rejected"):
            assert (e["action"] == "split") == (e["dq"] > 0)


class TestSplitCommunity:
    def test_single_edge_core(self):
        g = Graph.from_edges(2, [(0, 1)])
        W = np.array([0, 1])
        sides = one_core_split(g, np.arange(2), W, katz_centrality(g))
        assert sides is not None
        assert sorted(map(tuple, (s.tolist() for s in sides))) == [(0,), (1,)]

    def test_too_few_samples_no_split(self, two_triangle):
        got = one_core_split(
            two_triangle, np.arange(6), np.array([2]), katz_centrality(two_triangle)
        )
        assert got is None

    def test_two_triangle_hand_trace(self, two_triangle):
        sides = one_core_split(
            two_triangle, np.arange(6), np.array([0, 4]), katz_centrality(two_triangle)
        )
        got = sorted(s.tolist() for s in sides)
        assert got == [[0, 1, 2], [3, 4, 5]]

    def test_sides_connected_and_partition_core(self):
        for seed in range(25):
            g = random_connected_graph(seed)
            rng = np.random.default_rng(seed)
            W = np.unique(rng.integers(0, g.n, max(2, g.n // 3)))
            sides = one_core_split(g, np.arange(g.n), W, katz_centrality(g))
            if sides is None:
                assert len(np.intersect1d(np.arange(g.n), W)) < 2
                continue
            s1, s2 = sides
            assert np.array_equal(np.union1d(s1, s2), np.arange(g.n))
            assert len(np.intersect1d(s1, s2)) == 0
            for side in sides:
                sub, _ = g.induced_subgraph(side)
                assert sub.is_connected()


    def test_unreached_vertices_join_first_seed(self, path10):
        # core pieces {0,1,2}, {5,6} and {8,9}; seeds 1 and 5 reach neither {8,9}
        core = np.array([0, 1, 2, 5, 6, 8, 9])
        katz = np.zeros(10)
        katz[1], katz[5] = 2.0, 1.0
        side1, side2 = one_core_split(path10, core, np.array([1, 5]), katz)
        assert side1.tolist() == [0, 1, 2, 8, 9]
        assert side2.tolist() == [5, 6]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_matches_bfs_oracle(self, seed, whole_graph):
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        # a random vertex subset is often a disconnected core
        core = np.arange(g.n) if whole_graph else np.flatnonzero(rng.random(g.n) < 0.5)
        W = np.flatnonzero(rng.random(g.n) < 0.3)
        katz = katz_centrality(g)
        got = one_core_split(g, core, W, katz)
        expect = split_oracle(g, core, W, katz)
        if expect is None:
            assert got is None
        else:
            assert [side.tolist() for side in got] == list(expect)


class TestDetect:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 0.9))
    def test_split_log_q_is_modularity(self, seed, frac):
        g = random_connected_graph(seed, n_max=40)
        rng = np.random.default_rng(seed)
        W = np.flatnonzero(rng.random(g.n) < frac)
        assume(len(W) >= 1)
        katz = katz_centrality(g)
        log = []
        label = _split_phase(g, W, katz, log)
        final = np.zeros(g.n, dtype=np.int64)
        for entry, cid, dq, before, after in replay_split_log(g, W, katz, log):
            assert entry["core_id"] == cid
            assert entry["dq"].hex() == float(dq).hex()
            assert (entry["action"] == "split") == (dq > 0)
            assert dq == exact_modularity(g, after) - exact_modularity(g, before)
            assert float(exact_modularity(g, after)) == pytest.approx(modularity(g, after), abs=1e-12)
            if entry["action"] == "split":
                final = after
        assert np.array_equal(label, final)

    @pytest.mark.parametrize("seed", [1115, 1180])
    def test_zero_gain_split_rejected(self, seed):
        # summing float Q over every core once rounded these exact-zero gains up
        # by an ulp and accepted them (1180: 7 communities instead of 1)
        g = random_connected_graph(seed, n_max=60)
        rng = np.random.default_rng(seed)
        W = np.arange(5) if seed == 1115 else np.flatnonzero(rng.random(g.n) < rng.uniform(0.05, 0.9))
        katz = katz_centrality(g)
        log = []
        _split_phase(g, W, katz, log)
        dqs = []
        for entry, _, dq, _, _ in replay_split_log(g, W, katz, log):
            assert entry["action"] == "split_rejected" or dq > 0
            dqs.append(dq)
        assert 0 in dqs  # the case still holds a zero-gain split

    def test_every_split_pass_goes_through_split_community(self, monkeypatch, path10):
        # the benchmark's tracer wraps this module attribute to time the split layer
        calls = []
        real = gbfpum.community.split_community

        def counting(*args):
            out = real(*args)
            calls.append(out[1].tolist())
            return out

        monkeypatch.setattr(gbfpum.community, "split_community", counting)
        cases = [(path10, np.arange(10))]
        for seed in range(20):
            g = random_connected_graph(seed, n_max=60)
            rng = np.random.default_rng(seed)
            cases.append((g, np.unique(rng.integers(0, g.n, max(1, g.n // 3)))))
        for g, W in cases:
            calls.clear()
            cover = detect_communities(g, W, DetectionParams())
            scored = [e["core_id"] for e in cover.provenance if e["action"] in ("split", "split_rejected")]
            assert [cid for c in calls for cid in c] == scored
            assert calls[-1] == [] and all(calls[:-1])

    def test_single_sample_single_community(self, two_triangle):
        cover = detect_communities(two_triangle, np.array([3]), DetectionParams())
        assert len(cover.communities) == 1
        assert cover.communities[0].core.tolist() == list(range(6))
        assert cover.communities[0].overlap.tolist() == []

    def test_two_triangle_cores(self, two_triangle):
        cover = detect_communities(two_triangle, np.array([0, 4]), DetectionParams())
        cores = sorted(c.core.tolist() for c in cover.communities)
        assert cores == [[0, 1, 2], [3, 4, 5]]
        split = [e for e in cover.provenance if e["action"] == "split"]
        assert len(split) == 1
        assert split[0]["dq"] == 5 / 14  # 2*(7*7 - 14*1)/14^2

    def test_path10_all_samples_monotone_log(self, path10):
        cover = detect_communities(path10, np.arange(10), DetectionParams())
        check_cover_invariants(path10, np.arange(10), cover)
        accepted = [e for e in cover.provenance if e["action"] == "split"]
        assert accepted, "a path should admit at least one modularity-raising split"

    def test_bad_params(self):
        for small_fraction in (0.0, 1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="is not in \\(0, 1\\)$"):
                DetectionParams(small_fraction=small_fraction)

    @pytest.mark.parametrize("small_fraction", [True, np.True_, "0.5", None, 0.5 + 0j])
    def test_params_refuse_booleans_and_non_reals(self, small_fraction):
        # text, None and complex raised a TypeError naming no field; a value
        # that is not real is named by its repr
        message = f"small_fraction = {small_fraction!r} is not in (0, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DetectionParams(small_fraction=small_fraction)
        assert DetectionParams(small_fraction=np.float32(0.5)).small_fraction == 0.5

    def test_refused_real_values_keep_str(self):
        # only a value that is not real is named by its repr
        with pytest.raises(ValueError, match=r"^small_fraction = nan is not in \(0, 1\)$"):
            DetectionParams(small_fraction=np.float64(np.nan))

    @pytest.mark.parametrize("name", ["geometric200", "minnesota"])
    def test_katz_entry_holds_default_alpha(self, request, name):
        # the attenuation comes from the graph alone
        g = request.getfixturevalue(name)
        cover = detect_communities(g, sample_nodes(g.n, 40, 0), DetectionParams())
        assert cover.provenance[0] == {"action": "katz", "alpha": default_alpha(g)}

    def test_no_samples(self, path10):
        with pytest.raises(ValueError, match="^need at least one interpolation node$"):
            detect_communities(path10, [], DetectionParams())

    def test_determinism(self, geometric200):
        W = np.arange(0, 200, 7)
        p = DetectionParams()
        a = detect_communities(geometric200, W, p).to_json()
        b = detect_communities(geometric200, W, p).to_json()
        assert a == b


class TestMergeSmall:
    def test_all_big_unchanged(self, two_triangle):
        label = core_membership(6, [np.array([0, 1, 2]), np.array([3, 4, 5])])
        got = merge_small(two_triangle, label, DetectionParams(), [])
        assert np.array_equal(got, label)

    def test_small_merges_into_most_similar_big(self):
        # lollipop: clique {0..4} with a pendant path 4-5; small core {5}
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5)]
        g = Graph.from_edges(6, edges)
        label = core_membership(6, [np.arange(5), np.array([5])])
        got = merge_small(g, label, DetectionParams(small_fraction=0.3), [])
        assert cores_of(got) == [[0, 1, 2, 3, 4, 5]]

    def test_most_similar_wins(self):
        # two cliques bridged by vertex 8; the singleton {8} is adjacent to both,
        # but its neighborhood overlaps clique A's vertices more than clique B's
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        edges += [(8, 0), (8, 1), (8, 2), (8, 4)]
        g = Graph.from_edges(9, edges)
        label = core_membership(9, [np.arange(4), np.arange(4, 8), np.array([8])])
        got = merge_small(g, label, DetectionParams(small_fraction=0.3), [])
        assert cores_of(got) == [[0, 1, 2, 3, 8], [4, 5, 6, 7]]

    def test_no_big_community_fallback(self, path10):
        # no core reaches 2 vertices: {0} is promoted and the others join it in id order
        prov = []
        got = merge_small(path10, np.arange(10), DetectionParams(small_fraction=0.2), prov)
        assert cores_of(got) == [list(range(10))]
        assert [e["action"] for e in prov] == ["merge"] * 9

    def test_ties_go_to_lowest_id(self):
        # path 0..8: the small core {4} is equally similar to its mirror images
        g = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
        label = core_membership(9, [np.arange(4), np.array([4]), np.arange(5, 9)])
        got = merge_small(g, label, DetectionParams(small_fraction=0.3), [])
        assert cores_of(got) == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
        # no big core: the lowest id among the largest, {0}, is promoted, and
        # only its first union, with {1}, is connected
        g = Graph.from_edges(4, [(0, 1), (2, 3)], require_connected=False)
        prov = []
        merge_small(g, np.arange(4), DetectionParams(small_fraction=0.4), prov)
        assert [e["action"] for e in prov] == ["merge"] + ["merge_disconnected"] * 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8), st.booleans())
    def test_matches_jaccard_loop(self, seed, k, some_big):
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        member = rng.choice(k, size=g.n, p=rng.dirichlet(np.ones(k)))
        cores = [np.flatnonzero(member == c) for c in np.unique(member)]
        largest = max(len(c) for c in cores)
        assume(len(cores) >= 2 and largest >= 2)
        # threshold ceil(small_fraction * n): at most the largest core, or above it
        threshold = int(rng.integers(2, largest + 1)) if some_big else largest + 1
        p = DetectionParams(small_fraction=(threshold - 0.5) / g.n)
        expect_log, got_log = [], []
        expect, near_tie = merge_oracle(g, cores, p, expect_log)
        assume(not near_tie)
        got = merge_small(g, core_membership(g.n, cores), p, got_log)
        assert np.array_equal(got, core_membership(g.n, expect))
        assert got_log == expect_log

    def test_disconnected_merge_logged(self):
        # star: the leaves {1} and {2} join the big core {0, 3} through the hub
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = DetectionParams(small_fraction=0.5)
        prov = []
        got = merge_small(g, core_membership(4, [np.array([0, 3]), np.array([1]), np.array([2])]), p, prov)
        assert cores_of(got) == [[0, 1, 2, 3]]
        assert [e["action"] for e in prov] == ["merge", "merge"]
        # with the hub in the last core, the promoted leaf {1} gains the other
        # leaves disconnected, and the hub joins them up
        prov = []
        got = merge_small(g, np.array([3, 0, 1, 2]), p, prov)
        assert cores_of(got) == [[0, 1, 2, 3]]
        assert [e["action"] for e in prov] == ["merge_disconnected"] * 2 + ["merge"]

    def test_no_big_merge_log_follows_id_order(self):
        # the largest core absorbing the rest in similarity order made the first
        # two unions disconnected; merged in id order into it, each is connected
        g = random_connected_graph(1364, n_max=60)
        rng = np.random.default_rng(1364)
        W = np.flatnonzero(rng.random(g.n) < rng.uniform(0.05, 0.9))
        cover = detect_communities(g, W, DetectionParams(small_fraction=0.5))
        assert [c.core.tolist() for c in cover.communities] == [list(range(g.n))]
        merges = [e["action"] for e in cover.provenance if e["action"].startswith("merge")]
        assert merges == ["merge"] * 3


class TestExpandOverlap:
    def test_no_boundary_no_overlap(self, two_triangle):
        overlaps = expand_overlap(two_triangle, np.zeros(6, dtype=np.int64))
        assert overlaps[0].tolist() == []

    def test_ratio_06_distance1(self):
        # vertex 0 has 5 neighbors, 3 internal -> r = 0.6 -> 1-hop expansion
        edges = [(0, 1), (0, 2), (0, 3), (0, 8), (0, 9), (1, 2), (2, 3), (8, 9), (8, 4), (9, 4)]
        g = Graph.from_edges(10, edges + [(4, 5), (5, 6), (6, 7)])
        label = core_membership(10, [np.array([0, 1, 2, 3]), np.arange(4, 10)])
        overlaps = expand_overlap(g, label)
        # r(0)=3/5=0.6; r(1)=r(3)=1? 1's nbrs {0,2} internal -> 1.0; 3's {0,2} -> 1.0
        assert overlaps[0].tolist() == [8, 9]

    def test_ratio_025_distance2(self):
        # vertex 0: 4 neighbors, 1 internal -> r = 0.25 -> 2-hop expansion
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (3, 5), (4, 6), (6, 7), (1, 7)]
        g = Graph.from_edges(8, edges)
        label = core_membership(8, [np.array([0, 1]), np.arange(2, 8)])
        overlaps = expand_overlap(g, label)
        # N(0) at distance <= 2: {2,3,4} plus their/1's neighbors {5,6,7}
        assert set(overlaps[0].tolist()) >= {2, 3, 4, 5, 6}

    def test_idempotent(self, geometric200):
        cover = detect_communities(geometric200, np.arange(0, 200, 11), DetectionParams())
        label = core_membership(geometric200.n, [c.core for c in cover.communities])
        once = expand_overlap(geometric200, label)
        twice = expand_overlap(geometric200, label)
        assert all(a.tolist() == b.tolist() for a, b in zip(once, twice))

    def test_cores_untouched(self, two_triangle):
        label = np.array([0, 0, 0, 1, 1, 1])
        expand_overlap(two_triangle, label)
        assert label.tolist() == [0, 0, 0, 1, 1, 1]


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_per_vertex_oracle(self, seed):
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        member = rng.integers(0, 4, g.n)
        cores = [np.flatnonzero(member == k) for k in np.unique(member)]
        got = expand_overlap(g, core_membership(g.n, cores))
        assert [o.tolist() for o in got] == [overlap_oracle(g, c) for c in cores]


def random_cores(g, rng, k, drop):
    """k random disjoint cores (often disconnected); a share `drop` of vertices joins none."""
    label = rng.integers(0, k, g.n)
    label[rng.random(g.n) < drop] = -1
    return label, [np.flatnonzero(label == c) for c in range(k) if (label == c).any()]


class TestPassFunctions:
    """The whole-graph passes against per-core oracles."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(0.0, 0.5), st.floats(0.02, 0.6))
    def test_batched_split_matches_per_core(self, seed, k, drop, frac):
        g = random_connected_graph(seed, n_max=40)
        rng = np.random.default_rng(seed)
        label, _ = random_cores(g, rng, k, drop)
        W = np.flatnonzero(rng.random(g.n) < frac)  # cores with 0, 1 or many samples
        katz = katz_centrality(g)
        second, planned, gains = split_community(g, label, W, katz)
        assert gains.dtype == np.int64
        assert not second[label < 0].any()
        gain = dict(zip(planned.tolist(), gains.tolist()))
        adj = g.adjacency().toarray()
        for c in range(k):
            core = np.flatnonzero(label == c)
            expect = split_oracle(g, core, W, katz)
            assert (c in planned) == (expect is not None)
            if expect is None:
                assert not second[core].any()
                continue
            side1, side2 = core[~second[core]], core[second[core]]
            assert [side1.tolist(), side2.tolist()] == list(expect)
            assert [s.tolist() for s in one_core_split(g, core, W, katz)] == list(expect)
            cut = adj[np.ix_(side1, side2)].sum()
            deg1, deg2 = g.degrees()[side1].sum(), g.degrees()[side2].sum()
            assert gain[c] == deg1 * deg2 - len(g.indices) * cut

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6), st.floats(0.0, 0.4))
    def test_one_pass_plans_many_cores(self, seed, k, drop):
        # every core of two or more vertices holds two samples, so one call plans
        # several disconnected cores at once, between vertices labelled -1; Katz
        # values from {0, 1, 2} leave many exact ties to the lower vertex id, so
        # the first seed is often the higher id of the two
        g = random_connected_graph(seed, n_min=12, n_max=40)
        rng = np.random.default_rng(seed)
        label, cores = random_cores(g, rng, k, drop)
        picks = [rng.choice(c, 2, replace=False) for c in cores if len(c) >= 2]
        W = np.union1d(np.flatnonzero(rng.random(g.n) < 0.1), np.concatenate([[], *picks]))
        W = W.astype(np.int64)
        katz = rng.integers(0, 3, g.n).astype(np.float64)
        second, planned, _ = split_community(g, label, W, katz)
        assume(len(planned) >= 2)
        assert planned.tolist() == [c for c in range(k) if (label == c).sum() >= 2]
        assert not second[label < 0].any()
        for c in planned.tolist():
            core = np.flatnonzero(label == c)
            expect = split_oracle(g, core, W, katz)
            assert [core[~second[core]].tolist(), core[second[core]].tolist()] == list(expect)

    def test_ties_go_to_first_seed_in_every_core(self):
        # core 0 is the path 0-1-2 with seeds 2 (first) and 0; core 1 the even
        # cycle 3-4-5-6-7-8 with seeds 6 (first) and 4. Vertex 1 is one hop from
        # both of its seeds, 5 one hop and 8 two hops from both of theirs. Each
        # first seed has the higher id, so a search that queued the seeds by id
        # would give these ties to the second seeds.
        cycle = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (3, 8)]
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3)] + cycle)
        label = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1])
        katz = np.zeros(9)
        katz[[2, 0, 6, 4]] = [3.0, 1.0, 2.0, 1.0]
        W = np.array([0, 2, 4, 6])
        second, planned, gains = split_community(g, label, W, katz)
        assert planned.tolist() == [0, 1]
        assert np.flatnonzero(second).tolist() == [0, 3, 4]
        for c in (0, 1):
            core = np.flatnonzero(label == c)
            assert [core[~second[core]].tolist(), core[second[core]].tolist()] == list(
                split_oracle(g, core, W, katz)
            )
        # 2m = 18; degree sums 4 x 1 with 1 cut edge, and 8 x 5 with 2 (4-5, 3-8)
        assert gains.tolist() == [4 * 1 - 18 * 1, 8 * 5 - 18 * 2]

    def test_search_stays_inside_planned_cores(self):
        # planned core 0 is the path 0-...-6, seeds 0 (first) and 6; alone it
        # splits {0..3} | {4, 5, 6}. Vertex 7 (label -1) joins 6 to 3 and the
        # unplanned core 1 = {8, 9} (one sample) joins 0 to 4: a search that
        # crossed either would move 3 to side b or 4 to side a
        path = [(v, v + 1) for v in range(6)]
        g = Graph.from_edges(10, path + [(6, 7), (7, 3), (0, 8), (8, 4), (8, 9)])
        label = np.array([0] * 7 + [-1, 1, 1])
        katz = np.zeros(10)
        katz[[0, 6]] = [2.0, 1.0]
        W = np.array([0, 6, 9])
        second, planned, gains = split_community(g, label, W, katz)
        assert planned.tolist() == [0]
        assert np.flatnonzero(second).tolist() == [4, 5, 6]
        core = np.arange(7)
        assert [core[~second[core]].tolist(), core[second[core]].tolist()] == list(
            split_oracle(g, core, W, katz)
        )
        # 2m = 22; degree sums 2+2+2+3 and 3+2+2 with the one cut edge 3-4
        assert gains.tolist() == [9 * 7 - 22 * 1]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8), st.booleans())
    def test_merge_log_matches_connectivity(self, seed, k, some_big):
        # random, often disconnected cores, on both branches
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        _, cores = random_cores(g, rng, k, 0.0)
        assume(len(cores) >= 2)
        largest = max(len(c) for c in cores)
        assume(largest >= 2 or not some_big)
        threshold = int(rng.integers(2, largest + 1)) if some_big else largest + 1
        p = DetectionParams(small_fraction=(threshold - 0.5) / g.n)
        expect_log, got_log = [], []
        expect, near_tie = merge_oracle(g, cores, p, expect_log)
        assume(not near_tie)
        got = merge_small(g, core_membership(g.n, cores), p, got_log)
        assert np.array_equal(got, core_membership(g.n, expect))
        assert got_log == expect_log  # the oracle logs `induced_subgraph(...).is_connected()`

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_expand_matches_oracle_random_cores(self, seed, k):
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        _, cores = random_cores(g, rng, k, 0.0)
        got = expand_overlap(g, core_membership(g.n, cores))
        assert [o.tolist() for o in got] == [overlap_oracle(g, c) for c in cores]
        assert all(o.dtype == np.int64 for o in got)

    def test_overlapping_cores_rejected(self, path10):
        cores = [np.array([0, 1, 2, 3]), np.array([3, 4, 5]), np.arange(6, 10)]
        with pytest.raises(ValueError, match="vertex 3 lies in 2 cores"):
            core_membership(10, cores)

    def test_uncovered_vertex_named(self):
        with pytest.raises(ValueError, match="^vertex 4 lies in no core$"):
            core_membership(10, [np.arange(4), np.arange(7, 10), np.array([5, 6])])
        with pytest.raises(ValueError, match="^vertex 0 lies in no core$"):
            core_membership(3, [])


class TestCoverSerialization:
    def test_roundtrip(self, two_triangle):
        W = np.array([0, 4])
        cover = detect_communities(two_triangle, W, DetectionParams())
        doc = cover.to_json_dict()
        assert doc["format_version"] == FORMAT_VERSION
        back = Cover.from_json_dict(doc, two_triangle.n, W)
        assert back.samples.tolist() == W.tolist()
        assert back.samples.dtype == np.int64
        assert len(back.communities) == len(cover.communities)
        for a, b in zip(back.communities, cover.communities):
            assert a.core.tolist() == b.core.tolist()
            assert a.overlap.tolist() == b.overlap.tolist()

    def test_out_of_range_sample_rejected(self, two_triangle):
        # W is read as the graph's vertex set, so an id past the graph is not dropped
        doc = detect_communities(two_triangle, np.array([0, 4]), DetectionParams()).to_json_dict()
        with pytest.raises(OutOfRangeError):
            Cover.from_json_dict(doc, two_triangle.n, np.array([0, 4, 6]))

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([0, 0], "community id 0 is repeated"),
            ([0, 5], "community id 1 is missing"),
            ([1, 2], "community id 0 is missing"),
            ([2, 0, 0], "community id 0 is repeated"),
        ],
    )
    def test_community_ids_must_be_0_to_k_minus_1(self, two_triangle, ids, message):
        # two communities of id 0 loaded as two, and ids [0, 5] were written back as [0, 1]
        cores = [[0, 1, 2], [3, 4, 5], [2]]
        doc = {"communities": [{"id": i, "core": c, "overlap": []} for i, c in zip(ids, cores)]}
        with pytest.raises(ValueError, match=f"^{message}$"):
            Cover.from_json_dict(doc, two_triangle.n, np.array([0, 4]))

    def test_community_ids_in_any_order(self, two_triangle):
        doc = {
            "communities": [
                {"id": 1, "core": [3, 4, 5], "overlap": [2]},
                {"id": 0, "core": [0, 1, 2], "overlap": []},
            ]
        }
        cover = Cover.from_json_dict(doc, two_triangle.n, np.array([0, 4]))
        assert [c.core.tolist() for c in cover.communities] == [[0, 1, 2], [3, 4, 5]]
        assert [e["id"] for e in cover.to_json_dict()["communities"]] == [0, 1]

    def test_boolean_in_core_rejected(self, two_triangle):
        # the JSON core [true, 2, 0, 3] was read as [0, 1, 2, 3]
        doc = json.loads(
            '{"communities": [{"id": 0, "core": [true, 2, 0, 3], "overlap": []},'
            ' {"id": 1, "core": [4, 5], "overlap": []}]}'
        )
        with pytest.raises(ValueError, match=r"^vertex id True at position 0 is a boolean"):
            Cover.from_json_dict(doc, two_triangle.n, np.array([0, 4]))

    def test_provenance_schema(self, minnesota):
        # a cover that logs all six actions
        W = sample_nodes(minnesota.n, 200, 0)
        cover = detect_communities(minnesota, W, DetectionParams())
        keys = {
            "katz": {"action", "alpha"},
            "split": {"action", "core_id", "dq"},
            "split_rejected": {"action", "core_id", "dq"},
            "merge": {"action"},
            "merge_disconnected": {"action"},
            "expand": {"action", "q_after"},
        }
        for entry in cover.provenance:
            assert set(entry) == keys[entry["action"]]
        actions = [e["action"] for e in cover.provenance]
        assert actions[0] == "katz" and actions[-1] == "expand"
        assert [actions.count(a) for a in keys] == [1, 52, 43, 24, 11, 1]


def test_structural_suite_random_graphs():
    for seed in range(40):
        g = random_connected_graph(seed)
        rng = np.random.default_rng(1000 + seed)
        W = np.unique(rng.integers(0, g.n, max(1, g.n // 2)))
        cover = detect_communities(g, W, DetectionParams())
        check_cover_invariants(g, W, cover)
