import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gbfpum import (
    DetectionParams,
    Graph,
    default_alpha,
    detect_communities,
    jaccard_communities,
    katz_centrality,
    modularity,
)
from gbfpum.community import (
    Cover,
    core_membership,
    expand_overlap,
    merge_small,
    split_community,
)

from conftest import neighbors, random_connected_graph


def global_katz(g):
    return katz_centrality(g, default_alpha(g))


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


def overlap_oracle(g, core, p):
    """Per-vertex overlap ring: r(v) picks v's 2-hop or 1-hop neighborhood."""
    core_set = set(core.tolist())
    extra = set()
    for v in core.tolist():
        nb = neighbors(g, v)
        if not nb:
            continue
        r = sum(w in core_set for w in nb) / len(nb)
        if r <= p.t_low:
            extra.update(nb)
            for u in nb:
                extra.update(neighbors(g, u))
        elif r <= p.t_high:
            extra.update(nb)
    return sorted(extra - core_set)


def replay_split_log(g, W, katz, provenance):
    """Rebuild the cores each scored split saw, following the log's decisions.

    Yields (entry, membership before, candidate membership) for every `split`
    and `split_rejected` entry, calling `split_community` afresh each time.
    """
    log = iter(e for e in provenance if e["action"] in ("split", "split_rejected"))
    cores = [np.arange(g.n)]
    accepted = True  # a pass runs again only after a pass that accepted a split
    while len(cores) <= len(W) and accepted:
        accepted = False
        for cid in range(len(cores)):
            if len(cores) + 1 > len(W):
                break
            parts = split_community(g, cores[cid], W, katz)
            if parts is None:
                continue
            candidate = cores[:cid] + [parts[0]] + cores[cid + 1 :] + [parts[1]]
            entry = next(log)
            yield entry, core_membership(g.n, cores), core_membership(g.n, candidate)
            if entry["action"] == "split":
                cores, accepted = candidate, True
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
        provenance.append({"action": action, "q_before": None, "q_after": None})

    big_ids = [i for i, c in enumerate(cores) if len(c) >= threshold]
    if big_ids:
        bigs = {i: cores[i] for i in big_ids}
        for sid, small in enumerate(cores):
            if sid in bigs:
                continue
            best = pick(small, [(b, bigs[b]) for b in big_ids])
            bigs[best] = np.union1d(bigs[best], small)
            log(bigs[best])
        return [bigs[i] for i in big_ids], near_tie
    while len(cores) > 1 and any(len(c) < threshold for c in cores):
        src = sorted((-len(c), i) for i, c in enumerate(cores))[0][1]
        best = pick(cores[src], [(j, c) for j, c in enumerate(cores) if j != src])
        lo, hi = min(src, best), max(src, best)
        union = np.union1d(cores[lo], cores[hi])
        log(union)
        cores = [c for i, c in enumerate(cores) if i not in (lo, hi)]
        cores.insert(lo, union)
    return cores, near_tie


def check_cover_invariants(g, W, cover):
    cores = [c.core for c in cover.communities]
    allcore = np.concatenate(cores)
    assert len(allcore) == len(np.unique(allcore)) == g.n  # disjoint partition
    union = np.unique(np.concatenate([c.subdomain for c in cover.communities]))
    assert np.array_equal(union, np.arange(g.n))
    assert len(cover.communities) <= len(W)
    for c in cover.communities:
        assert len(c.interpolation_nodes) >= 1
        assert len(np.intersect1d(c.core, c.overlap)) == 0
    accepted = [e for e in cover.provenance if e["action"] == "split"]
    qs = [e["q_before"] for e in accepted] + [e["q_after"] for e in accepted[-1:]]
    assert all(a < b for a, b in zip(qs, qs[1:]))


class TestSplitCommunity:
    def test_single_edge_core(self):
        g = Graph.from_edges(2, [(0, 1)])
        W = np.array([0, 1])
        sides = split_community(g, np.arange(2), W, global_katz(g))
        assert sides is not None
        assert sorted(map(tuple, (s.tolist() for s in sides))) == [(0,), (1,)]

    def test_too_few_samples_no_split(self, two_triangle):
        got = split_community(
            two_triangle, np.arange(6), np.array([2]), global_katz(two_triangle)
        )
        assert got is None

    def test_two_triangle_hand_trace(self, two_triangle):
        sides = split_community(
            two_triangle, np.arange(6), np.array([0, 4]), global_katz(two_triangle)
        )
        got = sorted(s.tolist() for s in sides)
        assert got == [[0, 1, 2], [3, 4, 5]]

    def test_sides_connected_and_partition_core(self):
        for seed in range(25):
            g = random_connected_graph(seed)
            rng = np.random.default_rng(seed)
            W = np.unique(rng.integers(0, g.n, max(2, g.n // 3)))
            sides = split_community(g, np.arange(g.n), W, global_katz(g))
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
        side1, side2 = split_community(path10, core, np.array([1, 5]), katz)
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
        katz = global_katz(g)
        got = split_community(g, core, W, katz)
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
        cover = detect_communities(g, W, DetectionParams())
        for entry, before, after in replay_split_log(g, W, global_katz(g), cover.provenance):
            assert entry["q_before"].hex() == modularity(g, before).hex()
            assert entry["q_after"].hex() == modularity(g, after).hex()

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
        assert split[0]["q_before"] == pytest.approx(0.0, abs=1e-12)
        assert split[0]["q_after"] == pytest.approx(5 / 14, abs=1e-12)

    def test_path10_all_samples_monotone_log(self, path10):
        cover = detect_communities(path10, np.arange(10), DetectionParams())
        check_cover_invariants(path10, np.arange(10), cover)
        accepted = [e for e in cover.provenance if e["action"] == "split"]
        assert accepted, "a path should admit at least one modularity-raising split"

    def test_bad_params(self):
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                DetectionParams(alpha=alpha)

    def test_determinism(self, geometric200):
        W = np.arange(0, 200, 7)
        p = DetectionParams()
        a = detect_communities(geometric200, W, p).to_json()
        b = detect_communities(geometric200, W, p).to_json()
        assert a == b


class TestMergeSmall:
    def test_all_big_unchanged(self, two_triangle):
        cores = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        got = merge_small(two_triangle, cores, DetectionParams(), [])
        assert [c.tolist() for c in got] == [c.tolist() for c in cores]

    def test_small_merges_into_most_similar_big(self):
        # lollipop: clique {0..4} with a pendant path 4-5; small core {5}
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5)]
        g = Graph.from_edges(6, edges)
        cores = [np.arange(5), np.array([5])]
        got = merge_small(g, cores, DetectionParams(small_fraction=0.3), [])
        assert len(got) == 1
        assert got[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_most_similar_wins(self):
        # two cliques bridged by vertex 8; the singleton {8} is adjacent to both,
        # but its neighborhood overlaps clique A's vertices more than clique B's
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        edges += [(8, 0), (8, 1), (8, 2), (8, 4)]
        g = Graph.from_edges(9, edges)
        cores = [np.arange(4), np.arange(4, 8), np.array([8])]
        got = merge_small(g, cores, DetectionParams(small_fraction=0.3), [])
        assert sorted(c.tolist() for c in got) == [[0, 1, 2, 3, 8], [4, 5, 6, 7]]

    def test_no_big_community_fallback(self, path10):
        cores = [np.array([i]) for i in range(10)]
        got = merge_small(path10, cores, DetectionParams(small_fraction=0.2), [])
        assert len(got) >= 1
        allv = np.concatenate(got)
        assert np.array_equal(np.sort(allv), np.arange(10))
        thr = int(np.ceil(0.2 * 10))
        assert all(len(c) >= thr for c in got) or len(got) == 1

    def test_ties_go_to_lowest_id(self):
        # path 0..8: the small core {4} is equally similar to its mirror images
        g = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
        cores = [np.arange(4), np.array([4]), np.arange(5, 9)]
        got = merge_small(g, cores, DetectionParams(small_fraction=0.3), [])
        assert [c.tolist() for c in got] == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
        # no big core, and every pair of singletons shares no neighbour: the
        # lowest id wins each tie, so only the first union is connected
        g = Graph.from_edges(4, [(0, 1), (2, 3)], require_connected=False)
        prov = []
        merge_small(g, [np.array([v]) for v in range(4)], DetectionParams(small_fraction=0.4), prov)
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
        got = merge_small(g, cores, p, got_log)
        assert [c.tolist() for c in got] == [c.tolist() for c in expect]
        assert got_log == expect_log

    def test_disconnected_merge_logged(self):
        # star: small cores {1} and {2} are not adjacent; merging smalls among
        # themselves can produce a disconnected core
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        prov = []
        merge_small(
            g,
            [np.array([0, 3]), np.array([1]), np.array([2])],
            DetectionParams(small_fraction=0.5),
            prov,
        )
        assert any(e["action"].startswith("merge") for e in prov)


class TestExpandOverlap:
    def test_no_boundary_no_overlap(self, two_triangle):
        overlaps = expand_overlap(two_triangle, [np.arange(6)], DetectionParams())
        assert overlaps[0].tolist() == []

    def test_ratio_06_distance1(self):
        # vertex 0 has 5 neighbors, 3 internal -> r = 0.6 -> 1-hop expansion
        edges = [(0, 1), (0, 2), (0, 3), (0, 8), (0, 9), (1, 2), (2, 3), (8, 9), (8, 4), (9, 4)]
        g = Graph.from_edges(10, edges + [(4, 5), (5, 6), (6, 7)])
        core = np.array([0, 1, 2, 3])
        overlaps = expand_overlap(g, [core], DetectionParams())
        # r(0)=3/5=0.6; r(1)=r(3)=1? 1's nbrs {0,2} internal -> 1.0; 3's {0,2} -> 1.0
        assert overlaps[0].tolist() == [8, 9]

    def test_ratio_025_distance2(self):
        # vertex 0: 4 neighbors, 1 internal -> r = 0.25 -> 2-hop expansion
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (3, 5), (4, 6), (6, 7), (1, 7)]
        g = Graph.from_edges(8, edges)
        core = np.array([0, 1])
        overlaps = expand_overlap(g, [core], DetectionParams())
        # N(0) at distance <= 2: {2,3,4} plus their/1's neighbors {5,6,7}
        assert set(overlaps[0].tolist()) >= {2, 3, 4, 5, 6}

    def test_idempotent(self, geometric200):
        cover = detect_communities(geometric200, np.arange(0, 200, 11), DetectionParams())
        cores = [c.core for c in cover.communities]
        once = expand_overlap(geometric200, cores, DetectionParams())
        twice = expand_overlap(geometric200, cores, DetectionParams())
        assert all(a.tolist() == b.tolist() for a, b in zip(once, twice))

    def test_cores_untouched(self, two_triangle):
        cores = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        before = [c.copy() for c in cores]
        expand_overlap(two_triangle, cores, DetectionParams())
        assert all(a.tolist() == b.tolist() for a, b in zip(cores, before))


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.floats(0.05, 0.6),
        st.floats(0.05, 0.4),
    )
    def test_matches_per_vertex_oracle(self, seed, t_low, gap):
        g = random_connected_graph(seed, n_max=30)
        rng = np.random.default_rng(seed)
        member = rng.integers(0, 4, g.n)
        cores = [np.flatnonzero(member == k) for k in np.unique(member)]
        p = DetectionParams(t_low=t_low, t_high=min(t_low + gap, 1.0))
        got = expand_overlap(g, cores, p)
        assert [o.tolist() for o in got] == [overlap_oracle(g, c, p) for c in cores]


class TestCoverSerialization:
    def test_roundtrip(self, two_triangle):
        W = np.array([0, 4])
        cover = detect_communities(two_triangle, W, DetectionParams())
        doc = cover.to_json_dict()
        assert doc["format_version"] == 1
        back = Cover.from_json_dict(doc, two_triangle.n, W)
        assert len(back.communities) == len(cover.communities)
        for a, b in zip(back.communities, cover.communities):
            assert a.core.tolist() == b.core.tolist()
            assert a.overlap.tolist() == b.overlap.tolist()
            assert a.interpolation_nodes.tolist() == b.interpolation_nodes.tolist()

    def test_provenance_schema(self, two_triangle):
        cover = detect_communities(two_triangle, np.array([0, 4]), DetectionParams())
        for entry in cover.provenance:
            assert {"action", "q_before", "q_after"} <= set(entry)


def test_structural_suite_random_graphs():
    for seed in range(40):
        g = random_connected_graph(seed)
        rng = np.random.default_rng(1000 + seed)
        W = np.unique(rng.integers(0, g.n, max(1, g.n // 2)))
        cover = detect_communities(g, W, DetectionParams())
        check_cover_invariants(g, W, cover)
