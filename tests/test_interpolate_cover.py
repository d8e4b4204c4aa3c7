"""The interpolation stage `interpolate_cover`: native route, kernel route, pieces."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

import gbfpum.kernel
import gbfpum.metrics
import gbfpum.numerics
import gbfpum.pum
from gbfpum import (
    DetectionParams,
    Graph,
    KernelParams,
    assemble_global,
    build_pu,
    detect_communities,
    gbf_kernel,
    global_gbf_baseline,
    interpolate_cover,
    load_graph,
    run_pipeline,
    sample_nodes,
    spd_solve,
    synthetic_signal,
)
from gbfpum.cli import EXIT_NUMERICAL, main
from gbfpum.community import Community, Cover
from gbfpum.errors import (
    EmptySetError,
    NonFiniteResidualError,
    NumericalError,
    OutOfRangeError,
    SampleFreePieceError,
)

from conftest import DATA, community_interpolant, path_graph, random_connected_graph


def blend(g: Graph, cover: Cover, y: np.ndarray, locals_: list[np.ndarray]) -> np.ndarray:
    """Local interpolants blended by 1/multiplicity, y kept at the samples."""
    approx = assemble_global(cover, build_pu(cover, g.n), np.concatenate(locals_), g.n)
    approx[cover.samples] = y[cover.samples]
    return approx


def piecewise_interpolant(
    g: Graph, c: Community, W: np.ndarray, y: np.ndarray, kp: KernelParams
) -> tuple[np.ndarray, list[float]]:
    """`local_interpolant` at W on each piece of c's subdomain, indexed like it; the residuals."""
    out = np.empty(len(c.subdomain))
    resid = []
    for vs in piece_sets(g, c.subdomain):
        piece = Community(vs, np.array([], int))
        out[np.searchsorted(c.subdomain, vs)], r = community_interpolant(g, piece, W, y, kp)
        resid.append(r)
    return out, resid


def community_residual(piece_residuals: list[float], y_nodes: np.ndarray) -> float:
    """Relative residual of a community's K[W,W] system, block diagonal over its pieces."""
    return float(np.linalg.norm(piece_residuals) / max(np.linalg.norm(y_nodes), 1.0))


def kernel_route(g: Graph, cover: Cover, y: np.ndarray, kp: KernelParams) -> np.ndarray:
    """Per-piece kernel interpolants of every community, blended."""
    locals_ = [piecewise_interpolant(g, c, cover.samples, y, kp)[0] for c in cover.communities]
    return blend(g, cover, y, locals_)


def whole_subdomain_route(g: Graph, cover: Cover, y: np.ndarray, kp: KernelParams) -> np.ndarray:
    """One dense kernel and one Cholesky solve per whole subdomain, however many pieces, blended."""
    locals_ = []
    for c in cover.communities:
        sub, vs = g.induced_subgraph(c.subdomain)
        W = np.intersect1d(vs, cover.samples)
        nodes = np.searchsorted(vs, W)
        Kw = gbf_kernel(sub.laplacian(), kp, nodes)
        locals_.append(Kw @ spd_solve(Kw[nodes], y[W]))
    return blend(g, cover, y, locals_)


def cover_of(*parts) -> Cover:
    """Cover of the (core, samples) pairs `parts`, with W the union of their samples."""
    comms = [Community(np.array(core, dtype=np.int64), np.array([], int)) for core, _ in parts]
    return Cover(comms, np.unique(np.concatenate([np.array(w, dtype=np.int64) for _, w in parts])))


def piece_sets(g: Graph, subdomain: np.ndarray) -> list[np.ndarray]:
    """Vertex sets of the connected pieces of the subgraph induced by `subdomain`."""
    sub, vs = g.induced_subgraph(subdomain)
    count, label = csgraph.connected_components(sub.adjacency(), directed=False)
    return [vs[label == p] for p in range(count)]


def independent_pieces(g: Graph, c: Community, W: np.ndarray) -> list[tuple[int, int]]:
    """(size, sample count in W) of each connected piece of c's subdomain."""
    return [(len(vs), int(np.isin(vs, W).sum())) for vs in piece_sets(g, c.subdomain)]


def precision_rows_reference(
    union: Graph, sampled: np.ndarray, y: np.ndarray, kp: KernelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`pum._native_solve` from the whole power A = M^s, sliced at the unsampled rows U."""
    M = union.sparse_laplacian(kp.epsilon)
    A = M
    for _ in range(int(kp.s) - 1):
        A = A @ M
    A = A.tocsr()
    U, S = np.flatnonzero(~sampled), np.flatnonzero(sampled)
    A_uu = A[U][:, U]
    b = -(A[U][:, S] @ y[S])
    f = y.copy()
    f[U] = gbfpum.numerics.sparse_lu(A_uu).solve(b)
    r2, b2 = np.zeros(union.n), np.zeros(union.n)
    r2[U] = (A_uu @ f[U] - b) ** 2
    b2[U] = b**2
    return f, r2, b2


def native_inputs(g: Graph, cover: Cover, y: np.ndarray) -> tuple:
    """(union, sampled, y on the copies): the native solver's inputs, as the stage builds them."""
    subs = [c.subdomain for c in cover.communities]
    copies = np.concatenate(subs)
    sampled = np.isin(copies, cover.samples)
    return g.disjoint_union(subs), sampled, np.where(sampled, y[copies], 0.0)


@pytest.fixture(scope="module")
def road_covers(minnesota):
    return {
        count: detect_communities(minnesota, sample_nodes(minnesota.n, count, 0), DetectionParams())
        for count in (200, 400, 600, 800)
    }


class TestNativeRoute:
    # At s = 3 and epsilon = 0.01, (eps I + L)^3 has condition number near 1e9
    # on the road graph, and both routes sit up to ~1e-9 max|y| from a refined
    # solve at N = 200; epsilon = 0.05 keeps s = 3 well inside 1e-10.
    @pytest.mark.parametrize("s,eps", [(1, 0.01), (2, 0.01), (3, 0.05)])
    def test_matches_kernel_route_on_road_graph(self, minnesota, minnesota_signal, road_covers, s, eps):
        kp = KernelParams(epsilon=eps, s=float(s))
        scale = np.abs(minnesota_signal).max()
        for count, cover in road_covers.items():
            native, _, _ = interpolate_cover(minnesota, cover, minnesota_signal, kp)
            ref = kernel_route(minnesota, cover, minnesota_signal, kp)
            assert np.abs(native - ref).max() <= 1e-10 * scale, count

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1.0, 2.0, 3.0]))
    def test_matches_kernel_route_on_random_graphs(self, seed, s):
        g = random_connected_graph(seed)
        rng = np.random.default_rng(seed)
        W = np.flatnonzero(rng.random(g.n) < 0.3)
        if len(W) == 0:
            W = np.array([0])
        y = rng.standard_normal(g.n)
        cover = detect_communities(g, W, DetectionParams())
        kp = KernelParams(epsilon=0.5, s=s)
        native, _, _ = interpolate_cover(g, cover, y, kp)
        ref = kernel_route(g, cover, y, kp)
        assert np.abs(native - ref).max() <= 1e-10 * np.abs(y).max()

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("graph", ["geometric200", "minnesota"])
    def test_rows_at_unsampled_copies_match_whole_power(self, request, road_covers, graph, s):
        # A[U, :] from row products of M is the whole power's rows at U bit for bit,
        # and y = 0 off the samples, so the full row product is A[U, S] y[S]
        g = request.getfixturevalue(graph)
        if graph == "minnesota":
            cover, y = road_covers[200], request.getfixturevalue("minnesota_signal")
        else:
            cover = detect_communities(g, sample_nodes(g.n, 40, 0), DetectionParams())
            y = synthetic_signal(g)
        union, sampled, y_copies = native_inputs(g, cover, y)
        kp = KernelParams(s=float(s))
        got = gbfpum.pum._native_solve(union, None, sampled, y_copies, kp)  # reads no pieces
        want = precision_rows_reference(union, sampled, y_copies, kp)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_samples_exact_and_calls_bit_identical(self, minnesota, minnesota_signal, road_covers):
        # both routes of the stage and the global baseline hold y at W bit for bit
        W = sample_nodes(minnesota.n, 400, 0)
        y = minnesota_signal
        for s in (2.0, 1.5):
            a, diags, _ = interpolate_cover(minnesota, road_covers[400], y, KernelParams(s=s))
            b, _, _ = interpolate_cover(minnesota, road_covers[400], y, KernelParams(s=s))
            assert np.array_equal(a[W], y[W]), s
            assert np.array_equal(a, b)
            assert all(d.solve_residual <= 1e-10 for d in diags)
            comms = road_covers[400].communities
            assert [d.subdomain_size for d in diags] == [len(c.subdomain) for c in comms]
            assert [d.sample_count for d in diags] == [
                len(np.intersect1d(c.subdomain, W)) for c in comms
            ]
        base = global_gbf_baseline(minnesota, y, W, KernelParams())
        again = global_gbf_baseline(minnesota, y, W, KernelParams())
        assert np.array_equal(base.approximant[W], y[W])
        assert np.array_equal(base.approximant, again.approximant)

    def test_one_sparse_lu_per_integer_pipeline(self, monkeypatch):
        calls = {}
        for module in (gbfpum.metrics, gbfpum.kernel, gbfpum.pum):
            name = module.__name__.split(".")[-1]
            original = getattr(module, "sparse_lu")

            def counted(M, name=name, original=original):
                calls[name] = calls.get(name, 0) + 1
                return original(M)

            monkeypatch.setattr(module, "sparse_lu", counted)
        with open(DATA / "geometric_200.edges") as fh:
            g = load_graph(fh)  # a fresh graph: no Katz vector memoised yet
        y = np.cos(np.arange(g.n))
        run_pipeline(g, y, sample_nodes(200, 40, 1), DetectionParams(), KernelParams())
        # Katz centrality in detection, then one factor for every community
        assert calls == {"metrics": 1, "pum": 1}
        calls.clear()
        run_pipeline(g, y, sample_nodes(200, 40, 2), DetectionParams(), KernelParams())
        # the same graph again: Katz comes from its memo, only the communities are factored
        assert calls == {"pum": 1}

    def test_fractional_s_keeps_kernel_route(self, geometric200):
        W = sample_nodes(200, 40, 2)
        y = np.sin(np.arange(200) / 7.0)
        cover = detect_communities(geometric200, W, DetectionParams())
        kp = KernelParams(s=1.5)
        got, diags, _ = interpolate_cover(geometric200, cover, y, kp)
        assert np.array_equal(got, kernel_route(geometric200, cover, y, kp))
        assert [d.community_id for d in diags] == list(range(len(cover.communities)))

    def test_all_sampled_community(self, path10):
        # no unsampled copy: nothing to factor, the samples are the answer
        y = np.arange(10.0)
        got, diags, _ = interpolate_cover(path10, cover_of((range(10), range(10))), y, KernelParams())
        assert np.array_equal(got, y)
        assert diags[0].solve_residual == 0.0

    def test_overflowing_residual_names_the_community(self, path10):
        # entries of A = (eps I + L)^s near eps^s overflow when squared. Community 0's
        # samples hold y = 0, so its right-hand side and residual are 0 and finite.
        cover = cover_of((range(5), [2]), (range(5, 10), [7]))
        y = np.where(np.arange(10) < 5, 0.0, 1.0)
        with pytest.raises(NonFiniteResidualError) as exc:
            interpolate_cover(path10, cover, y, KernelParams(epsilon=1e6, s=30))
        assert exc.value.community_id == 1
        assert isinstance(exc.value, NumericalError)

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_overflowing_signal_raises(self, path10, s):
        # the squares of signal values above about 1e154 overflow on either route
        cover = cover_of((range(10), [0, 5]))
        with pytest.raises(NonFiniteResidualError, match="^community 0: "):
            interpolate_cover(path10, cover, np.full(10, 1e200), KernelParams(s=s))

    def test_overflow_raises_rather_than_reporting_nan(self, geometric200):
        y = synthetic_signal(geometric200)
        W = sample_nodes(200, 30, 0)
        with pytest.raises(NonFiniteResidualError, match="^community 0: "):
            run_pipeline(geometric200, y, W, DetectionParams(), KernelParams(epsilon=1e6, s=30))
        # the kernel route at the same scale keeps its residuals finite
        res, _ = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams(epsilon=1e6, s=30.5))
        assert all(0 <= d.solve_residual <= 1e-12 for d in res.per_community)

    def test_community_without_samples(self, path10):
        # its pieces hold no sample, so the piece check names the lowest such community
        cover = cover_of((range(4), [2]), (range(4, 7), []), (range(7, 10), []))
        with pytest.raises(SampleFreePieceError) as exc:
            interpolate_cover(path10, cover, np.ones(10), KernelParams())
        assert exc.value.community_id == 1


class TestSignalCheck:
    # the stage checks the signal once, for interpolate_cover, run_pipeline and the baseline
    @staticmethod
    def stages(g, W):
        cover = detect_communities(g, W, DetectionParams())
        return [
            lambda y: interpolate_cover(g, cover, y, KernelParams()),
            lambda y: interpolate_cover(g, cover, y, KernelParams(s=1.5)),
            lambda y: run_pipeline(g, y, W, DetectionParams(), KernelParams()),
            lambda y: global_gbf_baseline(g, y, W, KernelParams()),
        ]

    @pytest.mark.parametrize("length", [199, 205])
    def test_wrong_length(self, geometric200, length):
        for stage in self.stages(geometric200, sample_nodes(200, 30, 0)):
            message = rf"^need one signal value per vertex \(200\), got {length}$"
            with pytest.raises(ValueError, match=message):
                stage(np.ones(length))

    @pytest.mark.parametrize("shape", [(200, 1), (1, 200), ()])
    def test_not_flat(self, geometric200, shape):
        # a column vector once passed the length check and was broadcast to
        # an array of copies x copies before numpy raised
        for stage in self.stages(geometric200, sample_nodes(200, 30, 0)):
            message = rf"^need a flat signal of 200 values, got shape {re.escape(str(shape))}$"
            with pytest.raises(ValueError, match=message):
                stage(np.ones(shape))

    @pytest.mark.parametrize(
        "y", [np.ones(200) + 1j, np.ones(200, dtype=object), np.full(200, "1")], ids=["complex", "object", "text"]
    )
    def test_not_real_named(self, geometric200, y):
        message = f"^need bool, integer or float values, got dtype {re.escape(str(y.dtype))}$"
        for stage in self.stages(geometric200, sample_nodes(200, 30, 0)):
            with pytest.raises(TypeError, match=message):
                stage(y)

    def test_list_and_integer_signals(self, geometric200):
        # run_pipeline raised "only integer scalar arrays can be converted to a scalar index" on a list
        g, W, kp = geometric200, sample_nodes(200, 30, 0), KernelParams()
        y = np.arange(200) % 7
        expect, _ = run_pipeline(g, y.astype(float), W, DetectionParams(), kp)
        for signal in (y.tolist(), y):
            got, _ = run_pipeline(g, signal, W, DetectionParams(), kp)
            assert np.array_equal(got.approximant, expect.approximant) and got.rrmse == expect.rrmse
        baseline = global_gbf_baseline(g, y.astype(float), W, kp).approximant
        assert np.array_equal(global_gbf_baseline(g, y.tolist(), W, kp).approximant, baseline)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, geometric200, bad):
        W = sample_nodes(200, 30, 0)
        y = np.ones(200)
        y[W[[3, 5]]] = bad
        y[np.setdiff1d(np.arange(W[3]), W)] = np.nan  # off the samples: never read
        message = rf"^signal value {bad} at sampled vertex {W[3]} is not finite$"
        for stage in self.stages(geometric200, W):
            with pytest.raises(ValueError, match=message):
                stage(y)


class TestSampleIds:
    # the stage checks the ids of a hand-built cover's samples before it indexes with them
    @staticmethod
    def whole(samples):
        return Cover([Community(np.arange(10), np.array([], int))], np.array(samples))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("samples, vertex", [([-1, 3], -1), ([3, 10], 10)], ids=["-1", "n"])
    def test_out_of_range(self, path10, s, samples, vertex):
        message = rf"^vertex {vertex} out of range for graph of order 10$"
        with pytest.raises(OutOfRangeError, match=message):
            interpolate_cover(path10, self.whole(samples), np.arange(10.0), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_order_and_repeats_ignored(self, path10, s):
        y = np.cos(np.arange(10.0))
        got = interpolate_cover(path10, self.whole([3, 3, 1]), y, KernelParams(s=s))[0]
        expect = interpolate_cover(path10, self.whole([1, 3]), y, KernelParams(s=s))[0]
        assert np.array_equal(got, expect)


class TestSubdomainIds:
    # build_pu checks a hand-built cover's subdomain ids before the stage indexes with them
    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("vertex", [-1, 10, 13], ids=["-1", "n", "n+3"])
    def test_out_of_range(self, path10, s, vertex):
        cover = cover_of((range(10), [0, 5]), ([3, vertex], [3]))
        message = rf"^vertex {vertex} out of range for graph of order 10$"
        with pytest.raises(OutOfRangeError, match=message):
            interpolate_cover(path10, cover, np.arange(10.0), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_empty_subdomain(self, path10, s):
        # it has no piece to hold a sample, so build_pu refuses it
        cover = cover_of((range(10), [2]), ([], []), ([], []))
        with pytest.raises(EmptySetError, match="^empty subdomain of community 1$"):
            interpolate_cover(path10, cover, np.ones(10), KernelParams(s=s))


class TestCommunityIds:
    # a hand-built community's core and overlap are read by the integer rule and held as int64
    @staticmethod
    def on_path4(core):
        cover = Cover([Community(core, [])], np.array([0, 3]))
        return interpolate_cover(path_graph(4), cover, np.cos(np.arange(4.0)), KernelParams())[0]

    def test_mask_refused(self):
        with pytest.raises(ValueError, match=r"^vertex ids are booleans; pass the ids of a mask"):
            self.on_path4(np.ones(4, dtype=bool))

    @pytest.mark.parametrize("core", [[0, 1, 2.5, 3], np.array([0, 1, 2.5, 3])])
    def test_fraction_named(self, core):
        with pytest.raises(ValueError, match=r"^vertex id 2\.5 at position 2 is not an integer$"):
            self.on_path4(core)

    def test_fraction_in_overlap_named(self):
        with pytest.raises(ValueError, match=r"^vertex id 0\.5 at position 0 is not an integer$"):
            Community(np.arange(4), np.array([0.5]))

    @pytest.mark.parametrize(
        "ids, named",
        [([0, 2**64], "18446744073709551616"), (np.array([2**63], dtype=np.uint64), "9223372036854775808"),
         ([-(2**63) - 1], "-9223372036854775809"), (np.array([1e19]), "1e\\+19")],
    )
    def test_id_int64_cannot_hold_named(self, ids, named):
        # the int64 cast would wrap it or raise numpy's OverflowError, naming nothing
        with pytest.raises(ValueError, match=f"^vertex id {named} lies outside int64$"):
            Community(np.arange(4), ids)

    @pytest.mark.parametrize(
        "core", [np.array([0.0, 1.0, 2.0, 3.0]), [0, 1, 2, 3], (0.0, 1, 2, 3), np.arange(4).reshape(2, 2)]
    )
    def test_integral_ids_read_as_flat_int64(self, core):
        # a (2, 2) core raised numpy's "all the input arrays must have same number of dimensions"
        c = Community(core, np.array([], dtype=float))
        assert c.core.dtype == c.overlap.dtype == np.int64 and c.core.ndim == 1
        assert np.array_equal(self.on_path4(core), self.on_path4(np.arange(4)))


class TestPieces:
    @staticmethod
    def split_cover(nodes_b):
        # on the path 0-...-9, community 1 = {5, 6} + {8, 9}: two pieces
        return cover_of((range(5), [2]), ([5, 6, 8, 9], nodes_b), ([7], [7]))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_sample_free_piece_raises(self, path10, s):
        with pytest.raises(SampleFreePieceError) as exc:
            interpolate_cover(path10, self.split_cover([9]), np.ones(10), KernelParams(s=s))
        assert (exc.value.community_id, exc.value.piece_size) == (1, 2)
        assert isinstance(exc.value, NumericalError)

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_pieces_reported(self, path10, s):
        cover = self.split_cover([5, 9])
        y = np.cos(np.arange(10.0))
        got, diags, _ = interpolate_cover(path10, cover, y, KernelParams(s=s))
        assert [(d.pieces, d.min_piece_samples) for d in diags] == [(1, 1), (2, 1), (1, 1)]
        assert np.abs(got - kernel_route(path10, cover, y, KernelParams(s=s))).max() <= 1e-12
        doc = asdict(diags[1])
        assert (doc["pieces"], doc["min_piece_samples"]) == (2, 1)

    def test_per_piece_route_by_hand(self, path10):
        # on the path 0-...-11 both subdomains fall into three pieces, one a single vertex
        g = path_graph(12)
        three = cover_of(([0, 1, 2, 4, 5, 8, 9, 10], [1, 4, 9, 10]), ([3, 6, 7, 11], [3, 6, 11]))
        kp = KernelParams(s=1.5)
        for graph, cover, pieces in (
            (g, three, [(3, 1), (3, 1)]),
            (path10, self.split_cover([5, 9]), [(1, 1), (2, 1), (1, 1)]),
        ):
            y = 5.0 * np.cos(np.arange(graph.n) / 3.0)
            got, diags, _ = interpolate_cover(graph, cover, y, kp)
            assert [(d.pieces, d.min_piece_samples) for d in diags] == pieces
            whole = whole_subdomain_route(graph, cover, y, kp)
            assert np.abs(got - whole).max() <= 1e-10 * np.abs(y).max()
            for c, d in zip(cover.communities, diags):
                resid = piecewise_interpolant(graph, c, cover.samples, y, kp)[1]
                expect = community_residual(resid, y[np.intersect1d(c.subdomain, cover.samples)])
                assert d.solve_residual == pytest.approx(expect, rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_per_piece_route_on_random_covers(self, seed, k):
        # cores are random vertex sets, so subdomains often fall into several pieces
        g = random_connected_graph(seed)
        rng = np.random.default_rng(seed)
        label = rng.permutation(np.arange(g.n) % k)
        extra = rng.random(g.n) < 0.15
        parts = [(np.flatnonzero(label == j), np.flatnonzero(extra & (label != j))) for j in range(k)]
        # one sample in every piece of every subdomain, plus a few more
        W = np.flatnonzero(rng.random(g.n) < 0.1)
        for core, ov in parts:
            for vs in piece_sets(g, np.union1d(core, ov)):
                W = np.union1d(W, [rng.choice(vs)])
        cover = Cover([Community(core, ov) for core, ov in parts], W)
        y = rng.standard_normal(g.n)
        kp = KernelParams(s=1.5)
        got, diags, _ = interpolate_cover(g, cover, y, kp)
        nodes = [np.intersect1d(c.subdomain, W) for c in cover.communities]
        assert [d.sample_count for d in diags] == [len(w) for w in nodes]
        pieces = [independent_pieces(g, c, W) for c in cover.communities]
        assert [(d.pieces, d.min_piece_samples) for d in diags] == [
            (len(ps), min(n for _, n in ps)) for ps in pieces
        ]
        assert np.abs(got - whole_subdomain_route(g, cover, y, kp)).max() <= 1e-10 * np.abs(y).max()
        per_piece = [piecewise_interpolant(g, c, W, y, kp) for c in cover.communities]
        assert np.array_equal(got, blend(g, cover, y, [values for values, _ in per_piece]))
        for w, d, (_, resid) in zip(nodes, diags, per_piece):
            expect = community_residual(resid, y[w])
            assert d.solve_residual == pytest.approx(expect, rel=1e-12, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 0.5))
    def test_detection_search_for_sample_free_pieces(self, seed, small_fraction):
        g = random_connected_graph(seed, n_max=60)
        rng = np.random.default_rng(seed)
        W = np.unique(rng.integers(0, g.n, int(rng.integers(1, max(2, g.n // 4)))))
        cover = detect_communities(g, W, DetectionParams(small_fraction=small_fraction))
        pieces = [independent_pieces(g, c, W) for c in cover.communities]
        free = [(cid, size) for cid, ps in enumerate(pieces) for size, k in ps if k == 0]
        if free:
            with pytest.raises(SampleFreePieceError) as exc:
                interpolate_cover(g, cover, np.ones(g.n), KernelParams())
            assert (exc.value.community_id, exc.value.piece_size) == free[0]
            return
        _, diags, _ = interpolate_cover(g, cover, np.ones(g.n), KernelParams())
        assert [(d.pieces, d.min_piece_samples) for d in diags] == [
            (len(ps), min(k for _, k in ps)) for ps in pieces
        ]

    def test_baseline_on_disconnected_graph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)], require_connected=False)
        with pytest.raises(SampleFreePieceError) as exc:
            global_gbf_baseline(g, np.ones(5), np.array([0]), KernelParams())
        assert (exc.value.community_id, exc.value.piece_size) == (0, 2)
        base = global_gbf_baseline(g, np.ones(5), np.array([0, 4]), KernelParams())
        assert (base.per_community[0].pieces, base.per_community[0].min_piece_samples) == (2, 1)

    def test_baseline_counts_pieces_before_solving(self, monkeypatch):
        calls = []
        original = gbfpum.pum.kernel_block

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(gbfpum.pum, "kernel_block", counted)
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)], require_connected=False)
        with pytest.raises(SampleFreePieceError):
            global_gbf_baseline(g, np.ones(5), np.array([0]), KernelParams())
        assert calls == []
        global_gbf_baseline(g, np.ones(5), np.array([0, 4]), KernelParams())
        # the wrapper sits on the baseline's kernel route, one block per piece of g
        assert calls == [1, 1]

    @pytest.mark.parametrize("s", [1.5, 2.0])
    def test_baseline_is_the_stage_on_one_subdomain(self, geometric200, s):
        # the baseline is the stage on the cover of one subdomain, the whole graph, on
        # the kernel route; interpolate_cover takes the native route at integer s
        W = sample_nodes(200, 40, 2)
        y = np.sin(np.arange(200) / 7.0)
        kp = KernelParams(s=s)
        base = global_gbf_baseline(geometric200, y, W, kp)
        whole = cover_of((range(200), W))
        got, diags, _ = interpolate_cover(geometric200, whole, y, kp)
        if s == 1.5:
            assert np.array_equal(base.approximant, got)
            assert base.per_community == diags
        else:
            assert np.abs(base.approximant - got).max() <= 1e-10 * np.abs(y).max()

    def test_cli_exit_code_and_json_keys(self, monkeypatch, tmp_path):
        out = tmp_path / "res.json"
        argv = ["interpolate", "--graph", str(DATA / "geometric_200.edges"), "--synthetic",
                "--n-samples", "30", "--out", str(out)]
        assert main(argv) == 0
        rows = json.loads(out.read_text())["per_community"]
        assert all(r["pieces"] >= 1 and r["min_piece_samples"] >= 1 for r in rows)

        def sample_free(*args):
            raise SampleFreePieceError(3, 7)

        monkeypatch.setattr("gbfpum.cli.run_pipeline", sample_free)
        assert main(argv) == EXIT_NUMERICAL


def test_path_pipeline_reports_one_piece_per_community():
    g = path_graph(30)
    y = np.sin(np.arange(30) / 4.0)
    res, cover = run_pipeline(g, y, np.array([2, 14, 27]), DetectionParams(), KernelParams())
    assert len(res.per_community) == len(cover.communities)
    assert all(d.pieces == 1 and d.min_piece_samples >= 1 for d in res.per_community)
