import re

import numpy as np
import pytest
from scipy.linalg import eigh

from gbfpum import (
    DetectionParams,
    Graph,
    KernelParams,
    assemble_global,
    build_pu,
    detect_communities,
    global_gbf_baseline,
    local_interpolant,
    rrmse,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)
from gbfpum.community import Community, Cover
from gbfpum.errors import (
    EmptySetError,
    OutOfRangeError,
    SampleFreePieceError,
    UncoveredVertexError,
    ZeroSignalError,
)

from conftest import community_interpolant, path_graph



def _community(core, overlap=()):
    return Community(core=np.array(core, dtype=np.int64), overlap=np.array(overlap, dtype=np.int64))


def _samples(*ids):
    return np.array(ids, dtype=np.int64)


class TestPartitionOfUnity:
    def test_single_membership_weight_one(self):
        cover = Cover([_community([0, 1, 2])], _samples(0))
        pu = build_pu(cover, 3)
        assert pu.weights(np.array([0, 1, 2])).tolist() == [1.0, 1.0, 1.0]

    def test_double_membership_half(self):
        cover = Cover([_community([0, 1], [2]), _community([2], [1])], _samples(0, 2))
        pu = build_pu(cover, 3)
        assert pu.multiplicity.tolist() == [1, 2, 2]
        assert pu.weights(np.array([1, 2])).tolist() == [0.5, 0.5]

    def test_uncovered_vertex(self):
        cover = Cover([_community([0, 1])], _samples(0))
        with pytest.raises(UncoveredVertexError):
            build_pu(cover, 3)

    @pytest.mark.parametrize("cores, first", [([[0, 1]], 2), ([[3], [1, 4]], 0), ([], 0)])
    def test_lowest_uncovered_vertex_named(self, cores, first):
        cover = Cover([_community(core) for core in cores], _samples(*(core[0] for core in cores)))
        with pytest.raises(UncoveredVertexError) as exc:
            build_pu(cover, 5)
        assert exc.value.vertex == first

    @pytest.mark.parametrize(
        "cores, vertex", [([[0, 1, 2], [3]], 3), ([[0, 1, 2, 5], [-2, -1]], -2), ([[0, 1, 2], [7], [4]], 7)]
    )
    def test_out_of_range_id_named(self, cores, vertex):
        # the lowest id below 0, else the highest, before any vertex is counted
        cover = Cover([_community(core) for core in cores], _samples(0))
        with pytest.raises(OutOfRangeError, match=rf"^vertex {vertex} out of range for graph of order 3$"):
            build_pu(cover, 3)

    def test_empty_subdomain_named(self):
        cover = Cover([_community([0, 1, 2]), _community([]), _community([])], _samples(0))
        with pytest.raises(EmptySetError, match="^empty subdomain of community 1$"):
            build_pu(cover, 3)

    def test_weights_sum_to_one(self, geometric200):
        W = sample_nodes(geometric200.n, 40, seed=3)
        cover = detect_communities(geometric200, W, DetectionParams())
        pu = build_pu(cover, geometric200.n)
        total = np.zeros(geometric200.n)
        for c in cover.communities:
            sub = c.subdomain
            total[sub] += pu.weights(sub)
        assert np.abs(total - 1.0).max() <= 1e-12


class TestLocalInterpolant:
    def test_single_vertex_subdomain(self, path3):
        c = _community([1])
        y = np.array([0.0, 5.0, 0.0])
        s, _ = community_interpolant(path3, c, _samples(1), y, KernelParams())
        assert s[0] == pytest.approx(5.0, rel=1e-12)
        assert len(s) == 1

    def test_all_nodes_constant_signal(self, two_triangle):
        c = _community(range(6))
        y = np.ones(6)
        s, _ = community_interpolant(two_triangle, c, np.arange(6), y, KernelParams())
        assert np.abs(s - 1.0).max() <= 1e-7

    def test_single_edge_hand_solution(self):
        g = Graph.from_edges(2, [(0, 1)])
        c = _community([0, 1])
        y = np.array([1.0, 0.0])
        s, _ = community_interpolant(g, c, _samples(0), y, KernelParams(epsilon=1.0, s=1.0))
        # K = [[2/3,1/3],[1/3,2/3]], a = 1.5, s = (1, 0.5)
        assert np.allclose(s, [1.0, 0.5], atol=1e-12)

    def test_exact_at_samples(self, geometric200):
        W = sample_nodes(geometric200.n, 50, seed=1)
        y = synthetic_signal(geometric200)
        cover = detect_communities(geometric200, W, DetectionParams())
        for cid, c in enumerate(cover.communities):
            s, resid = community_interpolant(geometric200, c, W, y, KernelParams())
            sub = c.subdomain
            nodes = np.intersect1d(sub, W)
            pos = np.searchsorted(sub, nodes)
            rel = np.abs(s[pos] - y[nodes]) / np.maximum(np.abs(y[nodes]), 1e-30)
            assert rel.max() <= 1e-7
            assert resid <= 1e-6

    def test_no_samples(self, path3):
        c = _community([0, 1])
        with pytest.raises(EmptySetError, match="^empty interpolation node set$"):
            community_interpolant(path3, c, _samples(2), np.zeros(3), KernelParams())

    def test_locality(self, path10):
        # changing the signal outside the subdomain leaves the local solution alone
        c = _community([0, 1, 2], [3])
        y1 = synthetic_signal(path10)
        y2 = y1.copy()
        y2[7] += 100.0
        s1, _ = community_interpolant(path10, c, _samples(0, 2), y1, KernelParams())
        s2, _ = community_interpolant(path10, c, _samples(0, 2), y2, KernelParams())
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize(
        "values",
        [np.array([1.0, 2.0]) + 1j, np.array([1.0, 2.0], dtype=object), np.array(["1", "2"])],
        ids=["complex", "object", "text"],
    )
    def test_values_not_real_named(self, path3, values, s):
        # complex values gave the real part's interpolant with a ComplexWarning; text was parsed
        message = f"need bool, integer or float values, got dtype {values.dtype}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            local_interpolant(path3, np.array([0, 2]), values, KernelParams(s=s))

    def test_integer_and_list_values_read_as_floats(self, path3):
        nodes, kp = np.array([0, 2]), KernelParams()
        expect, _ = local_interpolant(path3, nodes, np.array([1.0, 3.0]), kp)
        for values in ([1, 3], np.array([1, 3], dtype=np.int32)):
            assert np.array_equal(local_interpolant(path3, nodes, values, kp)[0], expect)


class TestAssembleAndRrmse:
    def test_single_community_identity(self, path3):
        cover = Cover([_community([0, 1, 2])], _samples(0))
        pu = build_pu(cover, 3)
        s = np.array([1.0, 2.0, 3.0])
        assert assemble_global(cover, pu, s, 3).tolist() == [1.0, 2.0, 3.0]

    def test_two_subdomain_average(self):
        cover = Cover([_community([0], [1]), _community([1], [0])], _samples(0, 1))
        pu = build_pu(cover, 2)
        out = assemble_global(cover, pu, np.array([2.0, 2.0, 4.0, 4.0]), 2)
        assert out.tolist() == [3.0, 3.0]

    @pytest.mark.parametrize("length", [0, 3, 5])
    def test_one_value_per_copy(self, length):
        # two subdomains of two vertices each: four copies
        cover = Cover([_community([0], [1]), _community([1], [0])], _samples(0, 1))
        with pytest.raises(ValueError, match="one value per vertex copy"):
            assemble_global(cover, build_pu(cover, 2), np.ones(length), 2)

    def test_rrmse_zero_when_equal(self):
        y = np.array([1.0, -2.0])
        assert rrmse(y, y) == 0.0

    def test_rrmse_one_for_zero_approx(self):
        assert rrmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_rrmse_hand_value(self):
        assert rrmse(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == pytest.approx(0.8)

    def test_rrmse_zero_signal(self):
        with pytest.raises(ZeroSignalError):
            rrmse(np.zeros(3), np.ones(3))

    def test_rrmse_unequal_lengths(self):
        with pytest.raises(ValueError, match="^signals must have equal length$"):
            rrmse(np.ones(3), np.ones(2))

    def test_rrmse_complex_refused(self):
        # it returned 0.0: the cast to float dropped the imaginary part
        with pytest.raises(TypeError, match="^need bool, integer or float values, got dtype complex128$"):
            rrmse(np.ones(3), np.ones(3) + 1j)
        with pytest.raises(TypeError, match="^need bool, integer or float values, got dtype complex128$"):
            rrmse(np.ones(3) + 1j, np.ones(3))

    @pytest.mark.parametrize(
        "truth, approx, message",
        [
            ([np.nan, 1.0], [0.0, 1.0], "truth value nan at vertex 0"),
            ([1.0, 2.0], [np.inf, 1.0], "approximant value inf at vertex 0"),
            ([1.0, 2.0, 3.0], [1.0, -np.inf, np.nan], "approximant value -inf at vertex 1"),
            ([1.0, np.inf], [np.nan, 1.0], "truth value inf at vertex 1"),
        ],
    )
    def test_rrmse_non_finite_refused(self, truth, approx, message):
        # it returned nan or inf
        with pytest.raises(ValueError, match=f"^{message} is not finite$"):
            rrmse(truth, approx)

    @pytest.mark.parametrize(
        "truth, approx, expected",
        [
            # the squares overflowed: nan, from inf / inf
            ([1e160, 0.0], [5e159, 0.0], 0.5),
            # the squares underflowed: ZeroSignalError for a truth that is not zero
            ([1e-170, 1e-170], [2e-170, 1e-170], 0.7071067811865475),
            ([1e-320, 0.0], [0.0, 0.0], 1.0),  # subnormal
            ([1e300, -1e300, 3e299], [0.0, 0.0, 0.0], 1.0),
        ],
    )
    def test_rrmse_of_finite_signals_of_any_magnitude(self, truth, approx, expected):
        assert rrmse(np.array(truth), np.array(approx)) == expected

    def test_rrmse_scale_is_exact(self):
        # the power-of-two scale leaves every ordinary pair's bits as the plain quotient of norms
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            truth, approx = (rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n) for _ in range(2))
            plain = np.linalg.norm(truth - approx) / np.linalg.norm(truth)
            assert rrmse(truth, approx) == plain

    def test_pipeline_scores_a_huge_value_off_the_samples(self, geometric200):
        # one reference value of 1e200 away from the samples: the score was nan
        y, W = synthetic_signal(geometric200), sample_nodes(geometric200.n, 20, 0)
        v = np.setdiff1d(np.arange(geometric200.n), W)[0]
        y[v] = 1e200
        result, _ = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams())
        assert result.rrmse == pytest.approx(1.0)

    def test_score_refuses_non_finite_truth(self):
        # the stage takes a NaN off the samples, so both routes interpolated and scored nan
        g, W, y = path_graph(4), np.array([0, 2, 3]), np.array([1.0, np.nan, 3.0, 4.0])
        with pytest.raises(ValueError, match="^truth value nan at vertex 1 is not finite$"):
            run_pipeline(g, y, W, DetectionParams(), KernelParams())
        with pytest.raises(ValueError, match="^truth value nan at vertex 1 is not finite$"):
            global_gbf_baseline(g, y, W, KernelParams())

    def test_rrmse_signals_flat(self):
        assert rrmse([3, 4], [3, 0]) == pytest.approx(0.8)
        with pytest.raises(ValueError, match=r"^need a flat signal, got shape \(2, 2\)$"):
            rrmse(np.ones((2, 2)), np.ones((2, 2)))

    def test_assemble_values_flat(self):
        cover = Cover([_community([0], [1]), _community([1], [0])], _samples(0, 1))
        with pytest.raises(ValueError, match=r"^need a flat array of vertex copy values, got shape \(4, 1\)$"):
            assemble_global(cover, build_pu(cover, 2), np.ones((4, 1)), 2)
        with pytest.raises(TypeError, match="^need bool, integer or float values, got dtype complex128$"):
            assemble_global(cover, build_pu(cover, 2), np.ones(4) + 1j, 2)


class TestPipeline:
    def test_all_vertices_sampled_exact(self, two_triangle):
        y = synthetic_signal(two_triangle)
        res, _ = run_pipeline(
            two_triangle, y, np.arange(6), DetectionParams(), KernelParams()
        )
        assert res.rrmse <= 1e-6

    def test_two_triangle_end_to_end(self, two_triangle):
        y = synthetic_signal(two_triangle)
        res, cover = run_pipeline(
            two_triangle, y, np.array([0, 4]), DetectionParams(), KernelParams()
        )
        assert len(cover.communities) == 2
        assert np.isfinite(res.rrmse)
        assert set(res.wall_times) == {
            "katz_s",
            "split_s",
            "merge_s",
            "expand_s",
            "partition_s",
            "solve_s",
            "assemble_s",
            "interpolate_s",
            "total_s",
        }

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_one_vertex_graph(self, s):
        # no edge: Katz takes alpha's cap and is 0; the one community is the graph
        g = Graph.from_edges(1, [])
        res, cover = run_pipeline(g, np.array([2.0]), np.array([0]), DetectionParams(), KernelParams(s=s))
        assert len(cover.communities) == 1
        assert res.rrmse == 0.0

    def test_stage_times_within_partition(self, geometric200):
        y = synthetic_signal(geometric200)
        W = sample_nodes(geometric200.n, 60, seed=5)
        res, cover = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams())
        stages = [res.wall_times[k] for k in ("katz_s", "split_s", "merge_s", "expand_s")]
        assert all(t >= 0.0 for t in stages)
        assert sum(stages) <= res.wall_times["partition_s"]
        inside = [res.wall_times[k] for k in ("solve_s", "assemble_s")]
        assert all(t >= 0.0 for t in inside)
        assert sum(inside) <= res.wall_times["interpolate_s"]
        assert "stage_times" not in cover.to_json_dict()

    def test_exactness_at_samples(self, geometric200):
        y = synthetic_signal(geometric200)
        W = sample_nodes(geometric200.n, 60, seed=5)
        res, _ = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams())
        rel = np.abs(res.approximant[W] - y[W]) / np.maximum(np.abs(y[W]), 1e-30)
        assert rel.max() <= 1e-6

    def test_more_samples_less_error(self, geometric200):
        y = synthetic_signal(geometric200)
        errs = []
        for count in (40, 120):
            W = sample_nodes(geometric200.n, count, seed=9)
            res, _ = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams())
            errs.append(res.rrmse)
        assert errs[1] < errs[0]

    def test_non_integral_samples_rejected(self, geometric200):
        # the half-shifted ids were truncated, and the run reported an rrmse
        y = synthetic_signal(geometric200)
        W = sample_nodes(geometric200.n, 60, seed=5)
        with pytest.raises(ValueError, match="is not an integer"):
            run_pipeline(geometric200, y, W.astype(float) + 0.5, DetectionParams(), KernelParams())
        mask = np.zeros(geometric200.n, dtype=bool)
        mask[W] = True
        with pytest.raises(ValueError, match="booleans"):
            run_pipeline(geometric200, y, mask, DetectionParams(), KernelParams())
        res, _ = run_pipeline(geometric200, y, W.astype(float), DetectionParams(), KernelParams())
        want, _ = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams())
        assert res.rrmse == want.rrmse

    def test_permutation_equivariance_single_community(self, path10):
        y = synthetic_signal(path10)
        res, _ = run_pipeline(path10, y, np.array([4]), DetectionParams(), KernelParams())
        rng = np.random.default_rng(11)
        perm = rng.permutation(10)  # new id of old vertex v is perm[v]
        edges = [(int(perm[i]), int(perm[i + 1])) for i in range(9)]
        g2 = Graph.from_edges(10, edges)
        y2 = np.empty(10)
        y2[perm] = y
        res2, _ = run_pipeline(
            g2, y2, np.array([int(perm[4])]), DetectionParams(), KernelParams()
        )
        assert res2.rrmse == pytest.approx(res.rrmse, abs=1e-10)
        assert np.abs(res2.approximant[perm] - res.approximant).max() <= 1e-8


class TestBaseline:
    def test_equivalent_to_single_community_pipeline(self, path10):
        y = synthetic_signal(path10)
        W = np.array([0, 5, 9])
        base = global_gbf_baseline(path10, y, W, KernelParams())
        cover = Cover([_community(range(10))], W)
        pu = build_pu(cover, 10)
        s, _ = community_interpolant(path10, cover.communities[0], W, y, KernelParams())
        assembled = assemble_global(cover, pu, s, 10)
        assert np.abs(base.approximant - assembled).max() <= 1e-8

    def test_all_sampled_exact(self, two_triangle):
        y = synthetic_signal(two_triangle)
        base = global_gbf_baseline(two_triangle, y, np.arange(6), KernelParams())
        assert base.rrmse <= 1e-6

    def test_wall_times_split_like_pipeline(self, geometric200):
        y = synthetic_signal(geometric200)
        W = sample_nodes(geometric200.n, 60, seed=5)
        times = global_gbf_baseline(geometric200, y, W, KernelParams()).wall_times
        assert set(times) == {"solve_s", "assemble_s", "partition_s", "interpolate_s", "total_s"}
        inside = [times["solve_s"], times["assemble_s"]]
        assert all(t >= 0.0 for t in inside)
        assert sum(inside) <= times["interpolate_s"] == times["total_s"]

    def test_no_samples(self, path3):
        with pytest.raises(SampleFreePieceError):
            global_gbf_baseline(path3, np.ones(3), np.array([], dtype=np.int64), KernelParams())


class TestSampling:
    def test_nested_prefixes(self):
        a = sample_nodes(500, 50, seed=4)
        b = sample_nodes(500, 150, seed=4)
        assert set(a.tolist()) <= set(b.tolist())

    def test_deterministic(self):
        assert sample_nodes(100, 10, seed=2).tolist() == sample_nodes(100, 10, seed=2).tolist()

    def test_bounds(self):
        with pytest.raises(ValueError):
            sample_nodes(10, 0, seed=0)
        with pytest.raises(ValueError):
            sample_nodes(10, 11, seed=0)

    @pytest.mark.parametrize(
        "count, seed, message",
        [
            (True, 0, "count must be an integer, got True"),  # drew one sample
            (2.5, 0, "count must be an integer, got 2.5"),  # a TypeError from the slice
            (2, 1.5, "seed must be an integer, got 1.5"),  # a TypeError from SeedSequence
            (2, False, "seed must be an integer, got False"),
            (np.int64(2), "0", "seed must be an integer, got '0'"),
        ],
    )
    def test_count_and_seed_named(self, count, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_nodes(4, count, seed)

    def test_integral_count_and_seed_accepted(self):
        expect = sample_nodes(100, 10, seed=2).tolist()
        assert sample_nodes(100, 10.0, seed=np.int32(2)).tolist() == expect
        assert sample_nodes(100, np.uint8(10), seed=2.0).tolist() == expect


def test_synthetic_signal_is_smooth_and_deterministic(geometric200):
    y1 = synthetic_signal(geometric200)
    y2 = synthetic_signal(geometric200)
    assert np.array_equal(y1, y2)
    L = geometric200.laplacian()
    # Rayleigh quotient of the low-frequency signal stays well below mid-spectrum
    rq = (y1 @ L @ y1) / (y1 @ y1)
    lam = np.linalg.eigvalsh(L)
    assert rq < np.median(lam)


def dense_signal_oracle(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(reference signal, lowest 12 eigenvalues) from a dense LAPACK eigh.

    Same definition as `synthetic_signal`: unit sum of the eigenvectors of
    the 10 smallest nonzero eigenvalues (all of them if fewer), each signed
    by its first nonzero entry.
    """
    values, vectors = eigh(g.laplacian(), subset_by_index=[0, min(11, g.n - 1)])
    y = np.zeros(g.n)
    for v in vectors[:, 1:11].T:
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        y += -v if v[nz[0]] < 0 else v
    return y, values


class TestSyntheticSignalRoute:
    @pytest.mark.parametrize("fixture", ["geometric200", "minnesota"])
    def test_lanczos_matches_dense_oracle(self, request, fixture):
        g = request.getfixturevalue(fixture)
        y_ref, lam = dense_signal_oracle(g)
        # the signal depends on the graph alone only when lambda_1 .. lambda_10 are
        # simple and below lambda_11, each by far more than rounding; the closest
        # pair differs by 1.5e-5 on minnesota, lambda_11 - lambda_10 is 8.3e-5
        assert np.diff(lam[1:12]).min() > 1e-5
        y = synthetic_signal(g)
        assert np.linalg.norm(y - y_ref) <= 1e-9 * np.linalg.norm(y_ref)

    def test_bit_identical_repeats(self, minnesota, minnesota_signal):
        assert np.array_equal(synthetic_signal(minnesota), minnesota_signal)

    def test_dense_fallback_all_modes(self, path10):
        # 10 modes + 1 >= n leaves no room for Lanczos: the dense route runs
        y = synthetic_signal(path10)
        y_ref, _ = dense_signal_oracle(path10)
        assert np.abs(y - y_ref).max() <= 1e-12
