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
from gbfpum.errors import NoSamplesError, UncoveredVertexError, ZeroSignalError



def _community(core, overlap=(), nodes=()):
    return Community(
        core=np.array(core, dtype=np.int64),
        overlap=np.array(overlap, dtype=np.int64),
        interpolation_nodes=np.array(nodes, dtype=np.int64),
    )


class TestPartitionOfUnity:
    def test_single_membership_weight_one(self):
        cover = Cover([_community([0, 1, 2], nodes=[0])])
        pu = build_pu(cover, 3)
        assert pu.weights(np.array([0, 1, 2])).tolist() == [1.0, 1.0, 1.0]

    def test_double_membership_half(self):
        cover = Cover(
            [_community([0, 1], [2], nodes=[0]), _community([2], [1], nodes=[2])]
        )
        pu = build_pu(cover, 3)
        assert pu.multiplicity.tolist() == [1, 2, 2]
        assert pu.weights(np.array([1, 2])).tolist() == [0.5, 0.5]

    def test_uncovered_vertex(self):
        cover = Cover([_community([0, 1], nodes=[0])])
        with pytest.raises(UncoveredVertexError):
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
        c = _community([1], nodes=[1])
        y = np.array([0.0, 5.0, 0.0])
        s, diag = local_interpolant(path3, c, y, KernelParams())
        assert s[0] == pytest.approx(5.0, rel=1e-12)
        assert diag.subdomain_size == 1 and diag.sample_count == 1

    def test_all_nodes_constant_signal(self, two_triangle):
        c = _community(range(6), nodes=range(6))
        y = np.ones(6)
        s, _ = local_interpolant(two_triangle, c, y, KernelParams())
        assert np.abs(s - 1.0).max() <= 1e-7

    def test_single_edge_hand_solution(self):
        g = Graph.from_edges(2, [(0, 1)])
        c = _community([0, 1], nodes=[0])
        y = np.array([1.0, 0.0])
        s, _ = local_interpolant(g, c, y, KernelParams(epsilon=1.0, s=1.0))
        # K = [[2/3,1/3],[1/3,2/3]], a = 1.5, s = (1, 0.5)
        assert np.allclose(s, [1.0, 0.5], atol=1e-12)

    def test_exact_at_samples(self, geometric200):
        W = sample_nodes(geometric200.n, 50, seed=1)
        y = synthetic_signal(geometric200)
        cover = detect_communities(geometric200, W, DetectionParams())
        for cid, c in enumerate(cover.communities):
            s, diag = local_interpolant(geometric200, c, y, KernelParams(), cid)
            sub = c.subdomain
            pos = np.searchsorted(sub, c.interpolation_nodes)
            rel = np.abs(s[pos] - y[c.interpolation_nodes]) / np.maximum(
                np.abs(y[c.interpolation_nodes]), 1e-30
            )
            assert rel.max() <= 1e-7
            assert diag.solve_residual <= 1e-6

    def test_no_samples(self, path3):
        c = _community([0, 1], nodes=[])
        with pytest.raises(NoSamplesError):
            local_interpolant(path3, c, np.zeros(3), KernelParams())

    def test_locality(self, path10):
        # changing the signal outside the subdomain leaves the local solution alone
        c = _community([0, 1, 2], [3], nodes=[0, 2])
        y1 = synthetic_signal(path10)
        y2 = y1.copy()
        y2[7] += 100.0
        s1, _ = local_interpolant(path10, c, y1, KernelParams())
        s2, _ = local_interpolant(path10, c, y2, KernelParams())
        assert np.array_equal(s1, s2)


class TestAssembleAndRrmse:
    def test_single_community_identity(self, path3):
        cover = Cover([_community([0, 1, 2], nodes=[0])])
        pu = build_pu(cover, 3)
        s = np.array([1.0, 2.0, 3.0])
        assert assemble_global(cover, pu, [s], 3).tolist() == [1.0, 2.0, 3.0]

    def test_two_subdomain_average(self):
        cover = Cover(
            [_community([0], [1], nodes=[0]), _community([1], [0], nodes=[1])]
        )
        pu = build_pu(cover, 2)
        out = assemble_global(cover, pu, [np.array([2.0, 2.0]), np.array([4.0, 4.0])], 2)
        assert out.tolist() == [3.0, 3.0]

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


class TestPipeline:
    def test_all_vertices_sampled_exact(self, two_triangle):
        y = synthetic_signal(two_triangle, n_modes=3)
        res, _ = run_pipeline(
            two_triangle, y, np.arange(6), DetectionParams(), KernelParams()
        )
        assert res.rrmse <= 1e-6

    def test_two_triangle_end_to_end(self, two_triangle):
        y = synthetic_signal(two_triangle, n_modes=3)
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
            "interpolate_s",
            "total_s",
        }

    def test_stage_times_within_partition(self, geometric200):
        y = synthetic_signal(geometric200)
        W = sample_nodes(geometric200.n, 60, seed=5)
        res, cover = run_pipeline(geometric200, y, W, DetectionParams(), KernelParams())
        stages = [res.wall_times[k] for k in ("katz_s", "split_s", "merge_s", "expand_s")]
        assert all(t >= 0.0 for t in stages)
        assert sum(stages) <= res.wall_times["partition_s"]
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
        cover = Cover([_community(range(10), nodes=W)])
        pu = build_pu(cover, 10)
        s, _ = local_interpolant(path10, cover.communities[0], y, KernelParams())
        assembled = assemble_global(cover, pu, [s], 10)
        assert np.abs(base.approximant - assembled).max() <= 1e-8

    def test_all_sampled_exact(self, two_triangle):
        y = synthetic_signal(two_triangle, n_modes=3)
        base = global_gbf_baseline(two_triangle, y, np.arange(6), KernelParams())
        assert base.rrmse <= 1e-6

    def test_no_samples(self, path3):
        with pytest.raises((NoSamplesError, ValueError)):
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


def test_synthetic_signal_is_smooth_and_deterministic(geometric200):
    y1 = synthetic_signal(geometric200)
    y2 = synthetic_signal(geometric200)
    assert np.array_equal(y1, y2)
    L = geometric200.laplacian()
    # Rayleigh quotient of the low-frequency signal stays well below mid-spectrum
    rq = (y1 @ L @ y1) / (y1 @ y1)
    lam = np.linalg.eigvalsh(L)
    assert rq < np.median(lam)


def dense_signal_oracle(g: Graph, n_modes: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """(reference signal, lowest n_modes + 2 eigenvalues) from a dense LAPACK eigh.

    Same definition as `synthetic_signal`: unit sum of the eigenvectors of
    the n_modes smallest nonzero eigenvalues, each signed by its first
    nonzero entry.
    """
    last = min(n_modes + 1, g.n - 1)
    values, vectors = eigh(g.laplacian(), subset_by_index=[0, last])
    y = np.zeros(g.n)
    for v in vectors[:, 1 : 1 + n_modes].T:
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        y += -v if v[nz[0]] < 0 else v
    return y, values


class TestSyntheticSignalRoute:
    @pytest.mark.parametrize("fixture", ["geometric200", "minnesota"])
    def test_lanczos_matches_dense_oracle(self, request, fixture):
        g = request.getfixturevalue(fixture)
        y_ref, lam = dense_signal_oracle(g)
        # the 10 lowest nonzero modes span a well-defined space only when
        # lambda_10 < lambda_11 by far more than rounding (8.3e-5 on minnesota)
        assert lam[11] - lam[10] > 1e-5
        y = synthetic_signal(g)
        assert np.linalg.norm(y - y_ref) <= 1e-9 * np.linalg.norm(y_ref)

    def test_bit_identical_repeats(self, minnesota, minnesota_signal):
        assert np.array_equal(synthetic_signal(minnesota), minnesota_signal)

    def test_dense_fallback_all_modes(self, path10):
        # n_modes + 1 >= n leaves no room for Lanczos: the dense route runs
        y = synthetic_signal(path10, n_modes=10)
        y_ref, _ = dense_signal_oracle(path10, n_modes=10)
        assert np.abs(y - y_ref).max() <= 1e-12
