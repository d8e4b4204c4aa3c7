import numpy as np
import pytest

from gbfpum import Graph, KernelParams, gbf_kernel, local_interpolant, spd_solve, sym_eigen
from gbfpum.community import Community
from gbfpum.errors import NonPositiveShiftError, NotSymmetricError
from gbfpum.kernel import kernel_columns

from conftest import random_connected_graph


def inverse_power_oracle(L: np.ndarray, eps: float, s: int) -> np.ndarray:
    """(eps I + L)^(-s) for integer s via repeated columnwise SPD solves."""
    n = L.shape[0]
    M = eps * np.eye(n) + L
    K = np.eye(n)
    for _ in range(s):
        K = spd_solve(M, K)
    return K


class TestGbfKernel:
    def test_single_vertex(self):
        K = gbf_kernel(np.array([[0.0]]), KernelParams(epsilon=1.0, s=3.0))
        assert K == pytest.approx(np.array([[1.0]]))

    def test_single_edge_hand_inverse(self):
        g = Graph.from_edges(2, [(0, 1)])
        K = gbf_kernel(g.laplacian(), KernelParams(epsilon=1.0, s=1.0))
        assert np.allclose(K, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)

    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_solve_oracle(self, s):
        g = random_connected_graph(7, n_min=20, n_max=30)
        L = g.laplacian()
        p = KernelParams(epsilon=0.5, s=float(s))
        assert np.abs(gbf_kernel(L, p) - inverse_power_oracle(L, 0.5, s)).max() <= 1e-8

    def test_spectrum_is_transformed_laplacian_spectrum(self, path10):
        L = path10.laplacian()
        p = KernelParams(epsilon=0.3, s=2.0)
        lam = sym_eigen(L).values
        got = np.sort(sym_eigen(gbf_kernel(L, p)).values)
        expect = np.sort((p.epsilon + lam) ** (-p.s))
        assert np.abs(got - expect).max() <= 1e-9

    def test_spd_witness(self, two_triangle):
        K = gbf_kernel(two_triangle.laplacian(), KernelParams())
        spd_solve(K, np.ones(two_triangle.n))  # Cholesky must succeed

    def test_increasing_s_shrinks_spectrum(self, path10):
        # with epsilon such that eps + lambda_k > 1 for all k
        L = path10.laplacian() + 0.0
        eps = 1.5
        lam2 = sym_eigen(gbf_kernel(L, KernelParams(epsilon=eps, s=2.0))).values
        lam3 = sym_eigen(gbf_kernel(L, KernelParams(epsilon=eps, s=3.0))).values
        assert (np.sort(lam3) < np.sort(lam2) + 1e-15).all()

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            gbf_kernel(np.array([[1.0, 0.5], [0.0, 1.0]]), KernelParams())

    def test_bad_params(self):
        with pytest.raises(ValueError):
            KernelParams(epsilon=0.0)
        with pytest.raises(ValueError):
            KernelParams(s=-1.0)
        for bad in ({"s": np.nan}, {"s": np.inf}, {"epsilon": np.inf}):
            with pytest.raises(ValueError):
                KernelParams(**bad)


class TestKernelColumns:
    """The sparse factor-and-solve route against the dense spectral oracle."""

    @staticmethod
    def _gap(g: Graph, cols: np.ndarray, p: KernelParams) -> tuple[float, float]:
        K = gbf_kernel(g.laplacian(), p)
        got = kernel_columns(g, cols, p)
        return float(np.abs(got - K[:, cols]).max()), float(np.abs(K).max())

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_matches_dense_kernel(self, seed, s):
        g = random_connected_graph(seed, n_min=20, n_max=60)
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False))
        gap, scale = self._gap(g, cols, KernelParams(epsilon=0.05, s=float(s)))
        assert gap <= 1e-10 * scale

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_disconnected_subgraph_block_diagonal(self, s):
        # two triangles joined by the bridge 2-3; dropping 2 leaves {0,1} and {3,4,5}
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        sub, vs = g.induced_subgraph(np.array([0, 1, 3, 4, 5]))
        assert not sub.is_connected()
        cols = np.array([0, 3])  # one sample per piece: global vertices 0 and 4
        p = KernelParams(epsilon=0.01, s=float(s))
        gap, scale = self._gap(sub, cols, p)
        assert gap <= 1e-10 * scale
        got = kernel_columns(sub, cols, p)
        assert np.all(got[2:, 0] == 0.0) and np.all(got[:2, 1] == 0.0)

    def test_sample_block_exactly_symmetric(self, geometric200):
        cols = np.arange(0, 200, 7)
        Kw = kernel_columns(geometric200, cols, KernelParams(epsilon=0.01, s=3.0))
        assert np.array_equal(Kw[cols], Kw[cols].T)

    def test_fractional_s_is_dense_route(self, path10):
        p = KernelParams(epsilon=0.3, s=1.5)
        cols = np.array([1, 4, 8])
        assert np.array_equal(kernel_columns(path10, cols, p), gbf_kernel(path10.laplacian(), p)[:, cols])

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_nonpositive_shift_through_local_interpolant(self, path10, s):
        c = Community(
            core=np.arange(10), overlap=np.empty(0, dtype=np.int64), interpolation_nodes=np.array([0, 5])
        )
        with pytest.raises(NonPositiveShiftError):
            local_interpolant(path10, c, np.ones(10), KernelParams(epsilon=1e-13, s=s))
