import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import gbfpum.kernel
import gbfpum.numerics
import gbfpum.pum
from gbfpum import (
    Graph,
    KernelParams,
    gbf_kernel,
    local_interpolant,
    sample_nodes,
    spd_solve,
    sym_eigen,
)
from gbfpum.errors import NonPositiveShiftError, NotSymmetricError, OutOfRangeError
from gbfpum.kernel import S_MAX, kernel_block

from conftest import CountingLU, path_graph, random_connected_graph


def inverse_power_oracle(L: np.ndarray, eps: float, s: int) -> np.ndarray:
    """(eps I + L)^(-s) for integer s via s Cholesky solves of the identity's columns."""
    n = L.shape[0]
    factor = cho_factor(eps * np.eye(n) + L)
    K = np.eye(n)
    for _ in range(s):
        K = cho_solve(factor, K)
    return K


class TestGbfKernel:
    def test_single_vertex(self):
        K = gbf_kernel(np.array([[0.0]]), KernelParams(epsilon=1.0, s=3.0), np.arange(1))
        assert K == pytest.approx(np.array([[1.0]]))

    def test_single_edge_hand_inverse(self):
        g = Graph.from_edges(2, [(0, 1)])
        K = gbf_kernel(g.laplacian(), KernelParams(epsilon=1.0, s=1.0), np.arange(2))
        assert np.allclose(K, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)

    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_solve_oracle(self, s):
        g = random_connected_graph(7, n_min=20, n_max=30)
        L = g.laplacian()
        p = KernelParams(epsilon=0.5, s=float(s))
        assert np.abs(gbf_kernel(L, p, np.arange(g.n)) - inverse_power_oracle(L, 0.5, s)).max() <= 1e-8

    def test_spectrum_is_transformed_laplacian_spectrum(self, path10):
        L = path10.laplacian()
        p = KernelParams(epsilon=0.3, s=2.0)
        lam = sym_eigen(L)[0]
        got = np.sort(sym_eigen(gbf_kernel(L, p, np.arange(10)))[0])
        expect = np.sort((p.epsilon + lam) ** (-p.s))
        assert np.abs(got - expect).max() <= 1e-9

    def test_spd_witness(self, two_triangle):
        K = gbf_kernel(two_triangle.laplacian(), KernelParams(), np.arange(two_triangle.n))
        spd_solve(K, np.ones(two_triangle.n))  # Cholesky must succeed

    def test_increasing_s_shrinks_spectrum(self, path10):
        # with epsilon such that eps + lambda_k > 1 for all k
        L = path10.laplacian() + 0.0
        eps = 1.5
        lam2 = sym_eigen(gbf_kernel(L, KernelParams(epsilon=eps, s=2.0), np.arange(10)))[0]
        lam3 = sym_eigen(gbf_kernel(L, KernelParams(epsilon=eps, s=3.0), np.arange(10)))[0]
        assert (np.sort(lam3) < np.sort(lam2) + 1e-15).all()

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            gbf_kernel(np.array([[1.0, 0.5], [0.0, 1.0]]), KernelParams(), np.arange(2))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            KernelParams(epsilon=0.0)
        with pytest.raises(ValueError):
            KernelParams(s=-1.0)
        for bad in ({"s": np.nan}, {"s": np.inf}, {"epsilon": np.inf}, {"s": S_MAX + 1}):
            with pytest.raises(ValueError):
                KernelParams(**bad)
        assert KernelParams(s=S_MAX).s == 64  # the bound itself is allowed
        # eps + lambda_min must exceed kernel.SHIFT_TOL, and a Laplacian's lambda_min is 0
        for eps in (1e-13, 1e-12):
            with pytest.raises(ValueError, match=rf"^epsilon must exceed 1e-12, got {eps}$"):
                KernelParams(epsilon=eps)

    @pytest.mark.parametrize("field", ["epsilon", "s"])
    @pytest.mark.parametrize("value", [True, np.True_, "2", None, 1 + 0j])
    def test_params_refuse_booleans_and_non_reals(self, field, value):
        # True was read as 1.0, and text or None raised a TypeError naming no field;
        # a value that is not real is named by its repr, so the text "2" reads '2'
        message = f"{field} must be a positive finite number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KernelParams(**{field: value})

    def test_refused_real_values_keep_str(self):
        # only a value that is not real is named by its repr: a numpy scalar reads as its number
        for value, text in [(np.float64(np.nan), "nan"), (np.float32(-1.5), "-1.5"), (-3, "-3")]:
            with pytest.raises(ValueError, match=rf"^epsilon must be a positive finite number, got {text}$"):
                KernelParams(epsilon=value)

    def test_params_take_numpy_reals(self):
        p = KernelParams(epsilon=np.float32(0.5), s=np.int64(2))
        assert (p.epsilon, p.s) == (0.5, 2)

    def test_nonpositive_shift(self, path10):
        # L - 0.02 I is no Laplacian: its lambda_min is -0.02, so eps + lambda_min = -0.01
        L = path10.laplacian() - 0.02 * np.eye(10)
        with pytest.raises(NonPositiveShiftError) as exc:
            gbf_kernel(L, KernelParams(epsilon=0.01), np.arange(10))
        assert exc.value.shift == pytest.approx(-0.01, abs=1e-12)
        assert exc.value.tol == gbfpum.kernel.SHIFT_TOL


class TestNodeIds:
    # local_interpolant and gbf_kernel check their ids before they index with them
    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("nodes, vertex", [([-1, 2], -1), ([1, 9], 9), ([4, 0, -2, -1], -2)])
    def test_local_interpolant_out_of_range(self, s, nodes, vertex):
        # -1 once read as vertex n - 1: a plausible, wrong interpolant
        with pytest.raises(OutOfRangeError, match=rf"^vertex {vertex} out of range for graph of order 4$"):
            local_interpolant(path_graph(4), np.array(nodes), np.ones(len(nodes)), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_local_interpolant_repeated_node(self, s):
        # an input error, not the singular K[W,W] it would make
        with pytest.raises(ValueError, match="^vertex 1 is repeated$"):
            local_interpolant(path_graph(4), np.array([3, 1, 2, 1]), np.ones(4), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("length", [1, 3])
    def test_local_interpolant_one_value_per_node(self, s, length):
        with pytest.raises(ValueError, match=rf"^need one value per node \(2\), got {length}$"):
            local_interpolant(path_graph(4), np.array([0, 2]), np.ones(length), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("shape", [(3, 1), ()])
    def test_local_interpolant_flat_values(self, monkeypatch, s, shape):
        # a column once gave a (6, 1) interpolant at s = 1.5 and failed inside numpy at s = 2
        monkeypatch.setattr(gbfpum.pum, "kernel_block", None)  # refused before any kernel is built
        message = rf"^need a flat array of node values, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            local_interpolant(path_graph(6), np.array([0, 3, 5]), np.ones(shape), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_local_interpolant_non_finite_value(self, s, bad):
        # a NaN once came back at every vertex, and as the residual, with no error
        y = np.array([1.0, bad, 2.0, bad])
        with pytest.raises(ValueError, match=rf"^value {bad} at node 3 is not finite$"):
            local_interpolant(path_graph(6), np.array([0, 3, 5, 1]), y, KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_local_interpolant_keeps_node_order(self, s):
        g, kp = path_graph(6), KernelParams(s=s)
        got, _ = local_interpolant(g, np.array([4, 1]), np.array([3.0, -1.0]), kp)
        expect, _ = local_interpolant(g, np.array([1, 4]), np.array([-1.0, 3.0]), kp)
        assert np.abs(got - expect).max() <= 1e-9
        assert np.abs(got[[1, 4]] - [-1.0, 3.0]).max() <= 1e-9
        # integral floats are ids, as in as_vertex_set
        floats, _ = local_interpolant(g, np.array([4.0, 1.0]), np.array([3.0, -1.0]), kp)
        assert np.array_equal(floats, got)

    # numpy once raised IndexError for the first two: no float or boolean indexes an array
    BAD_IDS = [
        (np.array([0.0, 2.5]), r"^vertex id 2\.5 at position 1 is not an integer$"),
        (np.array([False, True]), r"^vertex ids are booleans; pass the ids of a mask"),
        (np.array([2, True], dtype=object), r"^vertex id True at position 1 is a boolean, not an integer$"),
    ]

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("nodes, message", BAD_IDS)
    def test_local_interpolant_ids_are_integers(self, s, nodes, message):
        with pytest.raises(ValueError, match=message):
            local_interpolant(path_graph(4), nodes, np.ones(len(nodes)), KernelParams(s=s))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("cols, vertex", [([-1], -1), ([0, 4], 4), ([7, 1, -3], -3)])
    def test_gbf_kernel_out_of_range(self, s, cols, vertex):
        # cols = [-1] once returned exactly the column of cols = [3]
        L = path_graph(4).laplacian()
        with pytest.raises(OutOfRangeError, match=rf"^vertex {vertex} out of range for graph of order 4$"):
            gbf_kernel(L, KernelParams(s=s), np.array(cols))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_gbf_kernel_repeated_col(self, s):
        with pytest.raises(ValueError, match="^vertex 2 is repeated$"):
            gbf_kernel(path_graph(4).laplacian(), KernelParams(s=s), np.array([2, 0, 2]))

    @pytest.mark.parametrize("s", [2.0, 1.5])
    @pytest.mark.parametrize("cols, message", BAD_IDS)
    def test_gbf_kernel_ids_are_integers(self, s, cols, message):
        with pytest.raises(ValueError, match=message):
            gbf_kernel(path_graph(4).laplacian(), KernelParams(s=s), cols)

    @pytest.mark.parametrize("s", [2.0, 1.5])
    def test_gbf_kernel_integral_float_cols(self, s):
        L, kp = path_graph(4).laplacian(), KernelParams(s=s)
        assert np.array_equal(gbf_kernel(L, kp, np.array([3.0, 1.0])), gbf_kernel(L, kp, np.array([3, 1])))


class TestKernelColumns:
    """`kernel_block`'s K[W,W] and K[:, W] a against the dense spectral oracle."""

    @staticmethod
    def _gaps(g: Graph, cols: np.ndarray, p: KernelParams) -> tuple[float, float, float]:
        """Max errors of K[W,W] and of K[:, W] a for a seeded a, and max|K|."""
        K = gbf_kernel(g.laplacian(), p, np.arange(g.n))
        a = np.random.default_rng(len(cols)).standard_normal(len(cols))
        Kww, evaluate = kernel_block(g, cols, p)
        block_gap = np.abs(Kww - K[np.ix_(cols, cols)]).max()
        eval_gap = np.abs(evaluate(a) - K[:, cols] @ a).max() / np.abs(a).sum()
        return float(block_gap), float(eval_gap), float(np.abs(K).max())

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_matches_dense_kernel(self, seed, s):
        g = random_connected_graph(seed, n_min=20, n_max=60)
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False))
        block_gap, eval_gap, scale = self._gaps(g, cols, KernelParams(epsilon=0.05, s=float(s)))
        assert block_gap <= 1e-10 * scale and eval_gap <= 1e-10 * scale

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_disconnected_subgraph_block_diagonal(self, s):
        # two triangles joined by the bridge 2-3; dropping 2 leaves {0,1} and {3,4,5}
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        sub, vs = g.induced_subgraph(np.array([0, 1, 3, 4, 5]))
        assert not sub.is_connected()
        cols = np.array([0, 3])  # one sample per piece: global vertices 0 and 4
        p = KernelParams(epsilon=0.01, s=float(s))
        block_gap, eval_gap, scale = self._gaps(sub, cols, p)
        assert block_gap <= 1e-10 * scale and eval_gap <= 1e-10 * scale
        Kww, evaluate = kernel_block(sub, cols, p)
        assert Kww[0, 1] == 0.0 and Kww[1, 0] == 0.0
        assert np.all(evaluate(np.array([1.0, 0.0]))[2:] == 0.0)
        assert np.all(evaluate(np.array([0.0, 1.0]))[:2] == 0.0)

    def test_sample_block_exactly_symmetric(self, geometric200):
        cols = np.arange(0, 200, 7)
        for s in (1.0, 1.5, 2.0, 3.0, 4.0):
            Kww, _ = kernel_block(geometric200, cols, KernelParams(epsilon=0.01, s=s))
            assert np.array_equal(Kww, Kww.T), s

    def test_fractional_s_is_dense_route(self, path10):
        # gbf_kernel's columns as computed; kernel_block alone averages their block
        p = KernelParams(epsilon=0.3, s=1.5)
        cols = np.array([1, 4, 8])
        a = np.array([0.5, -2.0, 1.25])
        Kw = gbf_kernel(path10.laplacian(), p, cols)
        B = Kw[cols]
        assert not np.array_equal(B, B.T)  # symmetric to rounding only
        Kww, evaluate = kernel_block(path10, cols, p)
        assert np.array_equal(Kww, (B + B.T) / 2.0)
        assert np.array_equal(evaluate(a), Kw @ a)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_each_block_solved_s_times(self, monkeypatch, geometric200, s):
        widths = []
        monkeypatch.setattr(
            gbfpum.kernel, "sparse_lu", lambda M: CountingLU(gbfpum.numerics.sparse_lu(M), widths)
        )
        cols = np.arange(0, 200, 3)  # 67 columns: blocks of 32, 32 and 3
        _, evaluate = kernel_block(geometric200, cols, KernelParams(s=float(s)))
        assert gbfpum.kernel.SOLVE_BLOCK == 32
        assert widths == [32] * s + [32] * s + [3] * s  # s * |W| columns in all
        widths.clear()
        evaluate(np.ones(len(cols)))
        assert widths == [0] * s  # s single-vector solves

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_block_is_reference_average(self, geometric200, s):
        # the in-place panels give (B + B^T) / 2 bit for bit, B the block as
        # solved; 67 columns make panels of 32, 32 and 3
        cols = np.arange(0, 200, 3)
        p = KernelParams(s=float(s))
        X = np.zeros((geometric200.n, len(cols)), order="F")
        X[cols, np.arange(len(cols))] = 1.0
        lu = gbfpum.numerics.sparse_lu(geometric200.sparse_laplacian(p.epsilon))
        for _ in range(s):
            X = lu.solve(X)
        B = X[cols]
        assert not np.array_equal(B, B.T)  # the average has work to do
        Kww, _ = kernel_block(geometric200, cols, p)
        assert np.array_equal(Kww, (B + B.T) / 2.0)

    @staticmethod
    def _traced(call):
        """call()'s result, and the numpy bytes it held at its peak and at its return."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept, peak - base, held - base

    @pytest.mark.parametrize("s", [2, 3])
    def test_integer_route_memory(self, minnesota, s):
        # tracemalloc sees numpy's buffers (not SuperLU's factor): the route
        # holds K[W,W] and a few n x SOLVE_BLOCK blocks, never an n x |W|
        # array, and symmetrises K[W,W] in its own storage
        cols = sample_nodes(minnesota.n, 800, 0)
        block_bytes = len(cols) ** 2 * 8
        kept, peak, held = self._traced(
            lambda: kernel_block(minnesota, cols, KernelParams(s=float(s)))
        )
        assert kept[0].shape == (len(cols), len(cols))
        assert peak < 1.5 * block_bytes
        assert held < block_bytes + 2**20

    @pytest.mark.parametrize("order, bound", [(400, 3.2), (600, 2.3)])
    def test_fractional_route_memory(self, minnesota, order, bound):
        # the reason for numerics.EVD_MAX_ORDER: divide and conquer holds about
        # three n x n at its peak, MRRR above the constant about two (3.03 and
        # 2.18 here, 2.16 at order 1,200)
        assert 400 <= gbfpum.numerics.EVD_MAX_ORDER < 600
        sub, _ = minnesota.induced_subgraph(np.arange(order))
        cols = np.arange(0, order, 13)
        kept, peak, _ = self._traced(lambda: kernel_block(sub, cols, KernelParams(s=1.5)))
        assert kept[0].shape == (len(cols), len(cols))
        assert peak < bound * order**2 * 8

    @pytest.mark.parametrize("s", [2, 3])
    def test_local_interpolant_memory(self, minnesota, minnesota_signal, s):
        # the Cholesky factor of K[W,W] is made in the block's own storage
        cols = sample_nodes(minnesota.n, 800, 0)
        block_bytes = len(cols) ** 2 * 8
        y = minnesota_signal[cols]
        kept, peak, held = self._traced(
            lambda: local_interpolant(minnesota, cols, y, KernelParams(s=float(s)))
        )
        assert kept[0].shape == (minnesota.n,)
        assert peak < 1.5 * block_bytes
        assert held < 2**20
