import numpy as np
import pytest
import scipy.sparse as sp

from gbfpum import spd_solve, sym_eigen
from gbfpum.errors import (
    NonFiniteMatrixError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SparseSolverError,
)
from gbfpum.numerics import check_symmetric, low_eigen, sparse_lu

from conftest import random_connected_graph


class TestSymEigen:
    def test_scalar_zero(self):
        eig = sym_eigen(np.array([[0.0]]))
        assert eig.values.tolist() == [0.0]
        assert abs(eig.vectors[0, 0]) == pytest.approx(1.0)

    def test_single_edge_laplacian(self):
        eig = sym_eigen(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(eig.values, [0.0, 2.0], atol=1e-12)
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for k in range(2):
            col = eig.vectors[:, k]
            assert np.allclose(col, expect[:, k], atol=1e-12) or np.allclose(
                col, -expect[:, k], atol=1e-12
            )

    def test_path3_spectrum(self, path3):
        eig = sym_eigen(path3.laplacian())
        assert np.allclose(eig.values, [0.0, 1.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((40, 40))
        M = (M + M.T) / 2
        eig = sym_eigen(M)
        scale = max(1.0, np.abs(M).max())
        assert np.abs(eig.vectors @ np.diag(eig.values) @ eig.vectors.T - M).max() <= 1e-9 * scale
        assert np.abs(eig.vectors.T @ eig.vectors - np.eye(40)).max() <= 1e-10
        assert (np.diff(eig.values) >= 0).all()

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_laplacian_spectrum_nonnegative(self):
        for seed in range(5):
            g = random_connected_graph(seed, n_max=30)
            eig = sym_eigen(g.laplacian())
            assert abs(eig.values[0]) <= 1e-9
            assert eig.values[-1] >= -1e-9


class TestSpdSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(spd_solve(np.eye(3), b), b)

    def test_hand_2x2(self):
        x = spd_solve(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            spd_solve(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, 0.0]))
        assert exc.value.pivot == 1

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(1)
        for order in (5, 50, 200):
            R = rng.standard_normal((order, order))
            M = R.T @ R + np.eye(order)
            x = rng.standard_normal(order)
            got = spd_solve(M, M @ x)
            assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)

    def test_residual_contract(self):
        rng = np.random.default_rng(2)
        R = rng.standard_normal((60, 60))
        M = R.T @ R + np.eye(60)
        b = rng.standard_normal(60)
        x = spd_solve(M, b)
        assert np.linalg.norm(M @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        R = rng.standard_normal((10, 10))
        M = R.T @ R + np.eye(10)
        B = rng.standard_normal((10, 4))
        X = spd_solve(M, B)
        assert np.abs(M @ X - B).max() <= 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "factor",
    [lambda M: spd_solve(M, np.ones(2)), sym_eigen, lambda M: sparse_lu(sp.csr_matrix(M))],
    ids=["spd_solve", "sym_eigen", "sparse_lu"],
)
def test_non_finite_matrix_rejected(factor, bad):
    # NaN passes every tolerance comparison, so it is rejected before them
    with pytest.raises(NonFiniteMatrixError, match="non-finite"):
        factor(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestSparse:
    def test_check_symmetric_sparse(self):
        check_symmetric(sp.csr_matrix([[2.0, -1.0], [-1.0, 2.0]]))
        with pytest.raises(NotSymmetricError):
            check_symmetric(sp.csr_matrix([[2.0, -1.0], [0.0, 2.0]]))

    def test_sparse_lu_solves(self):
        g = random_connected_graph(5, n_max=30)
        M = g.sparse_laplacian() + 0.1 * sp.identity(g.n, format="csr")
        b = np.random.default_rng(0).standard_normal(g.n)
        x = sparse_lu(M).solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_sparse_lu_singular_is_numerical_error(self, path3):
        with pytest.raises(SparseSolverError):
            sparse_lu(path3.sparse_laplacian())

    def test_sparse_lu_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            sparse_lu(sp.csr_matrix([[2.0, -1.0], [0.0, 2.0]]))

    def test_low_eigen_matches_dense(self):
        g = random_connected_graph(8, n_min=30, n_max=40)
        dense = sym_eigen(g.laplacian())
        low = low_eigen(g.sparse_laplacian(), 5)
        assert np.abs(low.values - dense.values[:5]).max() <= 1e-10
        # each vector up to sign; the lowest eigenvalues of this graph are simple
        assert np.diff(dense.values[:6]).min() > 1e-3
        overlap = np.abs(np.sum(low.vectors * dense.vectors[:, :5], axis=0))
        assert np.abs(overlap - 1.0).max() <= 1e-10

    def test_low_eigen_needs_k_below_order(self, path3):
        with pytest.raises(ValueError):
            low_eigen(path3.sparse_laplacian(), 3)
