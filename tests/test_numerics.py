import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import gbfpum.numerics
import gbfpum.pum

from gbfpum import Graph, KernelParams, gbf_kernel, spd_solve, sym_eigen, synthetic_signal
from gbfpum.errors import (
    NonFiniteMatrixError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SparseSolverError,
)
from gbfpum.numerics import (
    EVD_MAX_ORDER,
    SYM_TOL,
    check_symmetric,
    low_eigen,
    real_values,
    sparse_lu,
)

from conftest import CountingLU, path_graph, random_connected_graph


class TestSymEigen:
    def test_scalar_zero(self):
        values, vectors = sym_eigen(np.array([[0.0]]))
        assert values.tolist() == [0.0]
        assert abs(vectors[0, 0]) == pytest.approx(1.0)

    def test_single_edge_laplacian(self):
        values, vectors = sym_eigen(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(values, [0.0, 2.0], atol=1e-12)
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for k in range(2):
            col = vectors[:, k]
            assert np.allclose(col, expect[:, k], atol=1e-12) or np.allclose(
                col, -expect[:, k], atol=1e-12
            )

    def test_path3_spectrum(self, path3):
        values, _ = sym_eigen(path3.laplacian())
        assert np.allclose(values, [0.0, 1.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((40, 40))
        M = (M + M.T) / 2
        values, vectors = sym_eigen(M)
        scale = max(1.0, np.abs(M).max())
        assert np.abs(vectors @ np.diag(values) @ vectors.T - M).max() <= 1e-9 * scale
        assert np.abs(vectors.T @ vectors - np.eye(40)).max() <= 1e-10
        assert (np.diff(values) >= 0).all()

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_laplacian_spectrum_nonnegative(self):
        for seed in range(5):
            g = random_connected_graph(seed, n_max=30)
            values, _ = sym_eigen(g.laplacian())
            assert abs(values[0]) <= 1e-9
            assert values[-1] >= -1e-9


def star(m: int) -> Graph:
    """K_{1,m}: Laplacian spectrum 0, 1 (multiplicity m - 1), m + 1."""
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def caterpillar(spine: int, legs: int) -> Graph:
    """A path of `spine` vertices with `legs` leaves on each: eigenvalue 1 repeats."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (legs + 1), edges)


class TestClusteredSpectra:
    """Both LAPACK routines keep their accuracy where eigenvalues repeat many times."""

    def test_routine_by_order(self, monkeypatch):
        routines = []
        original = gbfpum.numerics.eigh

        def spy(*args, **kwargs):
            routines.append(kwargs["driver"])
            return original(*args, **kwargs)

        monkeypatch.setattr(gbfpum.numerics, "eigh", spy)
        for order in (EVD_MAX_ORDER, EVD_MAX_ORDER + 1):
            sym_eigen(star(order - 1).laplacian())
        assert routines == ["evd", "evr"]

    # divide and conquer below EVD_MAX_ORDER, MRRR above it
    @pytest.mark.parametrize(
        "g",
        [star(150), star(400), caterpillar(60, 2), caterpillar(100, 3), star(600), caterpillar(200, 2)],
    )
    def test_orthonormal_residual_and_values(self, g):
        L = g.laplacian()
        n = g.n
        lam, V = sym_eigen(L)
        scale = n * 1e-14
        assert np.abs(V.T @ V - np.eye(n)).max() <= scale
        assert np.abs(L @ V - V * lam).max() <= scale * lam[-1]
        assert np.abs(lam - np.linalg.eigh(L)[0]).max() <= scale * lam[-1]

    def test_star_multiplicity(self):
        m = 150
        lam = sym_eigen(star(m).laplacian())[0]
        expect = np.concatenate([[0.0], np.ones(m - 1), [m + 1.0]])
        assert np.abs(lam - expect).max() <= (m + 1) * 1e-14 * (m + 1)


def eigen_route(M: np.ndarray) -> tuple[np.ndarray, ...]:
    return sym_eigen(M)


def kernel_route(M: np.ndarray) -> tuple[np.ndarray, ...]:
    return (gbf_kernel(M, KernelParams(s=1.0), np.arange(0, len(M), 9)),)


def solve_route(M: np.ndarray) -> tuple[np.ndarray, ...]:
    return (spd_solve(M, np.ones(len(M))),)


DENSE_ROUTES = {"sym_eigen": eigen_route, "gbf_kernel": kernel_route, "spd_solve": solve_route}


def route_error(name: str, M: np.ndarray, out: tuple[np.ndarray, ...]) -> float:
    """Max error of a dense route's result for M, from M alone."""
    n = len(M)
    if name == "sym_eigen":
        values, V = out
        return float(np.abs(M @ V - V * values).max() / np.abs(values).max())
    if name == "gbf_kernel":  # s = 1: (eps I + M) K[:, cols] = I[:, cols]
        return float(np.abs((0.01 * np.eye(n) + M) @ out[0] - np.eye(n)[:, ::9]).max())
    return float(np.abs(M @ out[0] - 1.0).max())


def shifted_laplacian(g: Graph) -> np.ndarray:
    """L + I, L the Laplacian of g: exactly symmetric, positive definite, C-ordered."""
    return g.laplacian() + np.eye(g.n)


class TestOwnership:
    """A writeable Fortran-ordered float64 matrix is LAPACK's workspace; any other is copied and kept."""

    def test_sym_eigen_and_gbf_kernel_keep_input(self, geometric200):
        M = shifted_laplacian(geometric200)
        before = M.copy()
        for route in (eigen_route, kernel_route):
            route(M)
            assert np.array_equal(M, before)  # C order: LAPACK worked on a copy

    def test_overwrite_is_bit_identical(self, geometric200):
        M = shifted_laplacian(geometric200)
        for name, route in DENSE_ROUTES.items():
            expect = route(M)
            work = M.copy(order="F")
            got = route(work)
            assert not np.array_equal(work, M), name  # LAPACK worked in place: no copy was made
            for a, b in zip(got, expect):
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("name", DENSE_ROUTES)
    def test_read_only_never_written(self, geometric200, name, order):
        # LAPACK's in-place routines once wrote into a read-only Fortran-ordered
        # matrix, whose flag stayed False
        M = shifted_laplacian(geometric200).copy(order=order)
        M.flags.writeable = False
        before = M.copy()
        got = DENSE_ROUTES[name](M)
        assert np.array_equal(M, before) and not M.flags.writeable
        for a, b in zip(got, DENSE_ROUTES[name](before.copy())):
            assert np.array_equal(a, b)
        assert route_error(name, before, got) <= 1e-12

    @pytest.mark.parametrize("name", DENSE_ROUTES)
    def test_order_one_is_fortran_ordered(self, name):
        # a 1 x 1 array is C- and Fortran-contiguous alike, so it is the workspace
        M = np.array([[4.0]])
        got = DENSE_ROUTES[name](M)
        assert M[0, 0] != 4.0
        assert route_error(name, np.array([[4.0]]), got) <= 1e-15


class TestCheckSymmetricBlocks:
    """The dense check runs in row blocks; verdict and reported maximum are the whole-matrix ones."""

    @pytest.mark.parametrize("order", [1, 2, 300, 700])  # 300 and 700 take 2 and 8 blocks
    @pytest.mark.parametrize("where", ["first", "last", "none", "within"])
    def test_matches_whole_matrix(self, order, where):
        rng = np.random.default_rng(order)
        M = rng.standard_normal((order, order))
        M = (M + M.T) / 2
        if where != "none" and order > 1:
            i = 0 if where == "first" else order - 1
            M[i, (i + 1) % order] += 1e-14 if where == "within" else 1e-3 * (1 + i)
        asym = float(np.abs(M - M.T).max())
        if asym > SYM_TOL * max(1.0, float(np.abs(M).max())):
            with pytest.raises(NotSymmetricError) as exc:
                check_symmetric(M)
            assert exc.value.max_asym == asym
        else:
            # the reported maximum: 0.0 exactly when M is exactly symmetric
            assert check_symmetric(M) == asym
            assert (asym > 0) == (where == "within" and order > 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_a_late_block(self, bad):
        M = np.eye(400)
        M[399, 0] = bad
        with pytest.raises(NonFiniteMatrixError):
            check_symmetric(M)

    def test_shapes(self):
        with pytest.raises(NotSymmetricError):
            check_symmetric(np.ones((2, 3)))  # not square
        assert check_symmetric(np.zeros((0, 0))) == 0.0  # the empty matrix is symmetric


def random_spd(order: int, seed: int) -> np.ndarray:
    """An exactly symmetric, positive definite C-ordered matrix."""
    R = np.random.default_rng(seed).standard_normal((order, order))
    return R.T @ R + np.eye(order)


class TestSpdSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(spd_solve(np.eye(3), b), b)

    def test_hand_2x2(self):
        x = spd_solve(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_singular_rejected(self):
        # the factor fails at the same pivot in a Fortran-ordered M's own storage
        # as in a C-ordered M's copy, and the C-ordered M is kept
        wide = random_spd(70, 4)
        wide[40, 40] = 0.0  # the Schur complement's pivot there is negative
        for M, bad in ((np.array([[1.0, -1.0], [-1.0, 1.0]]), 1), (wide, 40)):
            before = M.copy()
            for A in (np.asfortranarray(M.copy()), M):
                with pytest.raises(NotPositiveDefiniteError) as exc:
                    spd_solve(A, np.ones(len(M)))
                assert exc.value.pivot == bad
            assert np.array_equal(M, before)

    @pytest.mark.parametrize("order", [1, 31, 32, 33, 70])
    def test_in_place_matches_copy(self, order):
        # a C-ordered M is factored from a copy and kept, a Fortran-ordered one
        # in its own lower triangle; order 1 is both, so it is factored in place
        M = random_spd(order, order)
        b = np.random.default_rng(0).standard_normal(order)
        before = M.copy()
        expect = spd_solve(M, b)
        assert np.array_equal(M, before) == (order > 1)
        work = before.copy(order="F")
        x = spd_solve(work, b)
        assert np.array_equal(x, expect)
        assert np.array_equal(np.triu(work, 1), np.triu(before, 1))
        assert np.allclose(np.tril(work), np.linalg.cholesky(before), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["read-only", "fortran", "asymmetric"])
    def test_copy_path_inputs_kept(self, kind):
        M = random_spd(40, 5)
        if kind == "read-only":
            M.flags.writeable = False
        elif kind == "fortran":
            # a Fortran-ordered block of a larger matrix is no contiguous buffer
            M = random_spd(50, 5).copy(order="F")[:40, :40]
            assert not M.flags.f_contiguous
        else:
            M[3, 7] += 1e-14  # within SYM_TOL: accepted, but not exactly symmetric
            assert check_symmetric(M) > 0
        before = M.copy()
        b = np.ones(40)
        x = spd_solve(M, b)
        assert np.linalg.norm(before @ x - b) <= 1e-8 * np.linalg.norm(b)
        assert np.array_equal(M, before)

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


class TestDtypeRule:
    # a complex, object or text matrix or right-hand side is refused by its dtype,
    # where a float64 cast dropped the imaginary part or parsed the text
    NOT_REAL = "^need bool, integer or float values, got dtype "

    def test_spd_solve_complex_rhs(self):
        with pytest.raises(TypeError, match=self.NOT_REAL + "complex128$"):
            spd_solve(2 * np.eye(2), [1 + 1j, 2])

    def test_sym_eigen_hermitian(self):
        # its eigenvalues are 1 and 3; the real part alone has 2 and 2
        with pytest.raises(TypeError, match=self.NOT_REAL + "complex128$"):
            sym_eigen([[2, 1j], [-1j, 2]])

    def test_gbf_kernel_complex_laplacian(self):
        L = np.array([[1, -1j], [1j, 1]])
        with pytest.raises(TypeError, match=self.NOT_REAL + "complex128$"):
            gbf_kernel(L, KernelParams(s=1.5), np.arange(2))

    def test_spd_solve_text(self):
        with pytest.raises(TypeError, match=self.NOT_REAL + "<U1$"):
            spd_solve(np.array([["2", "0"], ["0", "2"]]), np.array(["1", "2"]))
        with pytest.raises(TypeError, match=self.NOT_REAL + "<U1$"):
            spd_solve(2 * np.eye(2), np.array(["1", "2"]))

    def test_check_symmetric_sparse_and_object(self):
        with pytest.raises(TypeError, match=self.NOT_REAL + "complex128$"):
            check_symmetric(sp.csr_matrix(np.array([[1, 1j], [-1j, 1]])))
        with pytest.raises(TypeError, match=self.NOT_REAL + "object$"):
            check_symmetric(np.array([[1.0, None], [None, 1.0]], dtype=object))

    def test_spd_solve_rhs_shape(self):
        with pytest.raises(ValueError, match=r"^need one value per row \(2\), got 3$"):
            spd_solve(2 * np.eye(2), np.ones(3))
        with pytest.raises(ValueError, match=r"^need a flat right-hand side, got shape \(2, 1\)$"):
            spd_solve(2 * np.eye(2), np.ones((2, 1)))

    def test_real_input_unchanged(self):
        # bool, integer and float matrices and a list right-hand side give the float64 bits
        M = np.array([[2, -1], [-1, 2]])
        assert np.array_equal(spd_solve(M, [1, 1]), spd_solve(M.astype(float), np.ones(2)))
        assert np.array_equal(sym_eigen(M)[0], sym_eigen(M.astype(float))[0])
        assert check_symmetric(np.eye(3, dtype=bool)) == 0.0
        assert check_symmetric(sp.identity(3, dtype=np.int64, format="csr")) == 0.0

    def test_float_input_is_not_copied(self):
        # the rule reads the dtype alone: a float64 vector passes as itself
        b = np.ones(5)
        assert real_values(b, 5, "flat", "five") is b
        assert gbfpum.pum.real_values is real_values


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
        assert check_symmetric(sp.csr_matrix([[2.0, -1.0], [-1.0, 2.0]])) == 0.0
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

    def test_sparse_lu_indefinite_raises(self, path10):
        M = sp.identity(path10.n, format="csr") - 0.9 * path10.adjacency()
        with pytest.raises(NotPositiveDefiniteError):
            sparse_lu(M)

    def test_sparse_lu_names_original_index_of_bad_pivot(self):
        # eliminating the other rows only lowers A[7,7], and eliminating row 7
        # (a negative pivot) only raises its neighbours': whatever the
        # ordering, 7 is the one bad pivot
        d = np.full(12, 4.0)
        d[7] = -4.0
        M = sp.diags([np.full(11, -1.0), d, np.full(11, -1.0)], [-1, 0, 1], format="csr")
        with pytest.raises(NotPositiveDefiniteError, match=r"\(pivot 7\)") as info:
            sparse_lu(M)
        assert info.value.pivot == 7

    def test_sparse_lu_off_diagonal_pivot_raises(self):
        # a zero diagonal makes SuperLU swap rows; both pivots of the swap are +1
        with pytest.raises(NotPositiveDefiniteError):
            sparse_lu(sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))

    def test_road_factor_is_ldlt(self, minnesota):
        M = minnesota.sparse_laplacian() + 0.01 * sp.identity(minnesota.n, format="csr")
        lu = sparse_lu(M)
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert (lu.U.diagonal() > 0).all()
        # L U = P M P^T with the one permutation, L unit lower triangular
        assert np.array_equal(lu.L.diagonal(), np.ones(minnesota.n))
        P = sp.csr_matrix((np.ones(minnesota.n), (lu.perm_c, np.arange(minnesota.n))))
        assert abs(lu.L @ lu.U - P @ M @ P.T).max() <= 1e-12

    def test_sparse_lu_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            sparse_lu(sp.csr_matrix([[2.0, -1.0], [0.0, 2.0]]))

    def test_low_eigen_matches_dense(self):
        g = random_connected_graph(8, n_min=30, n_max=40)
        dense_values, dense_vectors = sym_eigen(g.laplacian())
        low_values, low_vectors = low_eigen(g.sparse_laplacian(1 / g.n**2), 5)
        assert np.abs(low_values - 1 / g.n**2 - dense_values[:5]).max() <= 1e-10
        # each vector up to sign; the lowest eigenvalues of this graph are simple
        assert np.diff(dense_values[:6]).min() > 1e-3
        overlap = np.abs(np.sum(low_vectors * dense_vectors[:, :5], axis=0))
        assert np.abs(overlap - 1.0).max() <= 1e-10

    def test_low_eigen_factors_once(self, monkeypatch, minnesota):
        shifted, widths = [], []
        original = gbfpum.numerics.sparse_lu

        def counted(M):
            shifted.append(M)
            return CountingLU(original(M), widths)

        monkeypatch.setattr(gbfpum.numerics, "sparse_lu", counted)
        n = minnesota.n
        low_eigen(minnesota.sparse_laplacian(1 / n**2), 11)
        assert len(shifted) == 1
        assert widths and set(widths) == {0}  # Lanczos applies the factor, a vector at a time
        # the pole 0 sits below the spectrum of the matrix given: the factor is of L + I/n^2
        L = minnesota.sparse_laplacian()
        assert abs(shifted[0] - (L + sp.identity(n) / n**2)).max() == 0.0

    @pytest.mark.parametrize("graph", ["road", "path2000"])
    def test_low_eigen_solve_count_does_not_grow_with_n(self, monkeypatch, minnesota, graph):
        # the pole of L + I/n^2 lies inside the low cluster of L; a fixed shift of
        # 1e-3 took 68 solves on the road graph and 91 on the path
        g = minnesota if graph == "road" else path_graph(2000)
        widths = []
        original = gbfpum.numerics.sparse_lu
        monkeypatch.setattr(
            gbfpum.numerics, "sparse_lu", lambda M: CountingLU(original(M), widths)
        )
        low_values, _ = low_eigen(g.sparse_laplacian(1 / g.n**2), 11)
        assert len(widths) <= 50
        if graph == "path2000":
            exact = 2 - 2 * np.cos(np.pi * np.arange(11) / g.n)
            assert np.abs(low_values - 1 / g.n**2 - exact).max() <= 1e-12

    def test_synthetic_signal_is_bit_reproducible(self, minnesota, minnesota_signal):
        assert np.array_equal(synthetic_signal(minnesota), minnesota_signal)

    def test_low_eigen_needs_k_below_order(self, path3):
        with pytest.raises(ValueError):
            low_eigen(path3.sparse_laplacian(1 / 9), 3)

    def test_low_eigen_refuses_singular_laplacian(self, path3):
        # the pole 0 is an eigenvalue of L itself: the factor refuses it
        with pytest.raises((SparseSolverError, NotPositiveDefiniteError)):
            low_eigen(path3.sparse_laplacian(), 1)

    def test_lanczos_failure_is_a_sparse_solver_error(self, monkeypatch, geometric200):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(gbfpum.numerics, "eigsh", no_convergence)
        with pytest.raises(SparseSolverError, match="^shift-invert Lanczos failed: ARPACK error") as exc:
            synthetic_signal(geometric200)
        assert exc.value.solver == "shift-invert Lanczos"


def openblas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, read from the libraries themselves."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def test_blas_threads_follow_environment():
    # a thread count set in the environment reaches the libraries only if
    # nothing loaded them before it was set
    wanted = os.environ.get("OPENBLAS_NUM_THREADS")
    if wanted is None:
        pytest.skip("OPENBLAS_NUM_THREADS is not set")
    found = openblas_threads()
    if not found:
        pytest.skip("no loaded OpenBLAS reports its thread count")
    assert found == dict.fromkeys(found, int(wanted))
