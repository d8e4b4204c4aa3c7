"""Both integer-s routes against an exact reference: the chain system, refined in long double.

On one subdomain, with M = eps I + L of its induced subgraph, S its sampled
vertices and E_S their selector, the GBF interpolant f = v_0 solves

    M v_k - v_(k+1) = 0    for k < s - 1,
    M v_(s-1) - E_S mu = 0,
    E_S^T v_0 = y_S,

so M^s f = E_S mu and f_S = y_S, without forming M^s or M^(-s). Every entry
is a float64 degree plus eps, or +-1. One general-mode `splu` factors the
system, and residuals summed in `np.longdouble` refine its solution until the
last correction of f is below 1e-15 max|y|: the result is each community's
interpolant for the float eps, to about that. The blend is by 1/multiplicity,
with y written back at the samples, as the stage does.

Each route's error max|route - reference| / max|y| is pinned at 10x the value
measured when the pin was set (at one and two BLAS threads, the larger), and
at no less than 1e-15, so a route may get more accurate but not worse. A
route that raises NotPositiveDefiniteError on a case is asserted to raise.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import gbfpum.pum
from gbfpum import (
    Community,
    Cover,
    DetectionParams,
    KernelParams,
    detect_communities,
    global_gbf_baseline,
    interpolate_cover,
    rrmse,
    sample_nodes,
    synthetic_signal,
)
from gbfpum.errors import NotPositiveDefiniteError

from conftest import path_graph, two_triangle_graph

REFINE_TOL = 1e-15  # last correction of f, per max|y|
REFINE_STEPS = 20
FLOOR = 1e-15  # the smallest pin: a few ulps of max|y|


def chain_interpolant(g, nodes: np.ndarray, y_nodes: np.ndarray, eps: float, s: int, scale: float):
    """f on g from the values y_nodes at nodes, by the refined chain system (module docstring)."""
    n, m = g.n, len(nodes)
    M = (g.sparse_laplacian() + eps * sp.identity(n, format="csr")).tocsr()
    E = sp.csr_matrix((np.ones(m), (nodes, np.arange(m))), shape=(n, m))
    blocks = [[None] * (s + 1) for _ in range(s + 1)]
    for k in range(s):
        blocks[k][k] = M
        if k < s - 1:
            blocks[k][k + 1] = -sp.identity(n, format="csr")
    blocks[s - 1][s] = -E
    blocks[s][0] = E.T
    A = sp.bmat(blocks, format="csc")
    b = np.zeros(s * n + m, dtype=np.longdouble)
    b[s * n :] = y_nodes
    lu = splu(A)  # general mode: partial pivoting, COLAMD ordering
    coo = A.tocoo()
    entries = coo.data.astype(np.longdouble)
    x = np.zeros(len(b), dtype=np.longdouble)
    for _ in range(REFINE_STEPS):
        r = b.copy()
        np.subtract.at(r, coo.row, entries * x[coo.col])  # b - A x in long double
        step = lu.solve(r.astype(np.float64))
        x += step
        if np.abs(step[:n]).max() <= REFINE_TOL * scale:
            return x[:n].astype(np.float64)
    raise AssertionError(f"chain refinement did not converge in {REFINE_STEPS} steps")


def chain_reference(g, cover: Cover, y: np.ndarray, s: int, eps: float = 0.01) -> np.ndarray:
    """The partition-of-unity approximant with every community's exact interpolant."""
    subs = [c.subdomain for c in cover.communities]
    mult = np.bincount(np.concatenate(subs), minlength=g.n)
    scale = float(np.abs(y).max())
    out = np.zeros(g.n)
    for sub_vs in subs:
        sub, vs = g.induced_subgraph(sub_vs)
        nodes = np.flatnonzero(np.isin(vs, cover.samples))
        out[vs] += chain_interpolant(sub, nodes, y[vs[nodes]], eps, s, scale) / mult[vs]
    out[cover.samples] = y[cover.samples]
    return out


def error(route: np.ndarray, reference: np.ndarray, y: np.ndarray) -> float:
    return float(np.abs(route - reference).max() / np.abs(y).max())


def check(route, pin, reference, y):
    """route() is within max(10 pin, FLOOR) of the reference, or raises where pin is None."""
    if pin is None:
        with pytest.raises(NotPositiveDefiniteError):
            route()
        return
    assert error(route(), reference, y) <= max(10 * pin, FLOOR)


def whole(g, W: np.ndarray) -> Cover:
    return Cover([Community(np.arange(g.n), np.array([], dtype=np.int64))], W)


# max|route - reference| / max|y| as measured, (native, kernel route); None: not positive definite
ONE_COMMUNITY = {
    ("path10", 1): (2.2e-17, 6.8e-16),
    ("path10", 2): (1.3e-16, 3.4e-14),
    ("path10", 3): (1.7e-16, 9.0e-13),
    ("path10", 4): (6.8e-16, 4.5e-11),
    ("path10", 5): (1.4e-14, 1.1e-9),
    ("path10", 6): (7.6e-15, 5.3e-8),
    ("two_triangle", 1): (1.4e-16, 5.4e-16),
    ("two_triangle", 2): (1.4e-16, 7.2e-14),
    ("two_triangle", 3): (2.7e-16, 2.7e-12),
    ("two_triangle", 4): (2.7e-16, 3.1e-10),
    ("two_triangle", 5): (4.9e-16, 2.4e-8),
    ("two_triangle", 6): (7.0e-16, 3.1e-7),
    ("geometric200", 1): (6.8e-16, 1.5e-15),
    ("geometric200", 2): (7.8e-16, 5.3e-13),
    ("geometric200", 3): (3.9e-14, 1.6e-10),
    ("geometric200", 4): (1.6e-13, 3.4e-8),
    ("geometric200", 5): (3.6e-14, 3.0e-5),
    ("geometric200", 6): (4.5e-13, None),
    ("path10", 7): (1.1e-13, 3.7e-6),
    ("path10", 8): (6.8e-13, 9.2e-5),
    ("two_triangle", 7): (1.6e-15, 1.2e-5),
    ("two_triangle", 8): (2.7e-15, 1.1e-3),
    ("geometric200", 7): (6.8e-13, None),
    ("geometric200", 8): (5.7e-12, None),
}
# road graph, sample seed 0, default cover, by (N, s): (native, kernel route) as above, and
# the reference's rrmse (ROADMAP Finding 3). N = 200 at s = 7 and 8 are left out: there the
# native route is off by 7.75 max|y| or not positive definite, and their tests belong with
# the change that mends it.
ROAD = {
    (200, 4): (5.2e-8, 1.2e-10, 0.2531),
    (200, 5): (6.3e-6, 1.2e-8, 0.4524),
    (200, 6): (3.2e-3, 2.8e-7, 0.5983),
    (400, 5): (1.7e-7, 2.4e-7, 0.1685),
    (400, 6): (4.7e-6, 3.5e-5, 0.7401),
    (400, 7): (6.8e-4, 4.7e-3, 2.2049),
    (400, 8): (2.7e-1, None, 3.6054),
    (800, 6): (4.9e-8, 4.8e-4, 0.0156),
    (800, 7): (1.4e-7, None, 0.0688),
    (800, 8): (1.1e-5, None, 0.3117),
}


GRAPHS = {
    "path10": lambda geometric200: (path_graph(10), np.array([1, 4, 8])),
    "two_triangle": lambda geometric200: (two_triangle_graph(), np.array([0, 4])),
    "geometric200": lambda geometric200: (geometric200, sample_nodes(200, 40, 0)),
}


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_one_community(geometric200, name, s):
    g, W = GRAPHS[name](geometric200)
    y = synthetic_signal(g)
    kp = KernelParams(s=float(s))
    reference = chain_reference(g, whole(g, W), y, s)
    native, kernel = ONE_COMMUNITY[name, s]
    check(lambda: interpolate_cover(g, whole(g, W), y, kp)[0], native, reference, y)
    check(lambda: global_gbf_baseline(g, y, W, kp).approximant, kernel, reference, y)


@pytest.mark.parametrize(("N", "s"), list(ROAD))
def test_road_graph(minnesota, minnesota_signal, N, s):
    g, y = minnesota, minnesota_signal
    W = sample_nodes(g.n, N, 0)
    cover = detect_communities(g, W, DetectionParams())
    kp = KernelParams(s=float(s))
    reference = chain_reference(g, cover, y, s)
    native, kernel, reference_rrmse = ROAD[N, s]
    assert rrmse(y, reference) == pytest.approx(reference_rrmse, abs=5e-5)
    kernel_route = gbfpum.pum._kernel_solve
    check(lambda: interpolate_cover(g, cover, y, kp)[0], native, reference, y)
    check(lambda: gbfpum.pum._interpolate(g, cover, y, kp, kernel_route)[0], kernel, reference, y)
