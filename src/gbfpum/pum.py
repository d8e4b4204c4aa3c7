"""Partition-of-unity kernel interpolation: local solves, global blending, errors.

`interpolate_cover` is the interpolation stage of `run_pipeline`. Every
subdomain becomes one block of a disjoint-union graph of vertex copies, and
one of two solvers fills one vector f over those copies with the local
kernel interpolants of K = (eps I + L)^(-s):

- integer s, the native route: A = (eps I + L)^s = K^-1 of the union is
  sparse. With S the sampled vertex copies and U the others, the block
  inverse identity K[U,S] K[S,S]^-1 = -A[U,U]^-1 A[U,S] gives every local
  interpolant from one sparse LDL^T factor (`numerics.sparse_lu`):
  f[S] = y[S], A[U,U] f[U] = -A[U,S] y[S]. Only the rows A[U, :] are
  built, from s - 1 row products of eps I + L.
- any other s, the kernel route: `local_interpolant` on each connected piece
  of the union, which solves K[W,W] a = y[W] and evaluates K[:, W] a.
  K is block diagonal over the pieces, so a subdomain's interpolant is its
  pieces' interpolants side by side, and the dense eigendecomposition only
  ever sees one piece.

Both solvers return vectors over the copies, which only `_interpolate` reduces:
into the blend (`assemble_global`, weight 1/multiplicity) with y written back
at the samples, and into one diagnostics record per community.

`global_gbf_baseline` is the paper's single-domain comparison: the same stage
on the cover of one subdomain, the whole graph with every sample and weight
1, always on the kernel route.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .community import FORMAT_VERSION, Community, Cover, DetectionParams, detect_communities
from .errors import (
    EmptySetError,
    NonFiniteResidualError,
    SampleFreePieceError,
    UncoveredVertexError,
    ZeroSignalError,
)
from .graph import Graph, as_vertex_set, check_nodes, check_range, groups, integer_entries
from .kernel import KernelParams, kernel_block
from .numerics import low_eigen, real_values, sparse_lu, spd_solve, sym_eigen

SIGNAL_MODES = 10  # Laplacian modes in `synthetic_signal`


@dataclass
class PartitionOfUnity:
    """Uniform Shepard weights: phi_j(v) = 1 / (number of subdomains holding v)."""

    multiplicity: np.ndarray  # per vertex, over all subdomains

    def weights(self, subdomain: np.ndarray) -> np.ndarray:
        return 1.0 / self.multiplicity[subdomain]


@dataclass
class CommunityDiagnostics:
    community_id: int
    subdomain_size: int
    sample_count: int
    # relative residual of the community's solve: on the kernel route the miss
    # of its pieces' interpolants at their samples, on the native one of A[U,U]
    solve_residual: float
    # connected pieces of the subdomain and the fewest samples in any of them
    pieces: int
    min_piece_samples: int


@dataclass
class PumResult:
    approximant: np.ndarray
    rrmse: float
    per_community: list[CommunityDiagnostics]
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "rrmse": self.rrmse,
            "n_communities": len(self.per_community),
            "per_community": [asdict(d) for d in self.per_community],
            "wall_times": self.wall_times,
        }


def build_pu(cover: Cover, n: int) -> PartitionOfUnity:
    """Subdomain multiplicity per vertex; the subdomains' ids must lie in 0..n-1 and cover it."""
    subs = [c.subdomain for c in cover.communities]
    # from an empty array, so a cover without communities leaves vertex 0 uncovered
    copies = np.concatenate([np.empty(0, dtype=np.int64)] + subs)
    check_range(copies, n)
    empty = [cid for cid, sub in enumerate(subs) if len(sub) == 0]
    if empty:
        raise EmptySetError(f"subdomain of community {empty[0]}")
    mult = np.bincount(copies, minlength=n)
    uncovered = np.flatnonzero(mult == 0)
    if len(uncovered):
        raise UncoveredVertexError(int(uncovered[0]))
    return PartitionOfUnity(multiplicity=mult)


def local_interpolant(
    g: Graph, nodes: np.ndarray, y_nodes: np.ndarray, p: KernelParams
) -> tuple[np.ndarray, float]:
    """Kernel interpolant on graph g from the values y_nodes at its vertices nodes.

    Solves K[W,W] a = y[W] (W = nodes) by Cholesky and evaluates
    s(v) = sum_i a_i K[v, w_i] at every vertex of g, so s reproduces y at W
    up to the solve's rounding. The kernel enters only through the block
    K[W,W] and the product K[:, W] a (`kernel_block`): for integer s neither
    needs the columns K[:, W] themselves. Also returns the residual norm
    ||s(W) - y[W]||, which is ||K[W,W] a - y[W]|| in exact arithmetic and
    needs no second read of K[W,W], whose storage the Cholesky factor takes.
    Before any of it, the nodes must be distinct ids of g (`check_nodes`), in
    any order, with one finite value each in y_nodes (`real_values`).
    """
    if len(nodes) == 0:
        raise EmptySetError("interpolation node set")
    nodes = check_nodes(nodes, g.n)
    y_nodes = real_values(y_nodes, len(nodes), "a flat array of node values", "one value per node")
    bad = np.flatnonzero(~np.isfinite(y_nodes))
    if len(bad):
        raise ValueError(f"value {y_nodes[bad[0]]} at node {nodes[bad[0]]} is not finite")
    Kww, evaluate = kernel_block(g, nodes, p)
    f = evaluate(spd_solve(Kww, y_nodes))
    return f, float(np.linalg.norm(f[nodes] - y_nodes))


def assemble_global(cover: Cover, pu: PartitionOfUnity, f: np.ndarray, n: int) -> np.ndarray:
    """Blend f, one value per vertex copy (`real_values`), by the PU weights, summed in community order."""
    copies = np.concatenate([c.subdomain for c in cover.communities])
    f = real_values(f, len(copies), "a flat array of vertex copy values", "one value per vertex copy")
    return np.bincount(copies, weights=pu.weights(copies) * f, minlength=n)


def _norm(y: np.ndarray) -> float:
    """||y||, computed as 2^e ||2^-e y|| with e the binary exponent of max|y|.

    The scale is exact, so on a signal whose squares neither overflow nor
    underflow this is np.linalg.norm(y) bit for bit, and on one whose
    squares do (entries from about 1e154 up or 1e-154 down) it is still the
    norm.
    """
    e = np.frexp(np.abs(y).max(initial=0.0))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(y, -e)), e)


def rrmse(truth: np.ndarray, approx: np.ndarray) -> float:
    """Relative l2 error ||truth - approx|| / ||truth|| of two flat signals (`real_values`).

    A NaN or inf in either raises ValueError naming the signal and its first
    such vertex. Each norm is taken in a power-of-two scale (`_norm`), so a
    finite signal of any magnitude gets a finite error.
    """
    if np.shape(truth) != np.shape(approx):
        raise ValueError("signals must have equal length")
    truth, approx = (real_values(y, np.size(y), "a flat signal", "") for y in (truth, approx))
    for name, y in (("truth", truth), ("approximant", approx)):
        bad = np.flatnonzero(~np.isfinite(y))
        if len(bad):
            raise ValueError(f"{name} value {y[bad[0]]} at vertex {bad[0]} is not finite")
    denom = _norm(truth)
    if denom == 0.0:
        raise ZeroSignalError()
    return float(_norm(truth - approx) / denom)


def _piece_health(
    g: Graph, part: np.ndarray, sampled: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pieces per part of a disjoint union, fewest samples per piece, each vertex's piece.

    Vertex i of g belongs to part[i] (0 <= part < k) and is an interpolation
    node where sampled[i]. A piece without one would get the zero
    interpolant, so it raises SampleFreePieceError for the lowest such part.
    """
    count, piece = csgraph.connected_components(g.adjacency(), directed=False)
    piece_part = np.empty(count, dtype=np.int64)
    piece_part[piece] = part
    samples = np.bincount(piece[sampled], minlength=count)
    empty = np.flatnonzero(samples == 0)
    if len(empty):
        worst = empty[np.argmin(piece_part[empty])]
        raise SampleFreePieceError(int(piece_part[worst]), int(np.sum(piece == worst)))
    fewest = np.full(k, np.iinfo(np.int64).max)
    np.minimum.at(fewest, piece_part, samples)
    return np.bincount(piece_part, minlength=k), fewest, piece


def _native_solve(
    union: Graph, piece: np.ndarray, sampled: np.ndarray, y: np.ndarray, kp: KernelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f = y on the sampled copies and -A[U,U]^-1 A[U,S] y[S] on the others.

    Of A = M^s, M = eps I + L of the union, only the rows at U are built:
    M[U] times M, s - 1 times, as row i of a CSR product is row i of its
    left factor times the right one. Also returns the squared entries of the
    residual and of the right-hand side of the A[U,U] system, 0 at the
    samples. The pieces are not needed: one sparse factor serves them all.
    """
    M = union.sparse_laplacian(kp.epsilon)
    U = np.flatnonzero(~sampled)
    rows = M[U]
    for _ in range(int(kp.s) - 1):
        rows = rows @ M
    A_uu = rows[:, U]
    b = -(rows @ y)  # y is 0 off the samples
    del rows  # freed before the factor, which sets the stage's memory peak
    f = y.copy()
    if len(U):
        f[U] = sparse_lu(A_uu).solve(b)
    r2, b2 = np.zeros(union.n), np.zeros(union.n)
    r2[U] = (A_uu @ f[U] - b) ** 2
    b2[U] = b**2
    return f, r2, b2


def _kernel_solve(
    union: Graph, piece: np.ndarray, sampled: np.ndarray, y: np.ndarray, kp: KernelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f from one `local_interpolant` per connected piece (label `piece`) of the union.

    Also returns each piece's squared residual norm (its interpolant's miss
    at its samples), at the piece's first copy, and the squared right-hand
    side y**2.
    """
    f = np.empty(union.n)
    r2 = np.zeros(union.n)
    for vs in groups(piece):
        # a piece that is the whole union gets the union itself, not a copy of it
        sub, vs = union.induced_subgraph(vs)
        hit = sampled[vs]
        f[vs], resid = local_interpolant(sub, np.flatnonzero(hit), y[vs[hit]], kp)
        r2[vs[0]] = resid**2
    return f, r2, y**2


def _interpolate(
    g: Graph, cover: Cover, y: np.ndarray, kp: KernelParams, solve: Callable
) -> tuple[np.ndarray, list[CommunityDiagnostics], dict[str, float]]:
    """The interpolation stage on `cover`, with `_native_solve` or `_kernel_solve` as `solve`.

    Each community interpolates at the cover's samples in its subdomain; one
    mask over the graph, set at the checked sample ids, marks the sampled copies.
    """
    y = real_values(y, g.n, f"a flat signal of {g.n} values", "one signal value per vertex")
    mask = np.zeros(g.n, dtype=bool)
    mask[as_vertex_set(cover.samples, g.n)] = True
    bad = np.flatnonzero(mask & ~np.isfinite(y))
    if len(bad):
        raise ValueError(f"signal value {y[bad[0]]} at sampled vertex {bad[0]} is not finite")
    pu = build_pu(cover, g.n)
    subs = [c.subdomain for c in cover.communities]
    k = len(subs)
    part = np.repeat(np.arange(k), [len(sub) for sub in subs])
    copies = np.concatenate(subs)
    sampled = mask[copies]
    sample_count = np.bincount(part[sampled], minlength=k)
    union = g.disjoint_union(subs)
    pieces, fewest, piece = _piece_health(union, part, sampled, k)
    y_copies = np.where(sampled, y[copies], 0.0)

    t0 = time.perf_counter()
    with np.errstate(over="ignore"):  # an overflowing square is raised below as an inf norm
        f, r2, b2 = solve(union, piece, sampled, y_copies, kp)
    resid2, rhs2 = (np.bincount(part, weights=w, minlength=k) for w in (r2, b2))
    bad = np.flatnonzero(~np.isfinite(resid2 + rhs2))
    if len(bad):
        raise NonFiniteResidualError(int(bad[0]))
    resid = np.sqrt(resid2) / np.maximum(np.sqrt(rhs2), 1.0)
    t1 = time.perf_counter()
    approx = assemble_global(cover, pu, f, g.n)
    approx[copies[sampled]] = y_copies[sampled]  # the solves and the sums hold y only to rounding
    t2 = time.perf_counter()
    rows = zip(map(len, subs), *(a.tolist() for a in (sample_count, resid, pieces, fewest)))
    diags = [CommunityDiagnostics(cid, *row) for cid, row in enumerate(rows)]
    return approx, diags, {"solve_s": t1 - t0, "assemble_s": t2 - t1}


def _solver(kp: KernelParams) -> Callable:
    """The native route for integer s, the kernel route for any other."""
    return _native_solve if float(kp.s).is_integer() else _kernel_solve


def interpolate_cover(
    g: Graph, cover: Cover, y: np.ndarray, kp: KernelParams
) -> tuple[np.ndarray, list[CommunityDiagnostics], dict[str, float]]:
    """Partition-of-unity approximant of y from its values at the cover's samples.

    Every community's local interpolant, native route for integer s and
    kernel route per connected piece otherwise (see the module docstring),
    fills its block of one vector over the subdomains' vertex copies;
    `assemble_global` blends the blocks with weight 1/multiplicity and y is
    written back at the samples. Before any solve, one connected-components
    pass over the subdomains' disjoint union labels its pieces and counts
    them per subdomain; a piece with no sample raises SampleFreePieceError.
    A signal that is not a flat array of one value per vertex raises
    ValueError first (a dtype other than bool, integer or float TypeError,
    `real_values`), then a sample id out of 0..n-1 OutOfRangeError (order
    and repeats do not matter), a signal not finite at a sample ValueError,
    and then `build_pu` checks the subdomains' ids. Also returns the wall
    seconds of the solves (`solve_s`) and of the blend and write-back
    (`assemble_s`).
    """
    return _interpolate(g, cover, y, kp, _solver(kp))


def _scored(
    g: Graph,
    y_full: np.ndarray,
    cover: Cover,
    kp: KernelParams,
    solve: Callable,
    partition_s: float,
) -> PumResult:
    """The stage's result on `cover`, scored against y_full, with the cover's times."""
    t0 = time.perf_counter()
    approx, diags, times = _interpolate(g, cover, y_full, kp, solve)
    interpolate_s = time.perf_counter() - t0
    return PumResult(
        approximant=approx,
        rrmse=rrmse(y_full, approx),
        per_community=diags,
        wall_times={
            **cover.stage_times,
            **times,
            "partition_s": partition_s,
            "interpolate_s": interpolate_s,
            "total_s": partition_s + interpolate_s,
        },
    )


def run_pipeline(
    g: Graph,
    y_full: np.ndarray,
    W: np.ndarray,
    dp: DetectionParams,
    kp: KernelParams,
) -> tuple[PumResult, Cover]:
    """Detect communities, interpolate locally, assemble, score against y_full."""
    t0 = time.perf_counter()
    cover = detect_communities(g, W, dp)
    return _scored(g, y_full, cover, kp, _solver(kp), time.perf_counter() - t0), cover


def global_gbf_baseline(
    g: Graph, y_full: np.ndarray, W: np.ndarray, kp: KernelParams
) -> PumResult:
    """Single-domain kernel interpolation over the whole graph: the paper's baseline.

    It is the interpolation stage on the cover of one subdomain, the whole
    graph, holding every sample with weight 1: its piece check, write-back,
    diagnostics and `wall_times` (`partition_s` is 0) are those of
    `run_pipeline`. It stays on the kernel route (the block K[W,W], its
    Cholesky solve and the product K[:, W] a) for every s, on purpose. On
    the native route of `interpolate_cover` the global solve costs as much
    as the partition of unity at the paper's sizes: at N=400 on the
    2642-vertex road graph the subdomains hold 2,691 vertex copies, more
    than the graph itself, and both solves took about 0.009 s (best of
    seven, one BLAS thread).
    """
    whole = Cover([Community(np.arange(g.n), np.array([], dtype=np.int64))], W)
    return _scored(g, y_full, whole, kp, _kernel_solve, 0.0)


def synthetic_signal(g: Graph) -> np.ndarray:
    """Smooth reference signal: sum of the lowest nonzero-frequency Laplacian modes.

    Unit coefficients on the eigenvectors of the SIGNAL_MODES smallest nonzero
    eigenvalues (all of them if fewer); each one's sign is fixed by its first
    nonzero entry. The lowest SIGNAL_MODES + 1 pairs come from shift-invert
    Lanczos (`low_eigen`) on L + I/n^2 (`Graph.sparse_laplacian(1/n^2)`),
    whose eigenvectors are those of L; only when that asks for every mode
    (SIGNAL_MODES + 1 >= n) does the dense eigendecomposition run. The shift
    1/n^2 makes the singular L positive definite, and for a connected graph
    it is below a quarter of the smallest nonzero eigenvalue of L, which is
    at least 4/(n diam) > 4/n^2 (Mohar, Graphs Combin. 1991). The pole then
    sits among the low modes rather than above the whole cluster, so the
    number of solves does not grow with n: 43 on the 2,642-vertex road graph
    and 42 on a 50,000-vertex road surrogate, where a fixed shift of 1e-3
    took 68 and 734.

    It depends on the graph alone only when those SIGNAL_MODES eigenvalues are
    simple and lie below the next; otherwise it sums whichever eigenbasis the
    solver returns, as Lanczos does from its fixed start on K_n for n >= 12.
    """
    if SIGNAL_MODES + 1 < g.n:
        _, vectors = low_eigen(g.sparse_laplacian(1.0 / g.n**2), SIGNAL_MODES + 1)
    else:
        _, vectors = sym_eigen(g.laplacian())
    y = np.zeros(g.n)
    for v in vectors[:, 1 : 1 + SIGNAL_MODES].T:
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if len(nz) and v[nz[0]] < 0:
            v = -v
        y += v
    return y


def sample_nodes(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform sample of `count` distinct vertices (numpy PCG64).

    Samples are prefixes of one seeded permutation, so counts drawn with the
    same seed are nested. `count` and `seed` go through
    `graph.integer_entries`: a boolean or a non-integer raises ValueError
    naming it.
    """
    count, seed = map(int, integer_entries(
        [count, seed], lambda i, xs: f"{('count', 'seed')[i]} must be an integer, got {xs[i]!r}"))
    if not 1 <= count <= n:
        raise ValueError("count must lie in [1, n]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(n)[:count])
