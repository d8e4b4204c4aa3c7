"""Partition-of-unity kernel interpolation: local solves, global blending, errors."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .community import Community, Cover, DetectionParams, detect_communities
from .errors import NoSamplesError, UncoveredVertexError, ZeroSignalError
from .graph import Graph, as_vertex_set
from .kernel import KernelParams, kernel_columns
from .numerics import low_eigen, spd_solve, sym_eigen


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
    solve_residual: float

    def to_json_dict(self) -> dict:
        return {
            "community_id": self.community_id,
            "subdomain_size": self.subdomain_size,
            "sample_count": self.sample_count,
            "solve_residual": self.solve_residual,
        }


@dataclass
class PumResult:
    approximant: np.ndarray
    rrmse: float
    per_community: list[CommunityDiagnostics]
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self, params: dict | None = None) -> dict:
        doc = {
            "format_version": 1,
            "rrmse": self.rrmse,
            "n_communities": len(self.per_community),
            "per_community": [d.to_json_dict() for d in self.per_community],
            "wall_times": self.wall_times,
        }
        if params is not None:
            doc["params"] = params
        return doc


def build_pu(cover: Cover, n: int) -> PartitionOfUnity:
    """Count subdomain multiplicity per vertex; every vertex must be covered."""
    mult = np.zeros(n, dtype=np.int64)
    for c in cover.communities:
        mult[c.subdomain] += 1
    uncovered = np.flatnonzero(mult == 0)
    if len(uncovered):
        raise UncoveredVertexError(int(uncovered[0]))
    return PartitionOfUnity(multiplicity=mult)


def local_interpolant(
    g: Graph, c: Community, y: np.ndarray, p: KernelParams, community_id: int = 0
) -> tuple[np.ndarray, CommunityDiagnostics]:
    """Kernel interpolant on one subdomain, exact at its sample nodes.

    Solves K[W,W] a = y[W] on the subdomain's kernel matrix and evaluates
    s(v) = sum_i a_i K[v, w_i] at every subdomain vertex. The kernel enters
    only through its columns K[:, W] (`kernel_columns`).
    """
    nodes = c.interpolation_nodes
    if len(nodes) == 0:
        raise NoSamplesError(community_id)
    sub, vs = g.induced_subgraph(c.subdomain)
    w_loc = np.searchsorted(vs, nodes)
    Kw = kernel_columns(sub, w_loc, p)
    Kww = Kw[w_loc]
    y_w = y[nodes]
    a = spd_solve(Kww, y_w)
    resid = float(np.linalg.norm(Kww @ a - y_w) / max(np.linalg.norm(y_w), 1.0))
    s = Kw @ a
    diag = CommunityDiagnostics(
        community_id=community_id,
        subdomain_size=len(vs),
        sample_count=len(nodes),
        solve_residual=resid,
    )
    return s, diag


def assemble_global(
    cover: Cover, pu: PartitionOfUnity, locals_: list[np.ndarray], n: int
) -> np.ndarray:
    """Blend local interpolants with the partition-of-unity weights."""
    if len(locals_) != len(cover.communities):
        raise ValueError("need one local vector per community")
    out = np.zeros(n)
    for c, s in zip(cover.communities, locals_):
        sub = c.subdomain
        out[sub] += pu.weights(sub) * s
    return out


def rrmse(truth: np.ndarray, approx: np.ndarray) -> float:
    """Relative l2 error ||truth - approx|| / ||truth||."""
    truth = np.asarray(truth, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    if truth.shape != approx.shape:
        raise ValueError("signals must have equal length")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise ZeroSignalError()
    return float(np.linalg.norm(truth - approx) / denom)


def run_pipeline(
    g: Graph,
    y_full: np.ndarray,
    W: np.ndarray,
    dp: DetectionParams,
    kp: KernelParams,
) -> tuple[PumResult, Cover]:
    """Detect communities, interpolate locally, assemble, score against y_full."""
    W = as_vertex_set(W, g.n)
    t0 = time.perf_counter()
    cover = detect_communities(g, W, dp)
    t1 = time.perf_counter()
    pu = build_pu(cover, g.n)
    locals_, diags = [], []
    for cid, c in enumerate(cover.communities):
        s, d = local_interpolant(g, c, y_full, kp, community_id=cid)
        locals_.append(s)
        diags.append(d)
    approx = assemble_global(cover, pu, locals_, g.n)
    t2 = time.perf_counter()
    result = PumResult(
        approximant=approx,
        rrmse=rrmse(y_full, approx),
        per_community=diags,
        wall_times={
            **cover.stage_times,
            "partition_s": t1 - t0,
            "interpolate_s": t2 - t1,
            "total_s": t2 - t0,
        },
    )
    return result, cover


def global_gbf_baseline(
    g: Graph, y_full: np.ndarray, W: np.ndarray, kp: KernelParams
) -> PumResult:
    """Single-domain kernel interpolation over the whole graph."""
    W = as_vertex_set(W, g.n)
    c = Community.of(np.arange(g.n, dtype=np.int64), np.empty(0, dtype=np.int64), W)
    t0 = time.perf_counter()
    s, diag = local_interpolant(g, c, y_full, kp, community_id=0)
    t1 = time.perf_counter()
    return PumResult(
        approximant=s,
        rrmse=rrmse(y_full, s),
        per_community=[diag],
        wall_times={"partition_s": 0.0, "interpolate_s": t1 - t0, "total_s": t1 - t0},
    )


def synthetic_signal(g: Graph, n_modes: int = 10) -> np.ndarray:
    """Smooth reference signal: sum of the lowest nonzero-frequency Laplacian modes.

    Unit coefficients on the eigenvectors of the `n_modes` smallest nonzero
    eigenvalues; each eigenvector's sign is fixed by its first nonzero entry.
    The lowest n_modes + 1 pairs come from shift-invert Lanczos on the sparse
    Laplacian; only when that asks for every mode (n_modes + 1 >= n) does the
    dense eigendecomposition run.
    """
    if n_modes + 1 < g.n:
        eig = low_eigen(g.sparse_laplacian(), n_modes + 1)
    else:
        eig = sym_eigen(g.laplacian())
    vecs = eig.vectors[:, 1 : 1 + n_modes]
    y = np.zeros(g.n)
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if len(nz) and v[nz[0]] < 0:
            v = -v
        y += v
    return y


def sample_nodes(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform sample of `count` distinct vertices (numpy PCG64).

    Samples are prefixes of one seeded permutation, so counts drawn with the
    same seed are nested.
    """
    if not 1 <= count <= n:
        raise ValueError("count must lie in [1, n]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(n)[:count])
