"""Metamorphic relations of the interpolation stage: properties that need no reference value.

Each relation compares two runs of the stage, so it holds on any graph, not
only on those with an oracle (the dense kernel, networkx, the chain system).
The cases are the committed graphs and seeded `random_connected_graph` draws,
each with its reference signal at seeded samples.

- Scaling: P(c y) = c P(y) bit for bit for c = 4 and 2^-3, on the native
  route (s = 2, 3), the kernel route (s = 1.5) and `global_gbf_baseline`.
  Every operation on y is linear, and a power-of-two scale is exact in
  binary floating point unless it overflows or underflows.
- Linearity: P(y + z) = P(y) + P(z) to rounding, z standard normal.
- Relabelling: for a permutation pi of the vertices, the cover of the
  relabelled graph and samples is pi of the cover, and the approximant is
  pi of the approximant to rounding. The split orders samples by Katz
  score and then by vertex id, so where two samples tie exactly in Katz
  (a graph automorphism) the relabelled graph may legitimately get another
  cover: those draws are skipped. The road graph at s >= 5 stays out: the
  native route's error there (ROADMAP Finding 3) moves by up to 7.75 max|y|
  under relabelling.

Each tolerance is 10x the largest deviation, relative to max|y|, measured
over these cases (the same at one and at two BLAS threads): linearity
4.08e-13, 6.34e-15 and 2.62e-12, relabelling 3.57e-13, 3.35e-13 and
1.58e-10 at s = 1.5, 2 and 3.
"""

from functools import lru_cache

import numpy as np
import pytest

from gbfpum import (
    DetectionParams,
    Graph,
    KernelParams,
    detect_communities,
    global_gbf_baseline,
    interpolate_cover,
    load_graph,
    rrmse,
    sample_nodes,
    synthetic_signal,
)
from gbfpum.community import Cover
from gbfpum.metrics import katz_centrality

from conftest import DATA, random_connected_graph

LINEARITY_TOL = {1.5: 4.1e-12, 2.0: 6.4e-14, 3.0: 2.7e-11}
RELABEL_TOL = {1.5: 3.6e-12, 2.0: 3.4e-12, 3.0: 1.6e-9}
CASES = ["road-200", "geometric200-20", "geometric200-40"] + [f"random-{seed}" for seed in range(10)]
ROUTES = [1.5, 2.0, 3.0]  # the kernel route, then the native route twice


@lru_cache(maxsize=None)
def case(name: str) -> tuple[Graph, np.ndarray, np.ndarray]:
    """(graph, samples, reference signal) of a case named "<graph>-<number>".

    A committed graph ("road", "geometric200") takes that many samples, at
    sample seed 0; "random-<seed>" is that `random_connected_graph` draw with
    n // 5 samples (at least 2), at that sample seed.
    """
    kind, _, number = name.partition("-")
    if kind == "random":
        g, seed = random_connected_graph(int(number)), int(number)
        count = max(2, g.n // 5)
    else:
        stem = {"road": "minnesota_surrogate", "geometric200": "geometric_200"}[kind]
        with open(DATA / f"{stem}.edges") as fh:
            g = load_graph(fh)
        count, seed = int(number), 0
    return g, sample_nodes(g.n, count, seed), synthetic_signal(g)


@lru_cache(maxsize=None)
def cover(name: str) -> Cover:
    """The case's cover, which depends on the graph and the samples alone."""
    g, W, _ = case(name)
    return detect_communities(g, W, DetectionParams())


@lru_cache(maxsize=None)
def approximant(name: str, s: float) -> np.ndarray:
    """The case's approximant P(y) of its reference signal y at exponent s."""
    g, _, y = case(name)
    return interpolate_cover(g, cover(name), y, KernelParams(s=s))[0]


def relabelled(g: Graph, pi: np.ndarray) -> Graph:
    """g with vertex v renamed pi[v]."""
    return Graph.from_edges(g.n, np.column_stack([pi[g.heads], pi[g.indices]]))


@pytest.mark.parametrize("s", ROUTES)
@pytest.mark.parametrize("name", CASES)
def test_power_of_two_scaling_is_exact(name, s):
    g, _, y = case(name)
    for c in (4.0, 2.0**-3):
        scaled = interpolate_cover(g, cover(name), c * y, KernelParams(s=s))[0]
        assert np.array_equal(scaled, c * approximant(name, s))
        assert rrmse(c * y, scaled) == rrmse(y, approximant(name, s))


@pytest.mark.parametrize("s", ROUTES)
@pytest.mark.parametrize("name", ["geometric200-20", "random-0", "random-1"])
def test_baseline_power_of_two_scaling_is_exact(name, s):
    g, W, y = case(name)
    result = global_gbf_baseline(g, y, W, KernelParams(s=s))
    for c in (4.0, 2.0**-3):
        scaled = global_gbf_baseline(g, c * y, W, KernelParams(s=s))
        assert np.array_equal(scaled.approximant, c * result.approximant)
        assert scaled.rrmse == result.rrmse


@pytest.mark.parametrize("s", ROUTES)
@pytest.mark.parametrize("name", CASES)
def test_linearity(name, s):
    g, _, y = case(name)
    z = np.random.default_rng(0).standard_normal(g.n)
    pz, pyz = (interpolate_cover(g, cover(name), v, KernelParams(s=s))[0] for v in (z, y + z))
    assert np.abs(pyz - approximant(name, s) - pz).max() <= LINEARITY_TOL[s] * np.abs(y + z).max()


@pytest.mark.parametrize("s", ROUTES)
@pytest.mark.parametrize("name", CASES)
def test_relabelling(name, s):
    g, W, y = case(name)
    katz = katz_centrality(g)[W]
    if len(np.unique(katz)) < len(W):
        pytest.skip("two samples tie exactly in Katz: the split falls back on vertex ids")
    pi = np.random.default_rng(1).permutation(g.n)
    h = relabelled(g, pi)
    moved = detect_communities(h, pi[W], DetectionParams())
    assert len(moved.communities) == len(cover(name).communities)
    for c, m in zip(cover(name).communities, moved.communities):
        assert np.array_equal(m.core, np.sort(pi[c.core]))
        assert np.array_equal(m.overlap, np.sort(pi[c.overlap]))
    y_moved = np.empty(g.n)
    y_moved[pi] = y
    approx_moved = interpolate_cover(h, moved, y_moved, KernelParams(s=s))[0]
    assert np.abs(approx_moved[pi] - approximant(name, s)).max() <= RELABEL_TOL[s] * np.abs(y).max()
