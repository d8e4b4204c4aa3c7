from pathlib import Path

import numpy as np
import pytest

from gbfpum import Graph, load_graph, synthetic_signal

DATA = Path(__file__).resolve().parent.parent / "data"


def neighbors(g: Graph, v: int) -> list[int]:
    """Sorted neighbors of v: row v of the CSR adjacency."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def two_triangle_graph() -> Graph:
    """Two triangles {0,1,2} and {3,4,5} joined by the bridge 2-3."""
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    return Graph.from_edges(6, edges)


def random_connected_graph(seed: int, n_min: int = 5, n_max: int = 40) -> Graph:
    """Seeded G(n,p) forced connected by a random spanning path."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    p = float(rng.uniform(0.08, 0.4))
    order = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])}
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    edges.update(zip(iu[mask].tolist(), ju[mask].tolist()))
    return Graph.from_edges(n, edges)


@pytest.fixture
def path3() -> Graph:
    return path_graph(3)


@pytest.fixture
def path10() -> Graph:
    return path_graph(10)


@pytest.fixture
def two_triangle() -> Graph:
    return two_triangle_graph()


@pytest.fixture(scope="session")
def geometric200() -> Graph:
    with open(DATA / "geometric_200.edges") as fh:
        return load_graph(fh)


@pytest.fixture(scope="session")
def minnesota() -> Graph:
    with open(DATA / "minnesota_surrogate.edges") as fh:
        return load_graph(fh)


@pytest.fixture(scope="session")
def minnesota_signal(minnesota) -> np.ndarray:
    return synthetic_signal(minnesota)
