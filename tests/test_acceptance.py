"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from gbfpum import (
    DetectionParams,
    KernelParams,
    assemble_global,
    build_pu,
    detect_communities,
    gbf_kernel,
    global_gbf_baseline,
    katz_centrality,
    local_interpolant,
    modularity,
    run_pipeline,
    sample_nodes,
    spd_solve,
    sym_eigen,
    synthetic_signal,
)

from conftest import path_graph, random_connected_graph, two_triangle_graph
from test_community import check_cover_invariants
from test_kernel import inverse_power_oracle
from test_metrics import katz_series, modularity_double_sum

PAPER_COMMUNITY_COUNTS = {200: 6, 400: 11, 600: 6, 800: 9}


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def minnesota_runs(minnesota, minnesota_signal):
    """Pipeline results for the nested sample sweep."""
    dp, kp = DetectionParams(), KernelParams()
    runs = {}
    for count in (200, 400, 600, 800):
        W = sample_nodes(minnesota.n, count, seed=0)
        result, cover = run_pipeline(minnesota, minnesota_signal, W, dp, kp)
        runs[count] = (W, result, cover)
    return runs


def _max_rel_err_at(W, truth, approx):
    return float(
        np.max(np.abs(approx[W] - truth[W]) / np.maximum(np.abs(truth[W]), 1e-30))
    )


def test_interpolation_exactness(geometric200, minnesota, minnesota_signal, minnesota_runs):
    dp, kp = DetectionParams(), KernelParams()
    worst, ok_time = 0.0, True
    for g, W in [
        (path_graph(10), np.array([0, 3, 6, 9])),
        (two_triangle_graph(), np.array([0, 4])),
        (geometric200, sample_nodes(200, 40, seed=2)),
    ]:
        y = synthetic_signal(g, n_modes=min(10, g.n - 1))
        t0 = time.perf_counter()
        res, _ = run_pipeline(g, y, W, dp, kp)
        ok_time &= (time.perf_counter() - t0) < 1.0
        worst = max(worst, _max_rel_err_at(W, y, res.approximant))
    runs = minnesota_runs
    W, res, _ = runs[400]
    worst = max(worst, _max_rel_err_at(W, minnesota_signal, res.approximant))
    ok_time &= res.wall_times["total_s"] < 300.0
    report(
        "interpolation exactness at sample nodes",
        worst <= 1e-6 and ok_time,
        f"max rel err {worst:.2e}",
    )


def test_partition_of_unity_invariant(geometric200, minnesota, minnesota_runs):
    worst = 0.0
    cases = [
        (path_graph(10), np.array([0, 5, 9])),
        (two_triangle_graph(), np.array([0, 4])),
        (geometric200, sample_nodes(200, 30, seed=4)),
    ]
    covers = [
        (g, detect_communities(g, W, DetectionParams())) for g, W in cases
    ]
    runs = minnesota_runs
    covers.append((minnesota, runs[200][2]))
    for g, cover in covers:
        pu = build_pu(cover, g.n)
        total = np.zeros(g.n)
        for c in cover.communities:
            sub = c.subdomain
            total[sub] += pu.weights(sub)
        worst = max(worst, float(np.abs(total - 1.0).max()))
    report("partition-of-unity sums to one", worst <= 1e-12, f"max dev {worst:.2e}")


def test_modularity_oracle_equivalence(two_triangle):
    worst = 0.0
    for seed in range(50):
        g = random_connected_graph(seed, n_min=5, n_max=100)
        rng = np.random.default_rng(seed)
        member = np.unique(rng.integers(0, 4, g.n), return_inverse=True)[1]
        worst = max(
            worst, abs(modularity(g, member) - modularity_double_sum(g, member))
        )
        worst = max(worst, abs(modularity(g, np.zeros(g.n, dtype=int))))
    fixture_gap = abs(
        modularity(two_triangle, np.array([0, 0, 0, 1, 1, 1])) - 5 / 14
    )
    report(
        "modularity streaming vs double-sum oracle",
        worst <= 1e-12 and fixture_gap <= 1e-12,
        f"max gap {max(worst, fixture_gap):.2e}",
    )


def test_katz_oracle_equivalence(path3):
    worst = 0.0
    for seed in range(50):
        g = random_connected_graph(seed, n_min=5, n_max=50)
        alpha = 0.1 / float(g.degrees().max())
        terms = max(60, int(np.ceil(np.log(1e-12 / g.n) / np.log(alpha))))
        assert alpha**terms * g.n < 1e-12
        closed = katz_centrality(g, alpha)
        trunc = katz_series(g, alpha, terms)
        worst = max(worst, float(np.abs(closed - trunc).max()))
    path_gap = float(
        np.abs(
            katz_centrality(path3, 0.1)
            - np.array([0.122449, 0.224490, 0.122449])
        ).max()
    )
    report(
        "Katz closed form vs truncated series",
        worst <= 1e-8 and path_gap <= 1e-6,
        f"max gap {worst:.2e}",
    )


def test_kernel_correctness(geometric200):
    eps = 0.25
    L = geometric200.laplacian()  # order 200
    lam = sym_eigen(L).values
    worst_oracle, worst_spec = 0.0, 0.0
    for s in (1, 2):
        K = gbf_kernel(L, KernelParams(epsilon=eps, s=float(s)))
        worst_oracle = max(
            worst_oracle, float(np.abs(K - inverse_power_oracle(L, eps, s)).max())
        )
        got = np.sort(sym_eigen(K).values)
        expect = np.sort((eps + lam) ** (-float(s)))
        worst_spec = max(worst_spec, float(np.abs(got - expect).max()))
        spd_solve(K, np.ones(200))  # Cholesky witness
    report(
        "kernel spectral formula vs solve oracle",
        worst_oracle <= 1e-8 and worst_spec <= 1e-9,
        f"oracle gap {worst_oracle:.2e}, spectrum gap {worst_spec:.2e}",
    )


def test_algorithm1_structural_suite():
    p = DetectionParams()
    ok = True
    for seed in range(100):
        g = random_connected_graph(seed, n_min=6, n_max=40)
        rng = np.random.default_rng(10_000 + seed)
        W = np.unique(rng.integers(0, g.n, int(rng.integers(1, g.n))))
        cover = detect_communities(g, W, p)
        check_cover_invariants(g, W, cover)
        threshold = int(np.ceil(p.small_fraction * g.n))
        sizes_ok = (
            all(len(c.core) >= threshold for c in cover.communities)
            or len(cover.communities) == 1
        )
        deterministic = cover.to_json() == detect_communities(g, W, p).to_json()
        ok &= sizes_ok and deterministic
    report("Algorithm-1 structural suite (100 random graphs)", ok)


def test_trend_reproduction(minnesota_runs):
    runs = minnesota_runs
    rrmses = {n: runs[n][1].rrmse for n in (200, 400, 600, 800)}
    counts = {n: len(runs[n][2].communities) for n in (200, 400, 600, 800)}
    decreasing = all(
        rrmses[a] > rrmses[b] for a, b in [(200, 400), (400, 600), (600, 800)]
    )
    ratio_ok = rrmses[800] < 0.5 * rrmses[200]
    counts_ok = all(2 <= counts[n] <= n for n in counts)
    detail = "; ".join(
        f"N={n}: rrmse {rrmses[n]:.3e}, {counts[n]} communities "
        f"(reference run: {PAPER_COMMUNITY_COUNTS[n]})"
        for n in (200, 400, 600, 800)
    )
    report(
        "error trend over nested sample sets",
        decreasing and ratio_ok and counts_ok,
        detail,
    )


def _best_of_three(fn) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_speedup_over_global_baseline(minnesota, minnesota_signal, minnesota_runs):
    # both sides are timed alike, best of three identical calls, so a one-off
    # cost of the first call (BLAS thread start-up) falls on neither
    W, _, cover = minnesota_runs[400]
    g, y, kp = minnesota, minnesota_signal, KernelParams()

    def interpolate_locally():
        pu = build_pu(cover, g.n)
        locals_ = [
            local_interpolant(g, c, y, kp, community_id=cid)[0]
            for cid, c in enumerate(cover.communities)
        ]
        assemble_global(cover, pu, locals_, g.n)

    local_time = _best_of_three(interpolate_locally)
    base_time = _best_of_three(lambda: global_gbf_baseline(g, y, W, kp))
    report(
        "local interpolation beats global dense solve",
        local_time < base_time,
        f"local {local_time:.2f}s vs global {base_time:.2f}s",
    )


def test_baseline_equivalence(geometric200):
    from gbfpum.community import Community, Cover

    kp = KernelParams()
    worst = 0.0
    for g, W in [
        (path_graph(10), np.array([1, 8])),
        (two_triangle_graph(), np.array([0, 4])),
        (geometric200, sample_nodes(200, 25, seed=6)),
    ]:
        y = synthetic_signal(g, n_modes=min(10, g.n - 1))
        cover = Cover(
            [
                Community(
                    core=np.arange(g.n),
                    overlap=np.empty(0, dtype=np.int64),
                    interpolation_nodes=W,
                )
            ]
        )
        pu = build_pu(cover, g.n)
        s, _ = local_interpolant(g, cover.communities[0], y, kp)
        assembled = assemble_global(cover, pu, [s], g.n)
        base = global_gbf_baseline(g, y, W, kp)
        worst = max(worst, float(np.abs(assembled - base.approximant).max()))
    report(
        "single-community pipeline equals global baseline",
        worst <= 1e-8,
        f"max gap {worst:.2e}",
    )
