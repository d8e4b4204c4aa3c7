"""Tests of the benchmark itself: quick workload variants, the output checks
catch a perturbed approximant, and tracing leaves outputs bit-identical.

    python -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def road_state():
    """One road-graph set-up (a 9 s dense eigh) shared by the quick variants."""
    state, _ = workloads.RoadNetwork(0, None).setup()
    return state


def quick(cls, state=None, **attrs):
    """A smaller variant of a workload class; with `state`, set-up is reused."""
    body = dict(attrs, setup_repeats=1)
    if state is not None:
        body["setup"] = lambda self: (state, 0.0)
    return type(f"Quick{cls.__name__}", (cls,), body)


def bad_calls(report):
    return [op for op in report["operations"] if op["label"].startswith("cli bad input")]


def test_quick_minnesota_sweep(road_state, tmp_path):
    wl = quick(workloads.MinnesotaSweep, road_state, COUNTS=(200, 800), PANEL_SEEDS=(0,))(0, tmp_path)
    result, report = harness.run_workload(wl, seconds=0, trace=False)
    assert result["correct"], report["problems"]
    bad = bad_calls(report)
    assert len(bad) == 4 and result["attempted"] == 4 + len(bad)
    assert result["failed"] == sum(not op["ok"] for op in bad)
    assert all(op["ok"] for op in report["operations"] if op not in bad)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert 0 < result["metrics"]["rrmse"] < 0.2


def test_quick_global_solve(road_state, tmp_path):
    wl = quick(workloads.GlobalSolve, road_state, COUNTS=(200,))(0, tmp_path)
    result, report = harness.run_workload(wl, seconds=0, trace=False)
    assert result["correct"], report["problems"]
    assert (result["attempted"], result["failed"]) == (1, 0)


@pytest.mark.parametrize("i", [1, 3])  # exponent 2 (panel) and 1.5 (drawn)
def test_checks_catch_perturbed_approximant(road_state, tmp_path, i):
    wl = quick(workloads.MinnesotaSweep, road_state, COUNTS=(200, 800), PANEL_SEEDS=(0,))(0, tmp_path)
    _, records = harness.one_round(wl.operations(road_state))
    assert wl.check(road_state, records) == {}
    records[i] = dict(records[i], approximant=records[i]["approximant"].copy())
    records[i]["approximant"][3] += 1e-6
    failures = wl.check(road_state, records)
    assert list(failures) == [i]
    assert any("oracle" in msg for msg in failures[i])


def test_traced_run_is_bit_identical_and_reports_every_layer(road_state, tmp_path):
    wl = quick(workloads.MinnesotaSweep, road_state, COUNTS=(200,), PANEL_SEEDS=())(0, tmp_path)
    result, report = harness.run_workload(wl, seconds=0, trace=True)
    # run_workload compares the traced round's outputs with the untraced round's
    assert result["correct"], report["problems"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for layer in ("graph.subgraph_calls", "metrics.katz_calls", "community.split_calls",
                  "kernel.calls", "numerics.eigh_calls", "pum.local_calls"):
        assert metrics[layer] > 0, layer
    assert metrics["cli.calls"] == len(bad_calls(report))


def test_tracer_restores_the_package():
    import tracing
    from gbfpum import cli, community, graph, metrics

    before = (cli.main, community.katz_centrality, metrics.modularity, graph.Graph.laplacian)
    with tracing.Tracer().patched():
        assert community.katz_centrality is not before[1]
    assert (cli.main, community.katz_centrality, metrics.modularity, graph.Graph.laplacian) == before


def test_fingerprint_sees_one_ulp():
    a = {"ok": True, "approximant": np.array([1.0, 2.0])}
    b = {"ok": True, "approximant": np.nextafter(a["approximant"], 3.0)}
    assert harness.fingerprint(a) != harness.fingerprint(b)
    assert harness.fingerprint(a) == harness.fingerprint(dict(a, error="printed once"))
