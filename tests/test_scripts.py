"""The scripts under scripts/: the dataset generators and the stage benchmark's checks."""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gbfpum import build_pu

from conftest import DATA

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import code_lines  # noqa: E402
import generate_datasets  # noqa: E402
import stage_bench  # noqa: E402


def committed_edges(name: str) -> list[tuple[int, int]]:
    with open(DATA / f"{name}.edges") as fh:
        return [tuple(map(int, line.split())) for line in fh if not line.startswith("#")]


def test_geometric_reproduces_committed_file():
    edges, _ = generate_datasets.geometric()
    assert sorted(edges) == committed_edges("geometric_200")


def test_road_surrogate_reproduces_committed_file():
    assert generate_datasets.road_surrogate() == committed_edges("minnesota_surrogate")


def test_road_surrogate_text_at_ten_thousand():
    # the edge text of stage_bench's smallest surrogate, whose cover is pinned
    text = stage_bench.graph_text("road_surrogate_10000")
    assert text == "".join(f"{u} {v}\n" for u, v in generate_datasets.road_surrogate(10_000, 12_500, 1))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "994236e2d69a4148c855437e8fc97996a972f3815023aaf0c5ea79c7a0b76d7f"


def bench_file(tmp_path, cases) -> Path:
    path = tmp_path / "BENCH_t.json"
    path.write_text(json.dumps({"cases": cases}))
    return path


# the 37 road-graph cases whose digests pin the sweep's pipelines, the s = 1 and 3
# pipelines and every global baseline: a change that keeps outputs keeps these lines
DIGEST_CASES = [
    "minnesota_surrogate N=200 sample_seed=0 s=2",
    "minnesota_surrogate N=200 sample_seed=1 s=2",
    "minnesota_surrogate N=200 sample_seed=2 s=2",
    "minnesota_surrogate N=200 sample_seed=3 s=2",
    "minnesota_surrogate N=200 sample_seed=4 s=2",
    "minnesota_surrogate N=400 sample_seed=0 s=2",
    "minnesota_surrogate N=400 sample_seed=1 s=2",
    "minnesota_surrogate N=400 sample_seed=2 s=2",
    "minnesota_surrogate N=400 sample_seed=3 s=2",
    "minnesota_surrogate N=400 sample_seed=4 s=2",
    "minnesota_surrogate N=600 sample_seed=0 s=2",
    "minnesota_surrogate N=600 sample_seed=1 s=2",
    "minnesota_surrogate N=600 sample_seed=2 s=2",
    "minnesota_surrogate N=600 sample_seed=3 s=2",
    "minnesota_surrogate N=600 sample_seed=4 s=2",
    "minnesota_surrogate N=800 sample_seed=0 s=2",
    "minnesota_surrogate N=800 sample_seed=1 s=2",
    "minnesota_surrogate N=800 sample_seed=2 s=2",
    "minnesota_surrogate N=800 sample_seed=3 s=2",
    "minnesota_surrogate N=800 sample_seed=4 s=2",
    "minnesota_surrogate N=200 sample_seed=5 s=1.5",
    "minnesota_surrogate N=400 sample_seed=5 s=1.5",
    "minnesota_surrogate N=600 sample_seed=5 s=1.5",
    "minnesota_surrogate N=800 sample_seed=5 s=1.5",
    "minnesota_surrogate N=200 sample_seed=0 s=1",
    "minnesota_surrogate N=800 sample_seed=0 s=1",
    "minnesota_surrogate N=200 sample_seed=0 s=3",
    "minnesota_surrogate N=800 sample_seed=0 s=3",
    "minnesota_surrogate global_gbf_baseline N=200 sample_seed=0 s=1",
    "minnesota_surrogate global_gbf_baseline N=800 sample_seed=0 s=1",
    "minnesota_surrogate global_gbf_baseline N=200 sample_seed=0 s=2",
    "minnesota_surrogate global_gbf_baseline N=800 sample_seed=0 s=2",
    "minnesota_surrogate global_gbf_baseline N=200 sample_seed=0 s=3",
    "minnesota_surrogate global_gbf_baseline N=800 sample_seed=0 s=3",
    "minnesota_surrogate global_gbf_baseline N=200 sample_seed=0 s=4",
    "minnesota_surrogate global_gbf_baseline N=800 sample_seed=0 s=4",
    "minnesota_surrogate global_gbf_baseline N=200 sample_seed=0 s=1.5",
]


@pytest.fixture
def well_formed() -> list[dict]:
    stats = {"median": 0.5, "q1": 0.4, "q3": 0.6}
    return [
        {
            "case": stage_bench.case_name(*c),
            "wall_times": {"total_s": dict(stats), "load_s": dict(stats)},
            "digest": {"w_misses": 0},
        }
        for c in stage_bench.CASES
    ]


def test_cases_hold_every_digest_case():
    assert len(set(DIGEST_CASES)) == 37
    names = [stage_bench.case_name(*c) for c in stage_bench.CASES]
    assert len(set(names)) == len(names)
    assert set(DIGEST_CASES) <= set(names)


def test_check_passes_well_formed_file(tmp_path, well_formed):
    stage_bench.check(bench_file(tmp_path, well_formed))


def test_check_raises_on_missing_case(tmp_path, well_formed):
    missing = well_formed.pop(3)["case"]
    with pytest.raises(ValueError, match=f"cases differ from the script's .*{re.escape(missing)}"):
        stage_bench.check(bench_file(tmp_path, well_formed))


def test_check_raises_on_nan_median(tmp_path, well_formed):
    well_formed[-1]["wall_times"]["load_s"]["median"] = float("nan")
    with pytest.raises(ValueError, match="load_s median is nan"):
        stage_bench.check(bench_file(tmp_path, well_formed))


def test_check_raises_on_missing_digest(tmp_path, well_formed):
    del well_formed[5]["digest"]
    with pytest.raises(ValueError, match=f"{re.escape(well_formed[5]['case'])} has no digest$"):
        stage_bench.check(bench_file(tmp_path, well_formed))


def test_check_raises_on_missed_sample(tmp_path, well_formed):
    well_formed[7]["digest"]["w_misses"] = 2
    with pytest.raises(ValueError, match=f"{re.escape(well_formed[7]['case'])} misses 2 sample values$"):
        stage_bench.check(bench_file(tmp_path, well_formed))


def test_run_case_raises_on_cover_unlike_its_pin(monkeypatch):
    text = stage_bench.graph_text("geometric_200")
    case = ("geometric_200", "run_pipeline", 20, 0, 2.0)
    stats = stage_bench.run_case(text, *case, repeats=2)
    assert stats["communities"] >= 1 and len(stats["cover_sha256"]) == 64
    assert stats["digest"]["cover"] == stats["cover_sha256"] and stats["digest"]["w_misses"] == 0
    assert stats["digest"]["rrmse"] == repr(stats["rrmse"])
    assert {"load_s", "signal_s", "total_s"} <= set(stats["wall_times"])
    name = stage_bench.case_name(*case)
    monkeypatch.setitem(stage_bench.COVER_SHA256, name, stats["cover_sha256"])
    assert stage_bench.run_case(text, *case, repeats=1)["digest"] == stats["digest"]
    monkeypatch.setitem(stage_bench.COVER_SHA256, name, "0" * 64)
    message = f"{name}: cover sha256 {stats['cover_sha256']} is not the pinned {'0' * 64}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        stage_bench.run_case(text, *case, repeats=1)


def test_run_case_raises_on_partition_of_unity_miss(monkeypatch):
    # one vertex's multiplicity counts a subdomain too many, so its weights sum to m / (m + 1)
    def broken_pu(cover, n):
        pu = build_pu(cover, n)
        pu.multiplicity = pu.multiplicity + (np.arange(n) == 7)
        return pu

    monkeypatch.setattr(stage_bench, "build_pu", broken_pu)
    text = stage_bench.graph_text("geometric_200")
    message = r"^geometric_200 N=20 sample_seed=0 s=2: partition-of-unity weights sum to 0\.\d+ at vertex 7$"
    with pytest.raises(RuntimeError, match=message):
        stage_bench.run_case(text, "geometric_200", "run_pipeline", 20, 0, 2.0, repeats=1)


def test_run_case_raises_when_runs_differ(monkeypatch):
    # the second run's signal moves by one part in 1e12, so its digest differs from the first's
    calls, signal = [], stage_bench.synthetic_signal

    def drifting_signal(g):
        calls.append(g)
        return signal(g) * (1.0 if len(calls) == 1 else 1.0 + 1e-12)

    monkeypatch.setattr(stage_bench, "synthetic_signal", drifting_signal)
    text = stage_bench.graph_text("geometric_200")
    case = ("geometric_200", "run_pipeline", 20, 0, 2.0)
    with pytest.raises(RuntimeError, match=r"^geometric_200 N=20 sample_seed=0 s=2: 2 runs differ in signal, "):
        stage_bench.run_case(text, *case, repeats=2)
    assert len(calls) == 2


def test_run_case_baseline_has_no_cover():
    text = stage_bench.graph_text("geometric_200")
    stats = stage_bench.run_case(text, "geometric_200", "global_gbf_baseline", 20, 0, 2.0, repeats=1)
    digest = stats["digest"]
    assert digest["w_misses"] == 0 and "cover" not in digest and "cores" not in digest
    assert not {"communities", "max_piece", "cover_sha256"} & set(stats)
    assert len(digest["approx_off_w"]) == 64 and stats["rrmse"] > 0


SYNTHETIC_MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line
NOTE = """an assigned string
is code, not a docstring"""


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return os.sep


async def fetch():
    \'\'\'Single-quoted docstring.\'\'\'

    def inner():
        "Nested function docstring."
        pass
    return inner
'''


def test_code_lines_counts_outside_docstrings_and_comments(tmp_path, capsys):
    # import, NOTE's two lines, class, def method, return, async def, def inner, pass, return
    assert code_lines.code_lines(SYNTHETIC_MODULE) == 10
    assert code_lines.code_lines("") == 0
    (tmp_path / "a.py").write_text(SYNTHETIC_MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\ny = 2\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["a.py", "10", "b.py", "2", "total", "12"]
