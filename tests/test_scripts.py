"""The scripts under scripts/: the dataset generators and the stage benchmark's checks."""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from conftest import DATA

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

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


@pytest.fixture
def well_formed() -> list[dict]:
    stats = {"median": 0.5, "q1": 0.4, "q3": 0.6}
    return [
        {"case": stage_bench.case_name(*c), "wall_times": {"total_s": dict(stats), "load_s": dict(stats)}}
        for c in stage_bench.CASES
    ]


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


def test_run_case_raises_on_cover_unlike_its_pin(monkeypatch):
    text = stage_bench.graph_text("geometric_200")
    case = ("geometric_200", 20, 0, 2.0)
    stats = stage_bench.run_case(text, *case, repeats=2)
    assert stats["communities"] >= 1 and len(stats["cover_sha256"]) == 64
    assert {"load_s", "signal_s", "total_s"} <= set(stats["wall_times"])
    name = stage_bench.case_name(*case)
    monkeypatch.setitem(stage_bench.COVER_SHA256, name, stats["cover_sha256"])
    assert stage_bench.run_case(text, *case, repeats=1)["cover_sha256"] == stats["cover_sha256"]
    monkeypatch.setitem(stage_bench.COVER_SHA256, name, "0" * 64)
    message = f"{name}: cover sha256 {stats['cover_sha256']} is not the pinned {'0' * 64}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        stage_bench.run_case(text, *case, repeats=1)
