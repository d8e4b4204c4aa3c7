import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gbfpum import default_alpha, load_graph
from gbfpum.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"

TWO_TRIANGLE_EDGES = "0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text(TWO_TRIANGLE_EDGES)
    samples = tmp_path / "w.txt"
    samples.write_text("0\n4\n")
    signal = tmp_path / "y.csv"
    signal.write_text(
        "vertex_id,value\n" + "\n".join(f"{v},{val}" for v, val in enumerate([1.0, 2.0, 3.0, 3.0, 2.0, 1.0]))
    )
    return graph, samples, signal


class TestPartition:
    def test_two_communities(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        out = tmp_path / "cover.json"
        rc = main(["partition", "--graph", str(graph), "--samples", str(samples), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        assert len(doc["communities"]) == 2
        assert "params" in doc
        plot = out.with_suffix(".plot.csv")
        rows = list(csv.DictReader(open(plot)))
        assert len(rows) == 6
        assert rows[0]["is_sample"] == "1"  # vertex 0 is sampled

    def test_single_sample_single_community(self, fixture_files, tmp_path):
        graph, _, _ = fixture_files
        out = tmp_path / "cover.json"
        rc = main(["partition", "--graph", str(graph), "--n-samples", "1", "--seed", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["communities"]) == 1
        assert sorted(doc["communities"][0]["core"]) == list(range(6))

    def test_malformed_graph_exit_2(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\nbroken line here\n")
        rc = main(["partition", "--graph", str(bad), "--n-samples", "1", "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_missing_graph_exit_2(self, tmp_path):
        rc = main(["partition", "--graph", str(tmp_path / "nope"), "--n-samples", "1", "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_sample_conflict_exit_1(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        rc = main(
            ["partition", "--graph", str(graph), "--samples", str(samples), "--n-samples", "2", "--out", str(tmp_path / "o.json")]
        )
        assert rc == 1

    def test_byte_identical_reruns(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["partition", "--graph", str(graph), "--samples", str(samples), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.with_suffix(".plot.csv").read_bytes() == out2.with_suffix(".plot.csv").read_bytes()


class TestInterpolate:
    def test_all_sampled_exact(self, fixture_files, tmp_path):
        graph, _, signal = fixture_files
        out = tmp_path / "res.json"
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--n-samples", "6", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["rrmse"] <= 1e-6
        assert doc["n_communities"] >= 1
        assert {"epsilon", "s", "alpha", "seed"} <= set(doc["params"])
        assert {"katz_s", "split_s", "merge_s", "expand_s"} <= set(doc["wall_times"])
        rows = list(csv.DictReader(open(out.with_suffix(".csv"))))
        assert len(rows) == 6
        assert {"vertex", "truth", "approximant", "abs_error"} == set(rows[0])

    def test_synthetic_signal(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        out = tmp_path / "res.json"
        rc = main(
            ["interpolate", "--graph", str(graph), "--synthetic", "--samples", str(samples), "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert np.isfinite(doc["rrmse"])

    def test_signal_flag_conflict_exit_1(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        rc = main(["interpolate", "--graph", str(graph), "--samples", str(samples), "--out", str(tmp_path / "o.json")])
        assert rc == 1

    def test_incomplete_signal_exit_2(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        partial = tmp_path / "partial.csv"
        partial.write_text("0,1.0\n1,2.0\n")  # vertices 2..5 missing
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(partial), "--samples", str(samples), "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2


    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon", "-1"),
            ("--epsilon", "nan"),
            ("--exponent", "0"),
            ("--exponent", "inf"),
            ("--alpha", "-0.1"),
            ("--alpha", "nan"),
            ("--small-fraction", "2"),
            ("--small-fraction", "0"),
        ],
    )
    def test_invalid_parameter_exit_1(self, fixture_files, tmp_path, capsys, flag, value):
        graph, samples, signal = fixture_files
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             flag, value, "--out", str(tmp_path / "o.json")]
        )
        assert rc == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, reason",
        [("abc", "not a number: 'abc'"), ("inf", "not finite: 'inf'"), ("nan", "not finite: 'nan'")],
    )
    def test_bad_signal_value_exit_2(self, fixture_files, tmp_path, capsys, bad, reason):
        graph, samples, _ = fixture_files
        rows = [f"{v},{val}" for v, val in enumerate([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])]
        rows[3] = f"3,{bad}"
        signal = tmp_path / "bad.csv"
        signal.write_text("\n".join(rows) + "\n")
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert f"vertex 3 is {reason}" in capsys.readouterr().err

    def test_zero_signal_exit_2(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        signal = tmp_path / "zero.csv"
        signal.write_text("".join(f"{v},0.0\n" for v in range(6)))
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2

    def test_non_integer_sample_exit_2(self, fixture_files, tmp_path, capsys):
        graph, _, signal = fixture_files
        samples = tmp_path / "bad_w.txt"
        samples.write_text("0\nfour\n")
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


class TestBenchmark:
    def test_small_sweep(self, fixture_files, tmp_path):
        graph, _, signal = fixture_files
        out = tmp_path / "bench.json"
        rc = main(
            ["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", "2,6", "--baseline", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [r["n_samples"] for r in doc["rows"]] == [2, 6]
        assert doc["rows"][1]["rrmse"] <= 1e-6  # all vertices sampled
        assert all(r["baseline_time_s"] is not None for r in doc["rows"])
        rows = list(csv.reader(open(out.with_suffix(".csv"))))
        assert rows[0] == ["N", "communities", "rrmse", "time_s", "baseline_time_s"]
        assert len(rows) == 3

    def test_empty_counts_exit_1(self, fixture_files, tmp_path):
        graph, _, signal = fixture_files
        rc = main(["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", "", "--out", str(tmp_path / "o.json")])
        assert rc == 1

    def test_descending_counts_exit_1(self, fixture_files, tmp_path):
        graph, _, signal = fixture_files
        rc = main(["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", "6,2", "--out", str(tmp_path / "o.json")])
        assert rc == 1

    def test_count_too_large_exit_2(self, fixture_files, tmp_path):
        graph, _, signal = fixture_files
        rc = main(["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", "7", "--out", str(tmp_path / "o.json")])
        assert rc == 2


def test_params_alpha_is_the_alpha_used(fixture_files, tmp_path):
    graph, samples, signal = fixture_files
    default = default_alpha(load_graph(graph.read_text()))
    runs = {
        "partition": ["--samples", str(samples)],
        "interpolate": ["--samples", str(samples), "--signal", str(signal)],
        "benchmark": ["--counts", "2,4", "--signal", str(signal)],
    }
    out = tmp_path / "o.json"
    for command, args in runs.items():
        for extra, alpha in (([], default), (["--alpha", "0.05"], 0.05)):
            assert main([command, "--graph", str(graph), "--out", str(out), *args, *extra]) == 0
            assert json.loads(out.read_text())["params"]["alpha"] == alpha


def test_unknown_subcommand_exit_1(tmp_path):
    assert main(["frobnicate"]) == 1
