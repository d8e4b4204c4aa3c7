import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import gbfpum.numerics

from gbfpum import DetectionParams, KernelParams, default_alpha, load_graph, sample_nodes, synthetic_signal
from gbfpum.cli import main
from gbfpum.community import FORMAT_VERSION

DATA = Path(__file__).resolve().parent.parent / "data"

TWO_TRIANGLE_EDGES = "0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"
SIGNAL_CSV = "vertex_id,value\n" + "\n".join(
    f"{v},{val}" for v, val in enumerate([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
)


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text(TWO_TRIANGLE_EDGES)
    samples = tmp_path / "w.txt"
    samples.write_text("0\n4\n")
    signal = tmp_path / "y.csv"
    signal.write_text(SIGNAL_CSV)
    return graph, samples, signal


class TestPartition:
    def test_two_communities(self, fixture_files, tmp_path):
        graph, samples, _ = fixture_files
        out = tmp_path / "cover.json"
        rc = main(["partition", "--graph", str(graph), "--samples", str(samples), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert len(doc["communities"]) == 2
        assert "params" in doc
        plot = out.with_suffix(".plot.csv")
        rows = list(csv.DictReader(plot.read_text().splitlines()))
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1 2\n2 1000000000000\n", "graph is not connected"),
            ("1 99999999999999999999\n", "malformed edge-list line 1: '1 99999999999999999999'"),
        ],
    )
    def test_huge_vertex_id_exit_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "huge.edges"
        bad.write_text(text)
        rc = main(["partition", "--graph", str(bad), "--n-samples", "1", "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert f"input error: {message}" in capsys.readouterr().err

    def test_missing_graph_exit_2(self, tmp_path):
        rc = main(["partition", "--graph", str(tmp_path / "nope"), "--n-samples", "1", "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_n_samples_above_order_exit_2(self, fixture_files, tmp_path, capsys):
        graph, _, _ = fixture_files
        rc = main(["partition", "--graph", str(graph), "--n-samples", "7", "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "input error: --n-samples 7 exceeds graph order 6" in capsys.readouterr().err

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
        assert {"katz_s", "split_s", "merge_s", "expand_s", "solve_s", "assemble_s"} <= set(
            doc["wall_times"]
        )
        rows = list(csv.DictReader(out.with_suffix(".csv").read_text().splitlines()))
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

    def test_huge_signal_value_writes_valid_json(self, tmp_path, geometric200):
        # a value of 1e200 off the samples wrote "rrmse": NaN, which is not JSON
        g = geometric200
        y = synthetic_signal(g)
        y[np.setdiff1d(np.arange(g.n), sample_nodes(g.n, 20, 0))[0]] = 1e200
        signal, out = tmp_path / "y.csv", tmp_path / "res.json"
        signal.write_text("".join(f"{v},{val!r}\n" for v, val in enumerate(y.tolist())))
        rc = main(["interpolate", "--graph", str(DATA / "geometric_200.edges"), "--n-samples", "20",
                   "--signal", str(signal), "--out", str(out)])
        assert rc == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["rrmse"] == pytest.approx(1.0)

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
            ("--epsilon", "1e-13"),
            ("--exponent", "0"),
            ("--exponent", "inf"),
            ("--exponent", "65"),
            ("--small-fraction", "2"),
            ("--small-fraction", "0"),
            ("--alpha", "-0.1"),
            ("--alpha", "nan"),
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
        assert f"signal row 4: value for vertex 3 is {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("5,999", "signal row 8: vertex 5 is repeated"),
            ("2.0,7", "signal row 8: vertex id is not an integer: '2.0'"),
            ("5", "signal row 8: vertex 5 has no value"),
            ("99,4", "signal row 8: vertex 99 out of range for graph of order 6"),
            # the field count comes before the repeat; a third field used to be ignored
            ("5,999,1", "signal row 8: holds more than a vertex id and a value"),
        ],
    )
    def test_bad_signal_row_exit_2(self, fixture_files, tmp_path, capsys, extra, message):
        # only the first row may be a header; a later row must name a new vertex
        graph, samples, signal = fixture_files
        bad = tmp_path / "bad.csv"
        bad.write_text(signal.read_text() + "\n" + extra + "\n")
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(bad), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["graph", "signal", "sample"])
    def test_non_utf8_file_exit_2(self, fixture_files, tmp_path, capsys, which):
        files = dict(zip(["graph", "sample", "signal"], fixture_files))
        bad = files[which]
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        rc = main(
            ["interpolate", "--graph", str(files["graph"]), "--signal", str(files["signal"]),
             "--samples", str(files["sample"]), "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert f"input error: {which} file {bad} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["graph", "signal", "sample"])
    def test_input_is_a_directory_exit_2(self, fixture_files, tmp_path, capsys, which):
        files = dict(zip(["graph", "sample", "signal"], fixture_files))
        files[which] = tmp_path / "dir"
        files[which].mkdir()
        rc = main(
            ["interpolate", "--graph", str(files["graph"]), "--signal", str(files["signal"]),
             "--samples", str(files["sample"]), "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert f"input error: {which} file {files[which]} is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["graph", "signal", "sample"])
    def test_byte_order_mark_is_dropped(self, fixture_files, tmp_path, which):
        # spreadsheet programs start UTF-8 files with one; a leading comment line and a
        # header-free signal are the first lines it could break
        graph, samples, signal = fixture_files
        graph.write_text("# two triangles\n" + TWO_TRIANGLE_EDGES)
        signal.write_text("".join(f"{v},{val}\n" for v, val in enumerate([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])))

        def run(out):
            argv = ["interpolate", "--graph", str(graph), "--signal", str(signal),
                    "--samples", str(samples), "--out", str(out)]
            assert main(argv) == 0
            doc = json.loads(out.read_text())
            del doc["wall_times"]
            return doc, out.with_suffix(".csv").read_bytes()

        plain = run(tmp_path / "plain.json")
        marked = dict(zip(["graph", "sample", "signal"], fixture_files))[which]
        marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
        assert run(tmp_path / "marked.json") == plain

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
        assert "sample row 2" in capsys.readouterr().err

    def test_sample_past_64_bits_exit_2(self, fixture_files, tmp_path, capsys):
        # the int64 cast raised OverflowError, which escaped as a traceback
        graph, _, signal = fixture_files
        samples = tmp_path / "big_w.txt"
        samples.write_text(f"0\n{2**64}\n")
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert f"vertex {2**64} out of range" in capsys.readouterr().err

    def test_repeated_sample_exit_2(self, fixture_files, tmp_path, capsys):
        # as in the signal file, a vertex id may appear once
        graph, _, signal = fixture_files
        samples = tmp_path / "twice_w.txt"
        samples.write_text("5\n5\n3\n")
        out = tmp_path / "o.json"
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(out)]
        )
        assert rc == 2
        assert "sample row 2: vertex 5 is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sample_file_exit_2(self, fixture_files, tmp_path, capsys):
        graph, _, signal = fixture_files
        samples = tmp_path / "empty_w.txt"
        samples.write_text("# no ids\n\n")
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert "input error: sample file is empty" in capsys.readouterr().err

    def test_comment_row_in_signal(self, fixture_files, tmp_path):
        graph, samples, signal = fixture_files
        header, *rows = signal.read_text().splitlines()
        noted = tmp_path / "y_note.csv"
        noted.write_text("\n".join([header, *rows[:3], "# measured again below", *rows[3:]]) + "\n")
        outs = [tmp_path / "plain.json", tmp_path / "noted.json"]
        for y, out in zip((signal, noted), outs):
            rc = main(
                ["interpolate", "--graph", str(graph), "--signal", str(y), "--samples", str(samples),
                 "--out", str(out)]
            )
            assert rc == 0
        assert outs[0].with_suffix(".csv").read_bytes() == outs[1].with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the row used to go unnamed: "vertex 9 out of range for graph of order 6"
            ("0\n9\n", "sample row 2: vertex 9 out of range for graph of order 6"),
            ("0\n-1\n", "sample row 2: vertex -1 out of range for graph of order 6"),
            # used to read "sample file line 2 is not a vertex id: '4,5'"
            ("0\n4,5\n", "sample row 2: holds more than one vertex id"),
        ],
    )
    def test_bad_sample_row_exit_2(self, fixture_files, tmp_path, capsys, rows, message):
        graph, _, signal = fixture_files
        samples = tmp_path / "bad_w.txt"
        samples.write_text(rows)
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["signal inside", "signal before header", "sample"])
    def test_whitespace_row_is_blank(self, fixture_files, tmp_path, which):
        # a whitespace-only signal row used to exit 2: it was read as a vertex id, or as
        # the header, so the real header failed
        graph, samples, signal = fixture_files
        header, *rows = signal.read_text().splitlines()

        def run(y, w, out):
            argv = ["interpolate", "--graph", str(graph), "--signal", str(y), "--samples", str(w),
                    "--out", str(out)]
            assert main(argv) == 0
            return out.with_suffix(".csv").read_bytes()

        plain = run(signal, samples, tmp_path / "plain.json")
        spaced = tmp_path / "spaced.txt"
        lines = {
            "signal inside": [header, *rows[:3], "   ", *rows[3:]],
            "signal before header": [" \t", header, *rows],
            "sample": ["0", " ", "4"],
        }[which]
        spaced.write_text("\n".join(lines) + "\n")
        y, w = (signal, spaced) if which == "sample" else (spaced, samples)
        assert run(y, w, tmp_path / "spaced.json") == plain

    def test_indented_comment_in_samples(self, fixture_files, tmp_path):
        # as in the signal file, a line is a comment when its first non-blank character is '#'
        graph, _, signal = fixture_files
        samples = tmp_path / "w_note.txt"
        samples.write_text("0\n  # note\n4\n")
        out = tmp_path / "o.json"
        rc = main(
            ["interpolate", "--graph", str(graph), "--signal", str(signal), "--samples", str(samples),
             "--out", str(out)]
        )
        assert rc == 0
        assert sum(r["sample_count"] for r in json.loads(out.read_text())["per_community"]) >= 2


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
        assert all(r["baseline_rrmse"] is not None for r in doc["rows"])
        rows = list(csv.reader(out.with_suffix(".csv").read_text().splitlines()))
        assert rows[0] == ["N", "communities", "rrmse", "time_s", "baseline_time_s", "baseline_rrmse"]
        assert len(rows) == 3
        assert [float(r[5]) for r in rows[1:]] == [r["baseline_rrmse"] for r in doc["rows"]]

    def test_rows_without_baseline(self, fixture_files, tmp_path):
        # every row has the same keys and columns, with or without --baseline
        graph, _, signal = fixture_files
        out = tmp_path / "bench.json"
        rc = main(["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", "2,6", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert all(r["baseline_time_s"] is None and r["baseline_rrmse"] is None for r in doc["rows"])
        rows = list(csv.reader(out.with_suffix(".csv").read_text().splitlines()))
        assert rows[0][-2:] == ["baseline_time_s", "baseline_rrmse"]
        assert all(r[-2:] == ["", ""] for r in rows[1:])

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

    # a repeated count would run one N twice; an empty field is no count
    @pytest.mark.parametrize("counts", ["0", "0,2", "2,2", "2,,4", "2,", ",2"])
    def test_count_below_one_exit_1(self, fixture_files, tmp_path, capsys, counts):
        graph, _, signal = fixture_files
        rc = main(["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", counts, "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error:") and "--counts" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--samples", "s.txt"], ["--n-samples", "4"]])
    def test_sample_flags_exit_1(self, fixture_files, tmp_path, flag):
        # the sweep draws its samples from --counts and --seed
        graph, _, signal = fixture_files
        rc = main(["benchmark", "--graph", str(graph), "--signal", str(signal), "--counts", "2", *flag, "--out", str(tmp_path / "o.json")])
        assert rc == 1


def test_params_alpha_is_the_alpha_used(tmp_path):
    # detection takes alpha from the graph; the block records the value it used
    runs = {
        "partition": ["--n-samples", "40"],
        "interpolate": ["--n-samples", "40", "--synthetic"],
        "benchmark": ["--counts", "20,40", "--synthetic"],
    }
    out = tmp_path / "o.json"
    for graph in (DATA / "geometric_200.edges", DATA / "minnesota_surrogate.edges"):
        default = default_alpha(load_graph(graph.read_text()))
        for command, args in runs.items():
            assert main([command, "--graph", str(graph), "--out", str(out), *args]) == 0
            assert json.loads(out.read_text())["params"]["alpha"] == default


@pytest.mark.parametrize("command", ["partition", "interpolate", "benchmark"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_bad_seed_exit_1(fixture_files, tmp_path, capsys, command, seed):
    graph, _, signal = fixture_files
    extra = ["--counts", "2,4"] if command == "benchmark" else ["--n-samples", "2"]
    if command != "partition":
        extra += ["--signal", str(signal)]
    rc = main([command, "--graph", str(graph), "--seed", seed, *extra, "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:") and "--seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["interpolate", "benchmark"])
def test_out_ending_in_csv_exit_1(fixture_files, tmp_path, capsys, command):
    # the CSV beside the JSON is --out with suffix .csv: here --out itself
    graph, _, signal = fixture_files
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "res.csv"
    extra = ["--counts", "2,4"] if command == "benchmark" else ["--n-samples", "2"]
    rc = main([command, "--graph", str(graph), "--signal", str(signal), *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:") and str(out) in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "command, inputs, out",
    [
        # the CSV beside r.json is r.csv, the signal
        ("interpolate", {"--signal": "r.csv", "--n-samples": "2"}, "r.json"),
        ("benchmark", {"--signal": "r.csv", "--counts": "2,4"}, "r.json"),
        # the JSON itself is an input
        ("partition", {"--n-samples": "2"}, "g.edges"),
        ("interpolate", {"--signal": "y.csv", "--n-samples": "2"}, "g.edges"),
        ("partition", {"--samples": "w.txt"}, "w.txt"),
        ("interpolate", {"--signal": "y.csv", "--samples": "w.txt"}, "y.csv"),
        # partition's CSV is r.plot.csv, here the sample file
        ("partition", {"--samples": "r.plot.csv"}, "r.json"),
        # the same file by another name
        ("partition", {"--n-samples": "2"}, "sub/../g.edges"),
    ],
    ids=["interpolate csv=signal", "benchmark csv=signal", "partition json=graph",
         "interpolate json=graph", "partition json=samples", "interpolate json=signal",
         "partition csv=samples", "partition json=graph by another name"],
)
def test_output_over_an_input_exit_1(tmp_path, monkeypatch, capsys, command, inputs, out):
    # every input is valid, so without the check the run succeeds over an input
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    files = {"g.edges": TWO_TRIANGLE_EDGES.encode()}
    argv = [command, "--graph", str(tmp_path / "g.edges")]  # absolute, --out relative
    for flag, value in inputs.items():
        argv += [flag, value]
        if flag in ("--signal", "--samples"):
            files[value] = SIGNAL_CSV.encode() if flag == "--signal" else b"0\n4\n"
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    rc = main([*argv, "--out", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:") and "would overwrite" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == files


@pytest.mark.parametrize("out", ["", "/"])
def test_out_without_file_name_exit_1(fixture_files, capsys, out):
    graph, _, _ = fixture_files
    rc = main(["partition", "--graph", str(graph), "--n-samples", "2", "--out", out])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["interpolate", "--synthetic"], "r.json"),
        (["interpolate", "--synthetic", "--samples", "w.txt", "--n-samples", "2"], "r.json"),
        (["interpolate", "--n-samples", "2"], "r.json"),
        (["interpolate", "--n-samples", "2", "--synthetic", "--signal", "y.csv"], "r.json"),
        (["interpolate", "--synthetic", "--n-samples", "0"], "r.json"),
        (["benchmark", "--synthetic", "--counts", "6,2"], "r.json"),
        (["benchmark", "--synthetic", "--counts", "a,b"], "r.json"),
        (["interpolate", "--synthetic", "--n-samples", "2"], "r.csv"),
        (["interpolate", "--synthetic", "--n-samples", "2", "--exponent", "1e300"], "r.json"),
        (["interpolate", "--synthetic", "--n-samples", "2", "--epsilon", "1e-13"], "r.json"),
        (["interpolate", "--synthetic", "--n-samples", "2"], "missing/r.json"),
        (["partition", "--n-samples", "2", "--alpha", "0.1"], "r.json"),
    ],
    ids=["no sample flag", "both sample flags", "no signal flag", "both signal flags",
         "n-samples 0", "counts 6,2", "counts a,b", "out r.csv", "exponent 1e300", "epsilon 1e-13",
         "out in no directory", "alpha is no flag"],
)
def test_usage_error_before_any_file_is_read(tmp_path, capsys, argv, out):
    # the graph file is missing, so a check made after reading it would exit 2
    rc = main([*argv, "--graph", str(tmp_path / "missing.edges"), "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("directory", ["r.json", "r.csv"], ids=["json", "csv"])
def test_out_is_a_directory_exit_1(tmp_path, capsys, directory):
    # this used to run the job and then exit 2 with "[Errno 21] Is a directory"; the
    # graph file is missing, so exit 1 shows that nothing was read
    (tmp_path / directory).mkdir()
    rc = main(["interpolate", "--synthetic", "--n-samples", "2", "--graph",
               str(tmp_path / "missing.edges"), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("usage error:") and f"{tmp_path / directory} is a directory" in err
    assert list(tmp_path.iterdir()) == [tmp_path / directory]


def test_overflowing_residual_exit_3(tmp_path, capsys):
    # the squared entries of A = (eps I + L)^s overflow; no JSON holding NaN is written
    out = tmp_path / "r.json"
    rc = main(["interpolate", "--graph", str(DATA / "geometric_200.edges"), "--synthetic",
               "--n-samples", "30", "--epsilon", "1e6", "--exponent", "30", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical error: community 0: ")
    assert list(tmp_path.iterdir()) == []


def test_lanczos_failure_exit_3(tmp_path, capsys, monkeypatch):
    # the reference signal's eigensolver fails; no JSON is written
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(gbfpum.numerics, "eigsh", no_convergence)
    rc = main(["interpolate", "--graph", str(DATA / "geometric_200.edges"), "--synthetic",
               "--n-samples", "30", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical error: shift-invert Lanczos failed: ")
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exit_1(tmp_path):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv", [[], ["partition"], ["interpolate"], ["benchmark"]])
def test_help_exit_0(capsys, argv):
    # argparse exits after printing the help; main returns its status
    assert main([*argv, "--help"]) == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: gbfpum", *argv]))


# The flag of each field of the params dataclasses. A new field must come
# with a flag, listed here, and a key in the `params` block.
FLAGS = {"small_fraction": "--small-fraction", "epsilon": "--epsilon", "s": "--exponent"}


@pytest.mark.parametrize(
    "command, settings, extra",
    [
        ("partition", [DetectionParams], ["--n-samples", "2"]),
        ("interpolate", [DetectionParams, KernelParams], ["--n-samples", "2", "--synthetic"]),
        ("benchmark", [DetectionParams, KernelParams], ["--counts", "2,4", "--synthetic"]),
    ],
)
def test_every_params_field_is_a_flag_and_a_params_key(fixture_files, tmp_path, command, settings, extra):
    graph, _, _ = fixture_files
    # valid, and not the default
    values = {f.name: f.default / 2 for cls in settings for f in dataclasses.fields(cls)}
    flags = [arg for name, value in values.items() for arg in (FLAGS[name], str(value))]
    out = tmp_path / "o.json"
    assert main([command, "--graph", str(graph), "--out", str(out), *extra, *flags]) == 0
    params = json.loads(out.read_text())["params"]
    assert {name: params[name] for name in values} == values
    assert set(params) == {*values, "seed", "alpha"}  # alpha has no flag: detection reads the graph
