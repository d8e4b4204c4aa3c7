"""Command-line front end: partition, interpolate, and benchmark subcommands.

Exit codes: 1 usage error, 2 input data error, 3 numerical failure.

The argument parser is the only source of usage errors: every usage rule is a
flag's `type`, a required flag, a required group of exclusive flags or a
rule on the outputs (the JSON and the CSV beside it): each goes into an
existing directory and is not one, neither is the other, and neither
resolves to the `--graph`, `--signal` or `--samples` file; so a usage error
exits 1 before any file is read. Each field of the params dataclasses a
subcommand builds is one of its flags, stored under the field's name, and
one key of its JSON `params` block; `alpha` there is the graph's
`metrics.default_alpha`, the one detection solves Katz at.

Every subcommand takes one run-and-write path. `main` loads the graph and
builds the params objects; the command (`cmd_partition`, `cmd_interpolate`,
`cmd_benchmark`) returns its JSON document, CSV header and CSV rows; and
`main` adds the one `params` block and writes the JSON, then the CSV.

The signal and sample files have one reader, `_vertex_rows`, so one set of
row rules, and an input error names the bad row as `<file> row N`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .community import FORMAT_VERSION, DetectionParams, core_membership, detect_communities
from .errors import GraphError, NumericalError, ZeroSignalError
from .graph import Graph, load_graph
from .kernel import KernelParams
from .metrics import default_alpha
from .pum import global_gbf_baseline, run_pipeline, sample_nodes, synthetic_signal

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class UsageFailure(Exception):
    pass


class InputFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageFailure(message)

    def parse_args(self, args=None, namespace=None):
        """The flags, with `csv_path`: --out with the subcommand's CSV suffix.

        A usage error when an output is a directory or in none, or would
        overwrite the other or an input file.
        """
        a = super().parse_args(args, namespace)
        out = Path(a.out)
        try:
            a.csv_path = out.with_suffix(a.csv_suffix)
        except ValueError:  # a path with no file name: "", "/"
            self.error(f"--out {a.out!r} is not a file path")
        if not out.parent.is_dir():
            self.error(f"--out {a.out}: no directory {out.parent}")
        for path in (out, a.csv_path):
            if path.is_dir():
                self.error(f"--out {a.out}: {path} is a directory")
        written = {out.resolve(), a.csv_path.resolve()}
        if len(written) == 1:
            self.error(f"--out {a.out}: the CSV written beside the JSON would overwrite it")
        for name in ("graph", "signal", "samples"):
            path = getattr(a, name, None)
            if path is not None and Path(path).resolve() in written:
                self.error(f"--out {a.out}: an output would overwrite the --{name} file {path}")
        return a


def _param(cls, name: str) -> dict:
    """argparse `dest`, `type` and `default` from field `name` of a params dataclass.

    A value the dataclass rejects becomes a usage error that names the flag.
    """

    def parse(text: str) -> float:
        try:
            value = float(text)
            cls(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return {"dest": name, "type": parse, "default": getattr(cls, name)}  # the field's default


def _int_at_least(low: int, kind: str):
    """argparse `type`: an integer of at least `low`, described as a `kind` integer."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


def _counts(text: str) -> list[int]:
    """The --counts sweep: strictly ascending positive sample counts, comma-separated."""
    try:
        counts = [int(c) for c in text.split(",")]  # an empty field is no integer
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise argparse.ArgumentTypeError(f"must be strictly ascending, got {text!r}")
    if counts[0] < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return counts


def _add_common(sub: argparse.ArgumentParser, with_kernel: bool) -> None:
    sub.add_argument("--graph", required=True, help="edge-list file")
    seed = _int_at_least(0, "non-negative")
    sub.add_argument("--seed", type=seed, default=0, help="PRNG seed for sampling")
    sub.add_argument("--small-fraction", **_param(DetectionParams, "small_fraction"))
    settings = (DetectionParams, KernelParams) if with_kernel else (DetectionParams,)
    # the params dataclasses it builds, in `main`, and the suffix of its CSV
    sub.set_defaults(settings=settings, csv_suffix=".csv" if with_kernel else ".plot.csv")
    sub.add_argument("--out", required=True, help="output JSON path")
    if with_kernel:
        signal = sub.add_mutually_exclusive_group(required=True)
        signal.add_argument("--signal", help="CSV of vertex_id,value")
        signal.add_argument(
            "--synthetic",
            action="store_true",
            help="use the built-in smooth reference signal",
        )
        sub.add_argument("--epsilon", **_param(KernelParams, "epsilon"))
        sub.add_argument("--exponent", **_param(KernelParams, "s"))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gbfpum", description="Graph signal interpolation via GBF-PUM")
    subs = p.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("partition", parents=[], help="detect overlapping communities")
    _add_common(sp, with_kernel=False)

    si = subs.add_parser("interpolate", help="reconstruct a signal from samples")
    _add_common(si, with_kernel=True)

    for sub in (sp, si):
        samples = sub.add_mutually_exclusive_group(required=True)
        samples.add_argument("--samples", help="file with one sampled vertex id per line")
        samples.add_argument(
            "--n-samples", type=_int_at_least(1, "positive"), help="draw this many seeded samples"
        )

    sb = subs.add_parser("benchmark", help="sweep sample counts; optional baseline")
    _add_common(sb, with_kernel=True)
    sb.add_argument(
        "--counts", required=True, type=_counts, help="comma-separated ascending sample counts"
    )
    sb.add_argument(
        "--baseline", action="store_true", help="also time the whole-graph kernel baseline"
    )
    return p


def _read_text(path: str, what: str) -> str:
    """The text of input file `path`, which must be UTF-8; `what` names it in errors.

    A leading byte-order mark, as spreadsheet programs write, is dropped.
    Line endings are kept as they are, as `open(..., newline="")` keeps them.
    """
    p = Path(path)
    if not p.is_file():
        problem = f"{path} is a directory" if p.is_dir() else f"not found: {path}"
        raise InputFailure(f"{what} {problem}")
    try:
        return p.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        raise InputFailure(f"{what} {path} is not UTF-8 text") from None


def _vertex_rows(path: str, what: str, n: int, width: int):
    """(vertex id, the other fields, the row's name) for each data row of a `what` CSV file.

    A blank or whitespace-only row, or one whose first field starts with '#',
    is a comment. Only a signal file (`width` 2) may open with one header row,
    whose first field is no integer. Every other row holds `width` fields, the
    first a vertex id in 0..n-1 that no earlier row holds; the field count is
    checked before the range and the repeat. Errors name the row: `sample row 2`.
    """
    rows = csv.reader(io.StringIO(_read_text(path, f"{what} file"), newline=""))
    may_be_header, seen = width == 2, set()
    for row in rows:
        if not "".join(row).strip() or row[0].strip().startswith("#"):
            continue
        name = f"{what} row {rows.line_num}"
        header, may_be_header = may_be_header, False
        try:
            vid = int(row[0])
        except ValueError:
            if header:
                continue
            raise InputFailure(f"{name}: vertex id is not an integer: {row[0]!r}") from None
        if len(row) < width:
            raise InputFailure(f"{name}: vertex {vid} has no value")
        if len(row) > width:
            held = "one vertex id" if width == 1 else "a vertex id and a value"
            raise InputFailure(f"{name}: holds more than {held}")
        if not 0 <= vid < n:
            raise InputFailure(f"{name}: vertex {vid} out of range for graph of order {n}")
        if vid in seen:
            raise InputFailure(f"{name}: vertex {vid} is repeated")
        seen.add(vid)
        yield vid, row[1:], name


def _load_signal(path: str, n: int) -> np.ndarray:
    values = np.full(n, np.nan)
    for vid, (text,), name in _vertex_rows(path, "signal", n, 2):
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            reason = "not a number" if value is None else "not finite"
            raise InputFailure(f"{name}: value for vertex {vid} is {reason}: {text!r}")
        values[vid] = value
    missing = np.flatnonzero(np.isnan(values))
    if len(missing):
        raise InputFailure(f"signal file misses vertex {int(missing[0])}")
    return values


def _resolve_samples(args, n: int) -> np.ndarray:
    if args.samples is not None:
        ids = [vid for vid, _, _ in _vertex_rows(args.samples, "sample", n, 1)]
        if not ids:
            raise InputFailure("sample file is empty")
        return np.sort(np.array(ids, dtype=np.int64))
    if args.n_samples > n:
        raise InputFailure(f"--n-samples {args.n_samples} exceeds graph order {n}")
    return sample_nodes(n, args.n_samples, args.seed)


def _resolve_signal(args, g: Graph) -> np.ndarray:
    return synthetic_signal(g) if args.synthetic else _load_signal(args.signal, g.n)


def cmd_partition(args, g: Graph, settings: list):
    """The cover's JSON; per vertex a plot row: its core, overlap memberships and sample flag."""
    W = _resolve_samples(args, g.n)
    cover = detect_communities(g, W, *settings)
    member = core_membership(g.n, [c.core for c in cover.communities])
    over = [[] for _ in range(g.n)]
    for cid, c in enumerate(cover.communities):
        for v in c.overlap:
            over[int(v)].append(cid)
    in_w = np.zeros(g.n, dtype=bool)
    in_w[W] = True
    rows = ([v, int(member[v]), ";".join(map(str, over[v])), int(in_w[v])] for v in range(g.n))
    return cover.to_json_dict(), ["vertex", "community", "overlap_of", "is_sample"], rows


def cmd_interpolate(args, g: Graph, settings: list):
    """The result's JSON, and a row per vertex: the signal, the approximant and their gap."""
    W = _resolve_samples(args, g.n)
    y = _resolve_signal(args, g)
    result, _ = run_pipeline(g, y, W, *settings)
    truth, approx = y.tolist(), result.approximant.tolist()
    rows = ([v, repr(t), repr(a), repr(abs(t - a))] for v, (t, a) in enumerate(zip(truth, approx)))
    return result.to_json_dict(), ["vertex", "truth", "approximant", "abs_error"], rows


def cmd_benchmark(args, g: Graph, settings: list):
    """One row per sample count, in the JSON and the CSV: communities, rrmse, time, baseline."""
    if args.counts[-1] > g.n:
        raise InputFailure(f"count {args.counts[-1]} exceeds graph order {g.n}")
    y = _resolve_signal(args, g)
    dp, kp = settings
    rows = []
    for count in args.counts:
        W = sample_nodes(g.n, count, args.seed)  # prefixes of one permutation: nested
        result, cover = run_pipeline(g, y, W, dp, kp)
        base = global_gbf_baseline(g, y, W, kp) if args.baseline else None
        rows.append({
            "n_samples": count,
            "communities": len(cover.communities),
            "rrmse": result.rrmse,
            "time_s": result.wall_times["total_s"],
            "baseline_time_s": None if base is None else base.wall_times["total_s"],
            "baseline_rrmse": None if base is None else base.rrmse,
        })
    scored = ("rrmse", "time_s", "baseline_time_s", "baseline_rrmse")
    csv_rows = (
        [r["n_samples"], r["communities"], *("" if r[k] is None else repr(r[k]) for k in scored)]
        for r in rows
    )
    return {"format_version": FORMAT_VERSION, "rows": rows}, ["N", "communities", *scored], csv_rows


COMMANDS = {"partition": cmd_partition, "interpolate": cmd_interpolate, "benchmark": cmd_benchmark}


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand of `argv`; write its JSON, with `params`, then its CSV; the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        g = load_graph(_read_text(args.graph, "graph file"))
        # one params object per dataclass of the subcommand, each field from its flag
        settings = [
            cls(**{f.name: getattr(args, f.name) for f in fields(cls)}) for cls in args.settings
        ]
        doc, header, rows = COMMANDS[args.command](args, g, settings)
        doc["params"] = {
            **{name: value for p in settings for name, value in asdict(p).items()},
            "alpha": default_alpha(g),  # the Katz alpha that detection used
            # seeded samples unless a sample file was given; benchmark always draws
            "seed": args.seed if getattr(args, "samples", None) is None else None,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(args.csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    except SystemExit as exc:  # argparse's exit after --help
        return exc.code
    except UsageFailure as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputFailure, GraphError, ZeroSignalError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
