"""Command-line front end: partition, interpolate, and benchmark subcommands.

Exit codes: 1 usage error, 2 input data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .community import Cover, DetectionParams, detect_communities
from .errors import GraphError, NumericalError, ZeroSignalError
from .graph import Graph, as_vertex_set, load_graph
from .kernel import KernelParams
from .pum import (
    global_gbf_baseline,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

FORMAT_VERSION = 1


class UsageFailure(Exception):
    pass


class InputFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageFailure(message)


def _param(cls, name: str) -> dict:
    """argparse `type` and `default` from field `name` of a params dataclass.

    A value the dataclass rejects becomes a usage error that names the flag.
    """

    def parse(text: str) -> float:
        try:
            value = float(text)
            cls(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return {"type": parse, "default": getattr(cls, name)}  # the field's default


def _add_common(sub: argparse.ArgumentParser, with_kernel: bool) -> None:
    sub.add_argument("--graph", required=True, help="edge-list file")
    sub.add_argument("--samples", help="file with one sampled vertex id per line")
    sub.add_argument("--n-samples", type=int, help="draw this many seeded samples")
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed for sampling")
    alpha = _param(DetectionParams, "alpha")
    sub.add_argument("--alpha", help="Katz attenuation (default: capped)", **alpha)
    sub.add_argument("--small-fraction", **_param(DetectionParams, "small_fraction"))
    sub.add_argument("--out", required=True, help="output JSON path")
    if with_kernel:
        sub.add_argument("--signal", help="CSV of vertex_id,value")
        sub.add_argument(
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

    sb = subs.add_parser("benchmark", help="sweep sample counts; optional baseline")
    _add_common(sb, with_kernel=True)
    sb.add_argument(
        "--counts", required=True, help="comma-separated ascending sample counts"
    )
    sb.add_argument(
        "--baseline", action="store_true", help="also time the global dense solve"
    )
    return p


def _load_graph_file(path: str) -> Graph:
    p = Path(path)
    if not p.is_file():
        raise InputFailure(f"graph file not found: {path}")
    with open(p) as fh:
        return load_graph(fh)


def _load_signal(path: str, n: int) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise InputFailure(f"signal file not found: {path}")
    values = np.full(n, np.nan)
    with open(p, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                vid = int(row[0])
            except ValueError:
                continue  # header row
            if len(row) < 2:
                raise InputFailure(f"signal row for vertex {row[0]} has no value")
            if not 0 <= vid < n:
                raise InputFailure(f"signal vertex {vid} out of range")
            try:
                value = float(row[1])
            except ValueError:
                raise InputFailure(
                    f"signal value for vertex {vid} is not a number: {row[1]!r}"
                ) from None
            if not math.isfinite(value):
                raise InputFailure(
                    f"signal value for vertex {vid} is not finite: {row[1]!r}"
                )
            values[vid] = value
    missing = np.flatnonzero(np.isnan(values))
    if len(missing):
        raise InputFailure(f"signal file misses vertex {int(missing[0])}")
    return values


def _resolve_samples(args, n: int) -> np.ndarray:
    if (args.samples is None) == (args.n_samples is None):
        raise UsageFailure("provide exactly one of --samples / --n-samples")
    if args.samples is not None:
        p = Path(args.samples)
        if not p.is_file():
            raise InputFailure(f"sample file not found: {args.samples}")
        ids = []
        for line_no, line in enumerate(p.read_text().splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                ids.append(int(line.strip()))
            except ValueError:
                raise InputFailure(
                    f"sample file line {line_no} is not a vertex id: {line!r}"
                ) from None
        if not ids:
            raise InputFailure("sample file is empty")
        return as_vertex_set(ids, n)
    if args.n_samples < 1:
        raise UsageFailure("--n-samples must be positive")
    if args.n_samples > n:
        raise InputFailure(f"--n-samples {args.n_samples} exceeds graph order {n}")
    return sample_nodes(n, args.n_samples, args.seed)


def _resolve_signal(args, g: Graph) -> np.ndarray:
    if (args.signal is None) == (not args.synthetic):
        raise UsageFailure("provide exactly one of --signal / --synthetic")
    if args.synthetic:
        return synthetic_signal(g)
    return _load_signal(args.signal, g.n)


def _detection_params(args) -> DetectionParams:
    return DetectionParams(small_fraction=args.small_fraction, alpha=args.alpha)


def _param_block(args, cover: Cover, with_kernel: bool) -> dict:
    block = {
        "alpha": cover.provenance[0]["alpha"],  # the Katz entry: the alpha used
        "small_fraction": args.small_fraction,
        "seed": args.seed if args.n_samples is not None else None,
    }
    if with_kernel:
        block["epsilon"] = args.epsilon
        block["s"] = args.exponent
    return block


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_partition(args) -> None:
    g = _load_graph_file(args.graph)
    W = _resolve_samples(args, g.n)
    cover = detect_communities(g, W, _detection_params(args))
    doc = cover.to_json_dict()
    doc["params"] = _param_block(args, cover, with_kernel=False)
    _write_json(args.out, doc)

    # plot data: one row per vertex with core id, overlap memberships, sample flag
    member = cover.membership(g.n)
    over = [[] for _ in range(g.n)]
    for cid, c in enumerate(cover.communities):
        for v in c.overlap:
            over[int(v)].append(cid)
    in_w = np.zeros(g.n, dtype=bool)
    in_w[W] = True
    plot_path = Path(args.out).with_suffix(".plot.csv")
    with open(plot_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["vertex", "community", "overlap_of", "is_sample"])
        for v in range(g.n):
            wr.writerow(
                [v, int(member[v]), ";".join(map(str, over[v])), int(in_w[v])]
            )


def cmd_interpolate(args) -> None:
    g = _load_graph_file(args.graph)
    W = _resolve_samples(args, g.n)
    y = _resolve_signal(args, g)
    kp = KernelParams(epsilon=args.epsilon, s=args.exponent)
    result, cover = run_pipeline(g, y, W, _detection_params(args), kp)
    doc = result.to_json_dict(params=_param_block(args, cover, with_kernel=True))
    _write_json(args.out, doc)

    csv_path = Path(args.out).with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["vertex", "truth", "approximant", "abs_error"])
        for v in range(g.n):
            err = abs(float(y[v]) - float(result.approximant[v]))
            wr.writerow(
                [v, repr(float(y[v])), repr(float(result.approximant[v])), repr(err)]
            )


def cmd_benchmark(args) -> None:
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise UsageFailure(f"bad --counts value: {args.counts!r}")
    if not counts:
        raise UsageFailure("--counts must list at least one sample count")
    if counts != sorted(counts):
        raise UsageFailure("--counts must be ascending")
    if args.samples is not None:
        raise UsageFailure("benchmark draws seeded samples; --samples not supported")
    if args.n_samples is not None:
        raise UsageFailure("benchmark takes counts from --counts, not --n-samples")

    g = _load_graph_file(args.graph)
    if counts[-1] > g.n:
        raise InputFailure(f"count {counts[-1]} exceeds graph order {g.n}")
    y = _resolve_signal(args, g)
    kp = KernelParams(epsilon=args.epsilon, s=args.exponent)
    dp = _detection_params(args)

    rows = []
    for count in counts:
        W = sample_nodes(g.n, count, args.seed)  # prefixes of one permutation: nested
        result, cover = run_pipeline(g, y, W, dp, kp)
        row = {
            "n_samples": count,
            "communities": len(cover.communities),
            "rrmse": result.rrmse,
            "time_s": result.wall_times["total_s"],
            "baseline_time_s": None,
        }
        if args.baseline:
            base = global_gbf_baseline(g, y, W, kp)
            row["baseline_time_s"] = base.wall_times["total_s"]
            row["baseline_rrmse"] = base.rrmse
        rows.append(row)

    doc = {
        "format_version": FORMAT_VERSION,
        "rows": rows,
        # seeded samples, so the seed is always set; every cover records one alpha
        "params": {**_param_block(args, cover, with_kernel=True), "seed": args.seed},
    }
    _write_json(args.out, doc)
    csv_path = Path(args.out).with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["N", "communities", "rrmse", "time_s", "baseline_time_s"])
        for r in rows:
            wr.writerow(
                [
                    r["n_samples"],
                    r["communities"],
                    repr(r["rrmse"]),
                    repr(r["time_s"]),
                    "" if r["baseline_time_s"] is None else repr(r["baseline_time_s"]),
                ]
            )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "partition":
            cmd_partition(args)
        elif args.command == "interpolate":
            cmd_interpolate(args)
        else:
            cmd_benchmark(args)
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
