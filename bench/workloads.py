"""The benchmark's workloads and the checks on their outputs.

- minnesota_sweep: run_pipeline on the road graph at nested N = 200..800,
  plus four bad-input command-line calls that must exit with the documented
  code.
- global_solve: global_gbf_baseline on the same graph.

The sweep mixes a fixed panel of sample seeds with one drawn from --seed. One
drawn sample set moves rrmse by 30-50 % (log-spread across seeds), so sample
sets drawn from --seed alone would spread the metrics far beyond any useful
bound; the drawn one still gives every seed inputs that no change was tuned on.

Program functions are looked up on their modules at call time (`pum.run_pipeline`),
so the tracer's wrappers see the benchmark's calls as well as the program's.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

import oracle
from harness import Op, fingerprint
from gbfpum import cli, graph, pum
from gbfpum.community import Cover, DetectionParams
from gbfpum.kernel import KernelParams

ROOT = Path(__file__).resolve().parent.parent
ROAD_GRAPH = ROOT / "data" / "minnesota_surrogate.edges"
FIXED_GRAPH = ROOT / "data" / "geometric_200.edges"

DETECTION = DetectionParams()
KERNEL = KernelParams()  # epsilon 0.01, s 2

GAP_TOL = 1e-8  # |approximant - oracle| / max|y|
EXACT_TOL = 1e-6  # |approximant - y| at the samples / max|y|
PU_TOL = 1e-12
RRMSE_TOL = 1e-12  # relative
MODULARITY_TOL = 1e-12
SIGNAL_TOL = 1e-8  # mean and out-of-span parts of the reference signal, relative to |y|


def signal_problems(A, y: np.ndarray) -> list[str]:
    mean_part, outside = oracle.signal_defects(A, y)
    out = []
    if mean_part > SIGNAL_TOL:
        out.append(f"reference signal has a constant part {mean_part:.3g}")
    if outside > SIGNAL_TOL:
        out.append(f"reference signal leaves the span of the 10 lowest modes by {outside:.3g}")
    return out


def approximant_problems(A, subdomains, W, y, approx, reported_rrmse, kp) -> list[str]:
    out = []
    scale = float(np.abs(y).max())
    ref = oracle.pum_approximant(A, subdomains, W, y, kp.epsilon, kp.s)
    gap = float(np.abs(ref - approx).max())
    if gap > GAP_TOL * scale:
        out.append(f"approximant differs from the oracle by {gap:.3g}")
    miss = float(np.abs(approx[W] - y[W]).max())
    if miss > EXACT_TOL * scale:
        out.append(f"approximant misses the samples by {miss:.3g}")
    r = oracle.rrmse(y, approx)
    if abs(r - reported_rrmse) > RRMSE_TOL * r:
        out.append(f"reported rrmse {reported_rrmse!r} != recomputed {r!r}")
    return out


def cover_problems(n, edges, doc: dict, W: np.ndarray) -> list[str]:
    out = []
    cores = [np.asarray(c["core"], dtype=np.int64) for c in doc["communities"]]
    if not np.array_equal(np.sort(np.concatenate(cores)), np.arange(n)):
        out.append("cores do not partition the vertices")
        return out
    q = oracle.modularity(n, edges, cores)
    q_last = doc["provenance"][-1]["q_after"]
    if q_last is None or abs(q - q_last) > MODULARITY_TOL:
        out.append(f"modularity of the cores {q!r} != last provenance Q {q_last!r}")
    cover = Cover.from_json_dict(doc, n, W)
    pu = pum.build_pu(cover, n)
    total = np.zeros(n)
    for c in cover.communities:
        total[c.subdomain] += pu.weights(c.subdomain)
    if float(np.abs(total - 1.0).max()) > PU_TOL:
        out.append("partition-of-unity weights do not sum to one")
    return out


def subdomains_of(doc: dict) -> list[np.ndarray]:
    return [np.union1d(c["core"], c["overlap"]).astype(np.int64) for c in doc["communities"]]


class RoadNetwork:
    """Set-up shared by the two road-graph workloads: the graph and its reference signal."""

    setup_repeats = 2  # each set-up is one dense 2642x2642 eigh, about 9 s
    warm_up = True

    def __init__(self, seed: int, workdir: Path):
        self.n, self.edges = oracle.read_edges(ROAD_GRAPH)
        self.A = oracle.adjacency(self.n, self.edges)

    def setup(self):
        t0 = time.perf_counter()
        with open(ROAD_GRAPH) as fh:
            g = graph.load_graph(fh)
        y = pum.synthetic_signal(g)
        return (g, y), time.perf_counter() - t0

    def setup_fingerprint(self, state) -> str:
        g, y = state
        return fingerprint({"indptr": g.indptr, "indices": g.indices, "y": y})


class MinnesotaSweep(RoadNetwork):
    """run_pipeline over nested N for a panel of sample seeds and one drawn
    from --seed, followed by the bad-input command-line calls."""

    name = "minnesota_sweep"
    COUNTS = (200, 400, 600, 800)
    PANEL_SEEDS = (0, 1, 2, 3, 4)  # exponent 2, the default
    # The drawn sample set runs at exponent 1.5, which keeps the dense
    # spectral kernel route measured whatever route integer exponents take.
    DRAWN_KERNEL = KernelParams(epsilon=KERNEL.epsilon, s=1.5)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.blocks = [(ss, KERNEL) for ss in self.PANEL_SEEDS]
        self.blocks.append((len(self.PANEL_SEEDS) + seed, self.DRAWN_KERNEL))
        self.dir = workdir
        write_bad_inputs(workdir)

    def operations(self, state) -> list[Op]:
        g, y = state

        def pipeline(count, sample_seed, kp):
            W = pum.sample_nodes(g.n, count, sample_seed)
            result, cover = pum.run_pipeline(g, y, W, DETECTION, kp)
            return W, result, cover

        def record(raw):
            W, result, cover = raw
            return {
                "ok": True,
                "W": W,
                "approximant": result.approximant,
                "rrmse": result.rrmse,
                "cover": cover.to_json_dict(),
            }

        ops = [
            Op(f"run_pipeline N={count} sample_seed={ss} s={kp.s:g}",
               lambda count=count, ss=ss, kp=kp: pipeline(count, ss, kp), record)
            for ss, kp in self.blocks
            for count in self.COUNTS
        ]
        return ops + bad_input_ops(self.dir)

    def check(self, state, records) -> dict[int, list[str]]:
        _, y = state
        shared = signal_problems(self.A, y)
        k = len(self.COUNTS)
        failures = {}
        for i, rec in enumerate(records[: k * len(self.blocks)]):
            msgs = list(shared)
            if rec["ok"]:
                msgs += cover_problems(self.n, self.edges, rec["cover"], rec["W"])
                msgs += approximant_problems(
                    self.A, subdomains_of(rec["cover"]), rec["W"], y,
                    rec["approximant"], rec["rrmse"], self.blocks[i // k][1],
                )
            if msgs:
                failures[i] = msgs
        # The error trend is checked on the panel seeds only. On a drawn sample
        # set it can break (sample seed 108 at exponent 2: rrmse 0.010928 at
        # N=600, 0.011192 at N=800), and a check that fails on some seeds only
        # cannot be counted.
        for start in range(0, k * len(self.PANEL_SEEDS), k):
            block = records[start : start + k]
            if not all(r["ok"] for r in block):
                continue
            errs = [r["rrmse"] for r in block]
            falling = all(a > b for a, b in zip(errs, errs[1:]))
            if not falling or errs[-1] >= 0.5 * errs[0]:
                for i in range(start, start + k):
                    failures.setdefault(i, []).append(f"error trend broken: {errs}")
        return failures


class GlobalSolve(RoadNetwork):
    """Whole-graph dense solve. Its cost does not depend on which vertices are
    sampled, and one drawn sample set moves the global rrmse by about 50 %
    (log-spread), so the sample sets are fixed and --seed is not used."""

    name = "global_solve"
    # The set-up's dense 2642x2642 eigh already runs the solve's LAPACK path;
    # a first solve after it was measured no slower than a repeat (10.6 s vs
    # 11.0 s), so a 10 s warm-up solve would only lengthen the run.
    warm_up = False
    COUNTS = (200, 800)
    SAMPLE_SEED = 0

    def operations(self, state) -> list[Op]:
        g, y = state

        def solve(count):
            W = pum.sample_nodes(g.n, count, self.SAMPLE_SEED)
            return W, pum.global_gbf_baseline(g, y, W, KERNEL)

        def record(raw):
            W, result = raw
            return {"ok": True, "W": W, "approximant": result.approximant, "rrmse": result.rrmse}

        return [
            Op(f"global_gbf_baseline N={count}", lambda count=count: solve(count), record)
            for count in self.COUNTS
        ]

    def check(self, state, records) -> dict[int, list[str]]:
        _, y = state
        shared = signal_problems(self.A, y)
        everything = [np.arange(self.n)]
        failures = {}
        for i, rec in enumerate(records):
            msgs = list(shared)
            if rec["ok"]:
                msgs += approximant_problems(
                    self.A, everything, rec["W"], y, rec["approximant"], rec["rrmse"], KERNEL
                )
            if msgs:
                failures[i] = msgs
        return failures


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def write_bad_inputs(workdir: Path) -> None:
    """Signal files for the bad-input calls; they do not depend on --seed."""
    n, _ = oracle.read_edges(FIXED_GRAPH)
    rows = [f"{v},{float(np.cos(v))!r}" for v in range(n)]
    for name, bad in (("good", None), ("text", "abc"), ("inf", "inf")):
        lines = list(rows)
        if bad is not None:
            lines[7] = f"7,{bad}"
        (workdir / f"bad_{name}.csv").write_text("vertex_id,value\n" + "\n".join(lines) + "\n")


def bad_input_ops(workdir: Path) -> list[Op]:
    """Command-line calls that must exit with the documented code.

    Today each one fails: `main` maps every ValueError to the numerical code,
    and `_load_signal` accepts non-finite values.
    """
    base = ["interpolate", "--graph", str(FIXED_GRAPH), "--n-samples", "20", "--seed", "0",
            "--out", str(workdir / "bad.json")]
    good = str(workdir / "bad_good.csv")

    def record(raw, expected):
        code, err = raw
        rec = {"ok": code == expected, "exit": code}
        if code != expected:
            rec["error"] = f"exit {code}, documented {expected}: {err.strip()[:200]}"
        return rec

    return [
        Op(f"cli bad input: {label} (exit {expected})", lambda a=base + extra: run_cli(a),
           lambda raw, e=expected: record(raw, e))
        for label, extra, expected in (
            ("epsilon -1", ["--signal", good, "--epsilon", "-1"], cli.EXIT_USAGE),
            ("small-fraction 2", ["--signal", good, "--small-fraction", "2"], cli.EXIT_USAGE),
            ("non-numeric signal", ["--signal", str(workdir / "bad_text.csv")], cli.EXIT_INPUT),
            ("infinite signal", ["--signal", str(workdir / "bad_inf.csv")], cli.EXIT_INPUT),
        )
    ]


WORKLOADS = {w.name: w for w in (MinnesotaSweep, GlobalSolve)}
