"""Per-layer tracing by wrapping the package's public functions from outside.

Each wrapped function records a span (name, parent, start, end) and,
for a few layers, counts taken from its arguments or result. A function is
wrapped in every gbfpum module that binds it, so the program's own calls go
through the wrapper; `Graph` methods are wrapped on the class. Nothing under
src/ is edited, and `patched()` restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("graph", "metrics", "community", "kernel", "numerics", "pum", "cli")

# span name -> (defining module, attribute); "Class.method" wraps a method.
TARGETS = {
    "graph.load": ("graph", "load_graph"),
    "graph.subgraph": ("graph", "Graph.induced_subgraph"),
    "graph.laplacian": ("graph", "Graph.laplacian"),
    "graph.connected": ("graph", "Graph.is_connected"),
    "metrics.katz": ("metrics", "katz_centrality"),
    "metrics.modularity": ("metrics", "modularity"),
    "metrics.jaccard": ("metrics", "jaccard_communities"),
    "community.detect": ("community", "detect_communities"),
    "community.split": ("community", "split_community"),
    "community.merge": ("community", "merge_small"),
    "community.expand": ("community", "expand_overlap"),
    "kernel.gbf_kernel": ("kernel", "gbf_kernel"),
    "numerics.eigh": ("numerics", "sym_eigen"),
    "numerics.spd_solve": ("numerics", "spd_solve"),
    "numerics.symcheck": ("numerics", "check_symmetric"),
    "pum.signal": ("pum", "synthetic_signal"),
    "pum.local": ("pum", "local_interpolant"),
    "pum.assemble": ("pum", "assemble_global"),
    "pum.baseline": ("pum", "global_gbf_baseline"),
    "cli.main": ("cli", "main"),
}


def _kernel_info(args, kwargs, result) -> dict:
    n = len(args[0])
    # computed, not measured: the dense input Laplacian and output kernel, 8 bytes per entry
    return {"order": n, "dense_bytes": 2 * 8 * n * n}


def _detect_info(args, kwargs, result) -> dict:
    actions = [p["action"] for p in result.provenance]
    return {
        "communities": len(result.communities),
        "subdomain_vertices": sum(len(c.subdomain) for c in result.communities),
        "splits_accepted": actions.count("split"),
        "splits_scored": actions.count("split") + actions.count("split_rejected"),
    }


def _cli_info(args, kwargs, result) -> dict:
    argv = args[0]
    out = Path(argv[argv.index("--out") + 1])
    written = [out, out.with_suffix(".csv")]  # interpolate's JSON and its CSV
    return {"bytes_written": sum(p.stat().st_size for p in written if p.is_file())}


INFO = {
    "kernel.gbf_kernel": _kernel_info,
    "community.detect": _detect_info,
    "cli.main": _cli_info,
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans in memory while `patched()` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        package = importlib.import_module("gbfpum")
        modules = [package] + [importlib.import_module(f"gbfpum.{m}") for m in MODULES]
        undo = []
        for name, (home, attr) in TARGETS.items():
            owner = importlib.import_module(f"gbfpum.{home}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                targets = [getattr(owner, cls_name)]
                original = getattr(targets[0], attr)
            else:
                original = getattr(owner, attr)
                targets = [m for m in modules if m.__dict__.get(attr) is original]
            wrapped = self._wrap(name, original)
            for target in targets:
                undo.append((target, attr, original))
                setattr(target, attr, wrapped)
        try:
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and call count per span name."""
        out = {name: (0.0, 0) for name in TARGETS}
        for s in self.spans:
            t, c = out[s.name]
            out[s.name] = (t + s.self_s, c + 1)
        return out

    def info_sum(self, name: str, key: str) -> int:
        return sum(s.info[key] for s in self.spans if s.name == name)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; all `_s` figures are self time."""
        tot = self.totals()
        orders = [s.info["order"] for s in self.spans if s.name == "kernel.gbf_kernel"]
        scored = self.info_sum("community.detect", "splits_scored")
        accepted = self.info_sum("community.detect", "splits_accepted")
        return {
            "graph.load_s": tot["graph.load"][0],
            "graph.subgraph_s": tot["graph.subgraph"][0],
            "graph.subgraph_calls": tot["graph.subgraph"][1],
            "graph.laplacian_s": tot["graph.laplacian"][0],
            "graph.connected_s": tot["graph.connected"][0],
            "graph.connected_calls": tot["graph.connected"][1],
            "metrics.katz_s": tot["metrics.katz"][0],
            "metrics.katz_calls": tot["metrics.katz"][1],
            "metrics.modularity_s": tot["metrics.modularity"][0],
            "metrics.modularity_calls": tot["metrics.modularity"][1],
            "metrics.jaccard_s": tot["metrics.jaccard"][0],
            "metrics.jaccard_calls": tot["metrics.jaccard"][1],
            "community.detect_s": tot["community.detect"][0],
            "community.split_s": tot["community.split"][0],
            "community.split_calls": tot["community.split"][1],
            "community.splits_scored": scored,
            "community.splits_accepted": accepted,
            "community.split_accept_ratio": accepted / scored if scored else 0.0,
            "community.merge_s": tot["community.merge"][0],
            "community.expand_s": tot["community.expand"][0],
            "community.communities": self.info_sum("community.detect", "communities"),
            "community.subdomain_vertices": self.info_sum("community.detect", "subdomain_vertices"),
            "kernel.gbf_kernel_s": tot["kernel.gbf_kernel"][0],
            "kernel.calls": len(orders),
            "kernel.order_max": max(orders, default=0),
            "kernel.order3_sum": sum(n**3 for n in orders),
            "kernel.dense_bytes": self.info_sum("kernel.gbf_kernel", "dense_bytes"),
            "numerics.eigh_s": tot["numerics.eigh"][0],
            "numerics.eigh_calls": tot["numerics.eigh"][1],
            "numerics.spd_solve_s": tot["numerics.spd_solve"][0],
            "numerics.spd_solve_calls": tot["numerics.spd_solve"][1],
            "numerics.symcheck_s": tot["numerics.symcheck"][0],
            "pum.signal_s": tot["pum.signal"][0],
            "pum.local_s": tot["pum.local"][0],
            "pum.local_calls": tot["pum.local"][1],
            "pum.assemble_s": tot["pum.assemble"][0],
            "pum.baseline_s": tot["pum.baseline"][0],
            "cli.main_s": tot["cli.main"][0],
            "cli.calls": tot["cli.main"][1],
            "cli.bytes_written": self.info_sum("cli.main", "bytes_written"),
        }

    def span_table(self) -> dict:
        """Spans as columns, for the report file."""
        return {
            "name": [s.name for s in self.spans],
            "parent": [s.parent for s in self.spans],
            "start": [s.start for s in self.spans],
            "end": [s.end for s in self.spans],
        }
