"""Graph signal interpolation via overlapping communities and kernel PUM."""

from .community import Community, Cover, DetectionParams, detect_communities
from .errors import GbfPumError
from .graph import Graph, load_graph
from .kernel import KernelParams, gbf_kernel
from .metrics import (
    default_alpha,
    jaccard_communities,
    katz_centrality,
    modularity,
)
from .numerics import spd_solve, sym_eigen
from .pum import (
    PumResult,
    assemble_global,
    build_pu,
    global_gbf_baseline,
    local_interpolant,
    rrmse,
    run_pipeline,
    sample_nodes,
    synthetic_signal,
)

__version__ = "0.1.0"

__all__ = [
    "Community",
    "Cover",
    "DetectionParams",
    "GbfPumError",
    "Graph",
    "KernelParams",
    "PumResult",
    "assemble_global",
    "build_pu",
    "default_alpha",
    "detect_communities",
    "gbf_kernel",
    "global_gbf_baseline",
    "jaccard_communities",
    "katz_centrality",
    "load_graph",
    "local_interpolant",
    "modularity",
    "rrmse",
    "run_pipeline",
    "sample_nodes",
    "spd_solve",
    "sym_eigen",
    "synthetic_signal",
]
