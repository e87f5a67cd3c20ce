"""Steiner tree approximation in graphs.

A two-phase greedy heuristic over the metric closure: the first phase grows
an unimprovable terminal-spanning tree by charging candidates their
loss-contracted price, the second runs a relative greedy between that tree
and the plain terminal MST. Comes with exact oracles for small instances,
per-run bound checks, STP file support, and a benchmark harness.
"""

from .bench import run_benchmark
from .bounds import (
    BoundReport,
    check_run,
    crossover_alpha,
    guarantee_ratio,
    ratio_curves,
    restricted_ratio_bound,
    solution_cost_bound,
)
from .components import (
    CandidatePool,
    Contraction,
    FullComponent,
    enumerate_full_components,
    loss_contract,
    reduce_to_basic,
)
from .core import (
    ContractedTree,
    Instance,
    MetricClosure,
    Tree,
    metric_closure,
    minimum_spanning_tree,
)
from .errors import (
    DisconnectedInputError,
    DisconnectedTerminalsError,
    InputError,
    InternalInvariantError,
    InvalidInstanceError,
    KRestrictionError,
    LimitExceededError,
    SteinerError,
    StpSyntaxError,
    UnknownNodeError,
    UsageError,
)
from .exact import ExactResult, optimal_k_restricted, optimal_steiner_tree
from .gen import grid_instance, random_instance
from .phase1 import Phase1Result, run_phase1
from .phase2 import Phase2Result, run_phase2, select_candidate
from .solver import RunConfig, RunResult, solve
from .stp import load_stp, parse_stp, save_stp, write_stp

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CandidatePool", "ContractedTree", "Contraction",
    "DisconnectedInputError", "DisconnectedTerminalsError", "ExactResult",
    "FullComponent", "InputError", "Instance", "InternalInvariantError",
    "InvalidInstanceError", "KRestrictionError", "LimitExceededError",
    "MetricClosure", "Phase1Result", "Phase2Result", "RunConfig", "RunResult",
    "SteinerError", "StpSyntaxError", "Tree", "UnknownNodeError", "UsageError",
    "check_run", "crossover_alpha", "enumerate_full_components",
    "grid_instance", "guarantee_ratio", "load_stp", "loss_contract",
    "metric_closure", "minimum_spanning_tree", "optimal_k_restricted",
    "optimal_steiner_tree", "parse_stp", "random_instance", "ratio_curves",
    "reduce_to_basic", "restricted_ratio_bound", "run_benchmark", "run_phase1",
    "run_phase2", "save_stp", "select_candidate", "solution_cost_bound",
    "solve", "write_stp",
]
