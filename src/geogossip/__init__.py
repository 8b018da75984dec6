"""Hierarchical geographic gossip averaging on geometric random graphs.

A deterministic discrete-event simulator for a hierarchical gossip protocol
with non-convex affine pairwise updates, two classical baselines under the
same transmission accounting, and a numerical kernel with brute-force
oracles for the protocol's contraction and perturbation bounds.
"""

__version__ = "0.1.0"

from .affine import (
    affine_pair_update,
    contraction_bound,
    contraction_factor,
    expected_quadratic_form,
    mean_square_decay_bound,
    simulate_affine_gossip,
)
from .engine import (
    MetricsSeries,
    SimState,
    init_sim,
    initial_values,
    replay_ledger,
    run,
    step,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    kernel_verify,
    load_config,
    parse_config,
    run_experiment,
    sweep,
)
from .geometry import (
    GeometricGraph,
    PointSet,
    build_graph,
    connectivity_radius,
    is_connected,
    sample_points,
)
from .hierarchy import (
    EmptyCellError,
    Hierarchy,
    LevelAssignment,
    ParamSchedule,
    ScheduleOverflowError,
    SquareCell,
    build_hierarchy,
    build_schedule,
    count_concentration,
    dump_hierarchy,
    subdivision_factor,
)
from .metrics import FitResult, MetricsRecord, fit_scaling, read_csv
from .routing import FloodResult, RouteResult, flood, greedy_route, \
    route_to_position

__all__ = [
    "affine_pair_update",
    "contraction_bound",
    "contraction_factor",
    "expected_quadratic_form",
    "mean_square_decay_bound",
    "simulate_affine_gossip",
    "MetricsSeries",
    "SimState",
    "init_sim",
    "replay_ledger",
    "run",
    "initial_values",
    "step",
    "ConfigError",
    "ExperimentConfig",
    "kernel_verify",
    "load_config",
    "parse_config",
    "run_experiment",
    "sweep",
    "GeometricGraph",
    "PointSet",
    "build_graph",
    "connectivity_radius",
    "is_connected",
    "sample_points",
    "EmptyCellError",
    "Hierarchy",
    "LevelAssignment",
    "ParamSchedule",
    "ScheduleOverflowError",
    "SquareCell",
    "build_hierarchy",
    "build_schedule",
    "count_concentration",
    "dump_hierarchy",
    "subdivision_factor",
    "FitResult",
    "MetricsRecord",
    "fit_scaling",
    "read_csv",
    "FloodResult",
    "RouteResult",
    "flood",
    "greedy_route",
    "route_to_position",
    "__version__",
]
