"""Rotor-router walks, groups, and escape sequences on regular trees."""

from rotorlab.graph import (
    DirectedMultigraph,
    RotorConfiguration,
    RotorlabError,
    StateClass,
    build_graph,
    classify,
    enumerate_recurrent,
    graph_from_json,
    graph_to_json,
    is_recurrent,
    shortest_path_config,
    spanning_tree_count,
)
from rotorlab.walk import (
    WalkTrace,
    check_harmonic_invariant,
    predecessor,
    reverse_walk,
    route_all,
    route_to_sink,
    step,
)
from rotorlab.group import (
    IsomorphismReport,
    SandpileGroupStructure,
    order_of_generator,
    sandpile_structure,
    verify_isomorphism,
)
from rotorlab.trees import (
    alternation_experiment,
    build_branch,
    build_hat_tree,
    build_plain_tree,
    build_wired_tree,
    exit_measure_experiment,
    expected_returns,
    hitting_probabilities,
    recurrence_experiment,
)
from rotorlab.lazytree import (
    LazyTreeConfig,
    LevelRegion,
    RayRule,
    TreeState,
    aggregate,
    aggregate_modified,
    ball_size,
    is_acyclic_config,
    alternating_tree_config,
    run_chips_infinite,
    uniform_config,
)
from rotorlab.escape import (
    ConfigDescriptor,
    factor_blocks,
    is_escape_branch,
    is_escape_tree,
    phi,
    psi,
    satisfies_all,
    satisfies_pk,
    simulate_branch,
    synthesize_branch,
    synthesize_tree,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedMultigraph", "RotorConfiguration", "RotorlabError", "StateClass",
    "build_graph", "classify", "enumerate_recurrent", "graph_from_json",
    "graph_to_json", "is_recurrent", "shortest_path_config",
    "spanning_tree_count",
    "WalkTrace", "check_harmonic_invariant", "predecessor", "reverse_walk",
    "route_all", "route_to_sink", "step",
    "IsomorphismReport", "SandpileGroupStructure",
    "order_of_generator", "sandpile_structure",
    "verify_isomorphism",
    "alternation_experiment", "build_branch", "build_hat_tree",
    "build_plain_tree", "build_wired_tree", "exit_measure_experiment",
    "expected_returns", "hitting_probabilities", "recurrence_experiment",
    "LazyTreeConfig", "LevelRegion", "RayRule", "TreeState", "aggregate",
    "aggregate_modified", "ball_size", "is_acyclic_config",
    "alternating_tree_config", "run_chips_infinite", "uniform_config",
    "ConfigDescriptor", "factor_blocks", "is_escape_branch", "is_escape_tree",
    "phi", "psi", "satisfies_all", "satisfies_pk", "simulate_branch",
    "synthesize_branch", "synthesize_tree",
]
