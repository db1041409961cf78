"""Exact solvers and exhaustive verification for two graph invariants:
metric dimension and distinguishing number.

The package provides bit-row graphs with the usual constructions
(complement, union, join, blow-up, named families), isomorphism tests and
enumeration of all small graphs up to isomorphism, graph6 I/O, exact
metric-dimension and distinguishing-number solvers, twin-class machinery,
catalogs of the families attaining D in {n, n-1, n-2, n-3}, and a CLI that
verifies everything by brute force at small orders.
"""

from .catalog import (
    ClassificationReport,
    FamilyInstance,
    FamilyMatch,
    TheoremId,
    TheoremNotApplicableError,
    classify_graph,
    construction_graph,
    in_family_f,
    instantiate_families,
)
from .expressions import ExpressionError, format_spec, parse_expression
from .graphs import (
    MAX_VERTICES,
    DisconnectedError,
    FamilySpec,
    Graph,
    GraphError,
    OrderLimitError,
    blow_up,
    broom_tree,
    build_graph,
    bull_graph,
    complement,
    complete_graph,
    complete_multipartite_graph,
    construct_family,
    cycle_graph,
    diameter,
    disjoint_union,
    empty_graph,
    family_degrees,
    house_graph,
    is_connected,
    join,
    path_graph,
)
from .isomorphism import (
    Graph6Error,
    are_isomorphic,
    enumerate_graphs,
    parse_graph6,
    write_graph6,
)
from .resolving import ResolvingWitness, is_resolving, metric_dimension
from .symmetry import (
    Coloring,
    NotResolvingError,
    coloring_from_resolving_set,
    distinguishing_number,
    is_distinguishing,
)
from .twins import TwinStructure, core_graph, twin_classes, twin_graph
from .verify import (
    Mismatch,
    VerifyReport,
    check_bound,
    check_characterization,
    check_construction,
    enumeration_rows,
    load_graph6_file,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "Coloring",
    "DisconnectedError",
    "ExpressionError",
    "FamilyInstance",
    "FamilyMatch",
    "FamilySpec",
    "Graph",
    "Graph6Error",
    "GraphError",
    "MAX_VERTICES",
    "Mismatch",
    "NotResolvingError",
    "OrderLimitError",
    "ResolvingWitness",
    "TheoremId",
    "TheoremNotApplicableError",
    "TwinStructure",
    "VerifyReport",
    "are_isomorphic",
    "blow_up",
    "broom_tree",
    "build_graph",
    "bull_graph",
    "check_bound",
    "check_characterization",
    "check_construction",
    "classify_graph",
    "coloring_from_resolving_set",
    "complement",
    "complete_graph",
    "complete_multipartite_graph",
    "construct_family",
    "construction_graph",
    "core_graph",
    "cycle_graph",
    "diameter",
    "disjoint_union",
    "distinguishing_number",
    "empty_graph",
    "enumerate_graphs",
    "enumeration_rows",
    "family_degrees",
    "format_spec",
    "house_graph",
    "in_family_f",
    "instantiate_families",
    "is_connected",
    "is_distinguishing",
    "is_resolving",
    "join",
    "load_graph6_file",
    "metric_dimension",
    "parse_expression",
    "parse_graph6",
    "path_graph",
    "twin_classes",
    "twin_graph",
    "write_graph6",
]
