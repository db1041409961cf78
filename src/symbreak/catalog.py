"""Catalogs of the graph families attaining each large distinguishing value.

Four catalogs are bundled, one per characterised value of the
distinguishing number D on graphs of order n:

* ``Dn``   D = n      complete and empty graphs
* ``Dn1``  D = n - 1  four families
* ``Dn2``  D = n - 2  the paper's fourteen families and two errata rows
* ``Dn3``  D = n - 3  the paper's forty-two families and nine errata rows,
  valid outside one excluded parameter region (see :func:`in_family_f`)

The paper's rows are kept as printed.  The errata (:data:`ERRATA`) are the
graphs the exhaustive scans find with the catalog's value but in no printed
row; they sit in a separate table, are numbered after the paper's rows, and
every match they produce is flagged ``erratum``.

Each row's member of a requested order, if any, and its degrees
(:func:`family_degrees`) are read off the row's spec.  Instantiation builds
every member, keeps one representative per isomorphism class, and records
all (entry, parameter) aliases that produced it; the verification scans test
graphs against these instances.  :func:`family_matches` builds only the
members with the graph's degree sequence and tests them by isomorphism, the
one matching mechanism at every order.  Members of one catalog with equal
degree sequences are isomorphic except in three pairs of ``Dn3`` at orders
5 and 6, so a graph in no row usually builds no member.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

from .expressions import format_spec
from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    blow_up,
    broom_tree,
    build_graph,
    complete_graph,
    construct_family,
    diameter,
    family_degrees,
    family_order,
    is_connected,
)
from .isomorphism import are_isomorphic, write_graph6
from .resolving import metric_dimension
from .symmetry import distinguishing_number
from .twins import core_graph, twin_graph


class TheoremId(enum.Enum):
    """Identifier of one bundled characterisation catalog."""

    DN = "Dn"
    DN1 = "Dn1"
    DN2 = "Dn2"
    DN3 = "Dn3"

    @property
    def offset(self) -> int:
        """The catalog covers graphs with D = n - offset."""
        return _THEOREMS[self].offset

    @property
    def min_order(self) -> int:
        return _THEOREMS[self].min_order


class TheoremNotApplicableError(GraphError):
    """The requested order is below the catalog's range."""


class FamilyEntry(NamedTuple):
    index: int
    t_min: int | None  # None marks a parameter-free entry
    make: Callable[[int], FamilySpec]


class FamilyMatch(NamedTuple):
    theorem: TheoremId
    entry: int
    t: int | None
    expression: str
    erratum: bool = False  # True for a row of ERRATA, not of the paper

    def to_dict(self) -> dict:
        payload = {
            "theorem": self.theorem.value,
            "entry": self.entry,
            "t": self.t,
            "family": self.expression,
        }
        if self.erratum:
            payload["erratum"] = True
        return payload


class FamilyInstance(NamedTuple):
    """One concrete catalog graph with every alias that produced it."""

    graph: Graph
    matches: tuple[FamilyMatch, ...]


def _leaf(kind: str) -> Callable[..., FamilySpec]:
    return lambda *params: FamilySpec(kind, params)


def _combinator(kind: str) -> Callable[..., FamilySpec]:
    return lambda *parts: FamilySpec(kind, parts=parts)


K = _leaf("complete")
E = _leaf("empty")
P = _leaf("path")
C = _leaf("cycle")
B = M = _leaf("complete_multipartite")
U = _combinator("union")
J = _combinator("join")
BU = _combinator("blow_up")
HOUSE = FamilySpec("house")
BULL = FamilySpec("bull")


def _const(spec: FamilySpec) -> Callable[[int], FamilySpec]:
    return lambda _t: spec


class _Theorem(NamedTuple):
    offset: int
    min_order: int
    entries: tuple[FamilyEntry, ...]


_THEOREMS: dict[TheoremId, _Theorem] = {
    TheoremId.DN: _Theorem(
        offset=0,
        min_order=1,
        entries=(
            FamilyEntry(1, 1, lambda t: K(t)),
            FamilyEntry(2, 1, lambda t: E(t)),
        ),
    ),
    TheoremId.DN1: _Theorem(
        offset=1,
        min_order=1,
        entries=(
            FamilyEntry(1, None, _const(C(4))),
            FamilyEntry(2, 2, lambda t: B(t, 1)),
            FamilyEntry(3, None, _const(U(K(2), K(2)))),
            FamilyEntry(4, 2, lambda t: U(K(t), K(1))),
        ),
    ),
    TheoremId.DN2: _Theorem(
        offset=2,
        min_order=4,
        entries=(
            FamilyEntry(1, None, _const(C(5))),
            FamilyEntry(2, None, _const(P(4))),
            FamilyEntry(3, None, _const(M(1, 2, 2))),
            FamilyEntry(4, None, _const(U(K(2), K(2), K(1)))),
            FamilyEntry(5, None, _const(B(3, 3))),
            FamilyEntry(6, None, _const(U(K(3), K(3)))),
            FamilyEntry(7, 3, lambda t: B(t, 2)),
            FamilyEntry(8, 3, lambda t: U(K(t), K(2))),
            FamilyEntry(9, 2, lambda t: J(K(2), E(t))),
            FamilyEntry(10, 2, lambda t: U(K(t), E(2))),
            FamilyEntry(11, 2, lambda t: J(K(t), E(2))),
            FamilyEntry(12, 2, lambda t: U(E(t), K(2))),
            FamilyEntry(13, 2, lambda t: J(K(1), U(K(t), K(1)))),
            FamilyEntry(14, 2, lambda t: U(B(t, 1), K(1))),
        ),
    ),
    TheoremId.DN3: _Theorem(
        offset=3,
        min_order=5,
        entries=(
            FamilyEntry(1, None, _const(P(5))),
            FamilyEntry(2, None, _const(HOUSE)),
            FamilyEntry(3, None, _const(B(4, 4))),
            FamilyEntry(4, None, _const(U(K(4), K(4)))),
            FamilyEntry(5, 3, lambda t: J(K(3), E(t))),
            FamilyEntry(6, 3, lambda t: U(E(3), K(t))),
            FamilyEntry(7, 2, lambda t: J(K(2), U(K(t), K(1)))),
            FamilyEntry(8, 2, lambda t: U(E(2), B(t, 1))),
            FamilyEntry(9, 4, lambda t: B(t, 3)),
            FamilyEntry(10, 4, lambda t: U(K(t), K(3))),
            FamilyEntry(11, 3, lambda t: J(K(t), E(3))),
            FamilyEntry(12, 3, lambda t: U(E(t), K(3))),
            FamilyEntry(13, 2, lambda t: J(K(t), U(K(2), K(1)))),
            FamilyEntry(14, 2, lambda t: U(E(t), B(2, 1))),
            FamilyEntry(15, 3, lambda t: M(1, 2, t)),
            FamilyEntry(16, 3, lambda t: U(K(1), K(2), K(t))),
            FamilyEntry(17, None, _const(J(K(2), B(2, 2)))),
            FamilyEntry(18, None, _const(U(E(2), K(2), K(2)))),
            FamilyEntry(19, None, _const(M(1, 3, 3))),
            FamilyEntry(20, None, _const(U(K(3), K(3), K(1)))),
            FamilyEntry(21, None, _const(M(2, 2, 2))),
            FamilyEntry(22, None, _const(U(K(2), K(2), K(2)))),
            FamilyEntry(23, 2, lambda t: J(E(2), U(K(1), K(t)))),
            FamilyEntry(24, 2, lambda t: U(K(2), B(t, 1))),
            FamilyEntry(25, None, _const(J(E(2), U(K(2), K(2))))),
            FamilyEntry(26, None, _const(U(K(2), B(2, 2)))),
            FamilyEntry(27, 2, lambda t: J(E(t), U(K(1), K(2)))),
            FamilyEntry(28, 2, lambda t: U(K(t), B(2, 1))),
            FamilyEntry(29, None, _const(J(K(2), U(K(2), K(2))))),
            FamilyEntry(30, None, _const(U(E(2), B(2, 2)))),
            FamilyEntry(31, 2, lambda t: J(K(1), U(K(1), B(1, t)))),
            FamilyEntry(32, 2, lambda t: U(K(1), J(K(1), U(K(t), K(1))))),
            FamilyEntry(33, None, _const(J(K(1), P(4)))),
            FamilyEntry(34, None, _const(U(K(1), P(4)))),
            FamilyEntry(35, None, _const(J(K(1), U(K(1), K(2), K(2))))),
            FamilyEntry(36, None, _const(U(K(1), J(K(1), B(2, 2))))),
            FamilyEntry(37, None, _const(J(K(1), U(K(1), B(2, 2))))),
            FamilyEntry(38, None, _const(U(K(1), J(K(1), U(K(2), K(2)))))),
            FamilyEntry(39, 2, lambda t: BU(P(4), K(1), K(t), K(1), K(1))),
            FamilyEntry(40, 2, lambda t: BU(P(4), E(t), K(1), K(1), K(1))),
            FamilyEntry(41, 2, lambda t: BU(P(4), K(1), E(t), K(1), K(1))),
            FamilyEntry(42, 2, lambda t: BU(P(4), K(t), K(1), K(1), K(1))),
        ),
    ),
}


# Errata: rows the paper's tables lack.  The exhaustive scans of every graph
# of order <= 6, and of all 1,044 classes of order 7, find these graphs with
# D = n - 2, or inside coverage with D = n - 3, in no row above; the
# brute-force oracle in tests/oracles.py gives the same D for each.  All but
# the bull are the path P3 blown up around a single middle vertex, or the
# complement of such a graph.  J(K1,2*K_t) has D = t + 1, so it is an
# erratum of Dn2 at t = 2 and of Dn3 at t = 3 only.
ERRATA: dict[TheoremId, tuple[FamilyEntry, ...]] = {
    TheoremId.DN2: (
        FamilyEntry(15, None, _const(J(K(1), U(K(2), K(2))))),
        FamilyEntry(16, None, _const(U(K(1), B(2, 2)))),
    ),
    TheoremId.DN3: (
        FamilyEntry(43, 2, lambda t: J(K(1), U(K(2), E(t)))),
        FamilyEntry(44, 2, lambda t: U(K(1), J(E(2), K(t)))),
        FamilyEntry(45, 3, lambda t: J(K(1), U(K(2), K(t)))),
        FamilyEntry(46, 3, lambda t: U(K(1), B(2, t))),
        FamilyEntry(47, 3, lambda t: J(K(1), U(E(2), K(t)))),
        FamilyEntry(48, 3, lambda t: U(K(1), J(K(2), E(t)))),
        FamilyEntry(49, None, _const(BULL)),
        FamilyEntry(50, None, _const(J(K(1), U(K(3), K(3))))),
        FamilyEntry(51, None, _const(U(K(1), B(3, 3)))),
    ),
}


def _members(theorem: TheoremId, n: int):
    """Yield ``(entry, erratum, t, spec, family_degrees(spec))`` for each row
    with a member of order ``n``, the paper's rows first, then ERRATA's.
    Every row grows by one vertex per unit of ``t``, so the order of its
    first member gives ``t``; raises :class:`TheoremNotApplicableError`
    below the catalog's minimum order."""
    spec = _THEOREMS[theorem]
    if n < spec.min_order:
        raise TheoremNotApplicableError(
            f"{theorem.value} applies to orders >= {spec.min_order}, got {n}"
        )
    rows = [(entry, False) for entry in spec.entries]
    rows += [(entry, True) for entry in ERRATA.get(theorem, ())]
    for entry, erratum in rows:
        t = entry.t_min
        if t is not None:
            t += n - family_order(entry.make(t))
            if t < entry.t_min:
                continue
        family = entry.make(0 if t is None else t)
        degrees = family_degrees(family)
        if len(degrees) == n:
            yield entry, erratum, t, family, degrees


def instantiate_families(theorem: TheoremId, n: int) -> tuple[FamilyInstance, ...]:
    """All catalog graphs of order exactly ``n``, deduplicated.

    Every row's member of order ``n`` is built, the paper's rows first and
    then those of :data:`ERRATA`; isomorphic members are merged, keeping
    all aliases.  Instances come in the order of their first alias.

    Raises:
        TheoremNotApplicableError: below the catalog's minimum order.
    """
    found: list[tuple[Graph, list[FamilyMatch]]] = []
    for entry, erratum, t, family, _ in _members(theorem, n):
        graph = construct_family(family)
        match = FamilyMatch(theorem, entry.index, t, format_spec(family), erratum)
        for known, matches in found:
            if are_isomorphic(known, graph):
                matches.append(match)
                break
        else:
            found.append((graph, [match]))
    return tuple(FamilyInstance(graph, tuple(matches)) for graph, matches in found)


def family_matches(theorem: TheoremId, g: Graph) -> tuple[FamilyMatch, ...]:
    """The match of every row whose member is isomorphic to ``g``, in row
    order: the aliases of ``g``'s instance, or none.  Only the members with
    ``g``'s degree sequence are built; raises
    :class:`TheoremNotApplicableError` below the catalog's minimum order."""
    sequence = g.degree_sequence()
    return tuple(
        FamilyMatch(theorem, entry.index, t, format_spec(family), erratum)
        for entry, erratum, t, family, degrees in _members(theorem, g.n)
        if tuple(sorted(degrees)) == sequence and are_isomorphic(construct_family(family), g)
    )


def in_family_f(g: Graph) -> bool:
    """Whether the order-(n-3) catalog's coverage applies to ``g``.

    The catalog leaves open exactly the graphs whose connected core has
    metric dimension n - 4, diameter 2 or 3, and a twin quotient on 5 to 9
    vertices; for those this predicate is False and the catalog makes no
    claim either way.
    """
    core = core_graph(g)
    if metric_dimension(core).dim != g.n - 4:
        return True
    if diameter(core) not in (2, 3):
        return True
    return not 5 <= twin_graph(core).quotient.n <= 9


class ClassificationReport(NamedTuple):
    """Everything the analyzer reports about a single graph."""

    graph6: str
    n: int
    connected: bool
    dim: int | None
    distinguishing: int
    core_diameter: int
    core_twin_order: int
    in_family_f: bool
    matches: tuple[FamilyMatch, ...]

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "connected": self.connected,
            "dim": self.dim,
            "D": self.distinguishing,
            "core_diameter": self.core_diameter,
            "core_twin_order": self.core_twin_order,
            "in_family_F": self.in_family_f,
            "matches": [m.to_dict() for m in self.matches],
        }


def classify_graph(g: Graph) -> ClassificationReport:
    """Compute the invariants of ``g`` and match it against every catalog.

    Matching is by isomorphism against the instantiated catalog graphs of
    the same order, never by structural pattern recognition.
    """
    if g.n < 1:
        raise GraphError("classification needs at least one vertex")
    connected = is_connected(g)
    dval = distinguishing_number(g)
    dim = metric_dimension(g).dim if connected else None
    core = core_graph(g)
    matches: list[FamilyMatch] = []
    for tid in TheoremId:
        if g.n >= tid.min_order:
            matches.extend(family_matches(tid, g))
    return ClassificationReport(
        graph6=write_graph6(g),
        n=g.n,
        connected=connected,
        dim=dim,
        distinguishing=dval,
        core_diameter=diameter(core),
        core_twin_order=twin_graph(core).quotient.n,
        in_family_f=in_family_f(g),
        matches=tuple(matches),
    )


#: The largest ``dim_target`` whose construction graphs fit in 64 vertices:
#: ``construction_graph(1, 9)`` has 56, ``construction_graph(1, 10)`` 67.
CONSTRUCTION_MAX_DIM = 9


def construction_graph(d_target: int, dim_target: int) -> Graph:
    """A graph whose distinguishing number is ``d_target`` and whose metric
    dimension is ``dim_target``, for any 1 <= d_target < dim_target.

    For d_target 1 this is the asymmetric broom tree with dim_target + 1
    pendant paths; otherwise a smaller broom tree gets one more pendant
    vertex at its root, blown up into a complete graph on d_target vertices,
    whose mutually twin vertices are the only symmetry left.
    """
    if not 1 <= d_target < dim_target:
        raise GraphError("the construction needs 1 <= d_target < dim_target")
    if d_target == 1:
        return broom_tree(dim_target + 1)
    tree = broom_tree(dim_target - d_target + 2)
    stem = build_graph(tree.n + 1, [*tree.edges(), (0, tree.n)])
    return blow_up(stem, [complete_graph(1)] * tree.n + [complete_graph(d_target)])
