"""Symmetries read off the twin graph, distinguishing colorings, and the
resolving-set coloring that breaks every symmetry of a connected graph.

Every symmetry question is decided on the twin graph G*, whose vertices
are the twin classes of G, each labelled by its size and type.  Every
permutation inside a twin class is an automorphism of G, every
automorphism of G permutes the classes as a label-preserving automorphism
of G*, and every such automorphism of G* lifts to G.  So a coloring
distinguishes G exactly when the vertices of each class get distinct
colors and no nontrivial labelled automorphism of G* maps the color set of
every class onto the color set of its image (Albertson & Collins,
"Symmetry breaking in graphs", EJC 3 (1996) R18), and the vertex orbits of
Aut(G) are unions of twin classes.  For the same reason two graphs are
isomorphic exactly when some isomorphism of their twin graphs keeps every
label, which is how :func:`symbreak.isomorphism.are_isomorphic` decides
it.  Only that labelled group is listed, never Aut(G) itself, by the same
search :func:`symbreak.isomorphism.isometries`, and it is sorted by support
size so that a non-distinguishing coloring is usually refuted by one of its
first few elements.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .graphs import DisconnectedError, Graph, GraphError, StepBudget, is_connected
from .isomorphism import isometries
from .resolving import is_resolving
from .twins import twin_graph

class NotResolvingError(GraphError):
    """The supplied vertex set does not resolve the graph."""


class _ColoringFields(NamedTuple):
    colors: tuple[int, ...]
    k: int


class Coloring(_ColoringFields):
    """A vertex coloring with colors 1..k; surjectivity is not required."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], k: int) -> Coloring:
        if k < 1:
            raise GraphError("colorings need at least one color")
        if any(not 1 <= c <= k for c in colors):
            raise GraphError("vertex colors must lie in 1..k")
        return tuple.__new__(cls, (colors, k))


class ClassSymmetries(NamedTuple):
    """The twin classes of a graph, in order of their least vertex, and the
    nontrivial label-preserving automorphisms of its twin graph.

    Each element of ``moved`` is ``(support, f)``: ``f`` maps class ``c``
    to class ``f[c]`` and ``support`` lists the classes it moves.  They are
    sorted by support size, so fail-fast scans meet small supports first.
    """

    classes: tuple[tuple[int, ...], ...]
    moved: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@lru_cache(maxsize=8192)
def class_symmetries(g: Graph) -> ClassSymmetries:
    """List the label-preserving automorphisms of the twin graph of ``g``.

    Raises:
        OrderLimitError: when listing the group goes over its step budget.
    """
    structure = twin_graph(g)
    moved: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def keep(image: list[int]) -> None:
        support = tuple(c for c, d in enumerate(image) if c != d)
        if support:
            moved.append((support, tuple(image)))

    isometries(structure.quotient, structure.quotient, keep, structure.labels)
    moved.sort(key=lambda pair: (len(pair[0]), pair[1]))
    return ClassSymmetries(structure.classes, tuple(moved))


def is_almost_asymmetric(g: Graph) -> bool:
    """True when every automorphism maps each twin class onto itself, that
    is, when the twin graph has no nontrivial label-preserving automorphism.

    In that case the only symmetries left are permutations inside classes,
    so the distinguishing number equals the largest class size.

    Raises:
        OrderLimitError: as :func:`class_symmetries` does.
    """
    return not class_symmetries(g).moved


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Orbits of the automorphism group acting on the vertices.

    The orbit of a vertex is the union of the twin classes that the labelled
    group maps its class onto.

    Raises:
        OrderLimitError: as :func:`class_symmetries` does.
    """
    classes, moved = class_symmetries(g)
    images = [{c, *(f[c] for _, f in moved)} for c in range(len(classes))]
    orbits = {tuple(sorted(v for d in orbit for v in classes[d])) for orbit in images}
    return [list(orbit) for orbit in sorted(orbits)]


def _breaks_all(
    colors: Sequence[int], moved: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
) -> bool:
    for support, f in moved:
        for v in support:
            if colors[f[v]] != colors[v]:
                break
        else:
            return False
    return True


def is_distinguishing(g: Graph, coloring: Coloring) -> bool:
    """True when no non-identity automorphism preserves every color.

    That holds exactly when no two vertices of a twin class share a color
    and no nontrivial labelled automorphism of the twin graph maps each
    class's color set onto that of its image.
    """
    if len(coloring.colors) != g.n:
        raise GraphError("coloring length does not match the graph order")
    symmetries = class_symmetries(g)
    color_sets = []
    for cls in symmetries.classes:
        color_set = 0
        for v in cls:
            bit = 1 << coloring.colors[v]
            if color_set & bit:
                return False
            color_set |= bit
        color_sets.append(color_set)
    return _breaks_all(color_sets, symmetries.moved)


def distinguishing_number(g: Graph) -> int:
    """Least number of colors admitting a distinguishing coloring.

    ``k`` counts up from the largest twin class.  Each class gets a set of
    distinct colors from 1..k rather than a color per vertex, and an
    assignment is refuted by any labelled automorphism of the twin graph
    that maps every class's color set onto that of its image.  Only the
    classes that some labelled automorphism moves can take part in a
    refutation, so only their color sets vary, the first of them pinned to
    the lowest colors (renaming colors never changes whether a coloring
    distinguishes).  The twin classes of G and the classes fixed by every
    symmetry thus cost nothing, and the rest costs what a search over
    colorings of the moved classes costs.
    """
    if g.n == 0:
        raise GraphError("distinguishing number needs at least one vertex")
    symmetries = class_symmetries(g)
    sizes = [len(cls) for cls in symmetries.classes]
    # only these classes vary; every other one keeps its lowest colors
    varied = sorted({c for support, _ in symmetries.moved for c in support})[1:]
    charge = StepBudget("coloring").charge
    for k in range(max(sizes), g.n + 1):
        palettes = [range(k if d in varied else size) for d, size in enumerate(sizes)]
        choices = [
            [sum(1 << c for c in combo) for combo in itertools.combinations(palette, size)]
            for palette, size in zip(palettes, sizes)
        ]
        for color_sets in itertools.product(*choices):
            charge()
            if _breaks_all(color_sets, symmetries.moved):
                return k
    raise AssertionError("an all-distinct coloring always distinguishes")


def coloring_from_resolving_set(g: Graph, landmarks: Iterable[int]) -> Coloring:
    """Color a resolving set with distinct colors and the rest uniformly.

    Landmark i (in ascending vertex order) receives color i+1 and every
    other vertex color ``len(S) + 1``.  Any color-preserving automorphism
    would fix all landmarks pointwise and, being an isometry, could not move
    anything else either, so the result always distinguishes.

    Raises:
        DisconnectedError: on disconnected input.
        GraphError: on a landmark outside ``0..n-1``.
        NotResolvingError: when the vertex set does not resolve the graph,
            since the guarantee only holds for resolving sets.
    """
    if not is_connected(g):
        raise DisconnectedError("the coloring construction needs a connected graph")
    ordered = sorted(set(landmarks))
    if not is_resolving(g, ordered):
        raise NotResolvingError(f"{ordered} does not resolve the graph")
    rest_color = len(ordered) + 1
    colors = [rest_color] * g.n
    for index, v in enumerate(ordered):
        colors[v] = index + 1
    return Coloring(tuple(colors), rest_color)
