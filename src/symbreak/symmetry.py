"""Symmetries read off the twin graph, distinguishing colorings, and the
resolving-set coloring that breaks every symmetry of a connected graph.

The search for D is decided on the twin graph G*, whose vertices are the
twin classes of G, each labelled by its size and type.  Every permutation
inside a twin class is an automorphism of G, every automorphism of G
permutes the classes as a label-preserving automorphism of G*, and every
such automorphism of G* lifts to G.  So a coloring distinguishes G exactly
when the vertices of each class get distinct colors and no nontrivial
labelled automorphism of G* maps the color set of every class onto the
color set of its image (Albertson & Collins, "Symmetry breaking in
graphs", EJC 3 (1996) R18), and the vertex orbits of Aut(G) are unions of
twin classes.  For the same reason two graphs are isomorphic exactly when
some isomorphism of their twin graphs keeps every label, which is how
:func:`symbreak.isomorphism.are_isomorphic` decides it.  Only that
labelled group is listed, never Aut(G) itself, by the same search
:func:`symbreak.isomorphism.isometries`, and it is sorted by support size.
The search for D checks each element once, when the last class it moves
gets its color set.

Checking one given coloring needs no group: :func:`is_distinguishing` runs
that search on G with the coloring as vertex colors and stops at the first
color-preserving automorphism other than the identity.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .graphs import DisconnectedError, Graph, GraphError, StepBudget, _bits, is_connected
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

    def __new__(cls, colors: Sequence[int], k: int) -> Coloring:
        if k < 1:
            raise GraphError("colorings need at least one color")
        colors = tuple(colors)
        if any(not 1 <= c <= k for c in colors):
            raise GraphError("vertex colors must lie in 1..k")
        return tuple.__new__(cls, (colors, k))


@lru_cache(maxsize=8192)
def class_symmetries(g: Graph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The nontrivial label-preserving automorphisms of the twin graph of
    ``g`` as ``(support, f)`` pairs, sorted by support size so that
    fail-fast scans meet small supports first: ``f`` maps class ``c`` (of
    ``twin_graph(g).classes``) to class ``f[c]``, and ``support`` lists the
    classes it moves in increasing order.

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
    return tuple(moved)


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

    One search for automorphisms of ``g`` that keep every vertex's color,
    started on the identity, stops at the first image that moves a vertex.
    No group is listed.

    Raises:
        OrderLimitError: when the search goes over its step budget.
    """
    if len(coloring.colors) != g.n:
        raise GraphError("coloring length does not match the graph order")
    identity = list(range(g.n))
    return not isometries(g, g, lambda image: image != identity, coloring.colors)


def distinguishing_number(g: Graph) -> int:
    """Least number of colors admitting a distinguishing coloring.

    ``k`` counts up from the largest twin class, and each class gets a set
    of distinct colors from 1..k.  Only the classes that some labelled
    automorphism of the twin graph moves can take part in a refutation, so
    only their sets vary, the first pinned to the lowest colors (renaming
    colors never changes whether a coloring distinguishes).  A depth-first
    search gives them their sets one class at a time, each set one step of
    the coloring budget, and cuts an assignment that some automorphism
    keeps as soon as the last class it moves gets its set.  So twin classes
    and classes fixed by every symmetry cost nothing.
    """
    if g.n == 0:
        raise GraphError("distinguishing number needs at least one vertex")
    sizes = [len(cls) for cls in twin_graph(g).classes]
    moved = class_symmetries(g)
    if not moved:  # only permutations inside classes are left to break
        return max(sizes)
    searched = sorted({c for support, _ in moved for c in support})
    # the automorphisms checked when class c gets its set: those whose support ends at c
    checked: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in sizes]
    for pair in moved:
        checked[pair[0][-1]].append(pair)
    color_sets = [(1 << size) - 1 for size in sizes]  # every class's lowest colors
    charge = StepBudget("coloring").charge

    def extend(depth: int, k: int) -> bool:
        if depth == len(searched):
            return True
        c = searched[depth]
        # the first class is pinned to its lowest colors
        for combo in itertools.combinations(range(k if depth else sizes[c]), sizes[c]):
            charge()
            color_sets[c] = sum(1 << color for color in combo)
            if _breaks_all(color_sets, checked[c]) and extend(depth + 1, k):
                return True
        return False

    return next(k for k in range(max(sizes), g.n + 1) if extend(0, k))


def d_may_reach(g: Graph, k: int) -> bool:
    """False only when ``D(g) < k`` is proven, in a few µs for most graphs.

    Every automorphism keeps degrees, so it maps each degree class onto
    itself; and if it maps every cell of a partition onto itself, it keeps
    each vertex's neighbour count in every cell, so it maps each part of
    that split onto itself too.  Hence every cell on the way from the
    degree classes to the coarsest equitable partition (McKay & Piperno,
    JSC 60 (2014)) is kept by Aut(G), and coloring each cell's vertices
    distinctly leaves only the identity: ``D(g)`` is at most the largest
    cell.  Refinement only splits cells, so it stops as soon as every cell
    has fewer than ``k`` vertices.
    """
    if k <= 1:  # no cell is smaller than one vertex, so refining proves nothing
        return True
    by_degree: defaultdict[int, int] = defaultdict(int)
    for v, row in enumerate(g.adj):
        by_degree[row.bit_count()] |= 1 << v
    cells = list(by_degree.values())
    while max((cell.bit_count() for cell in cells), default=0) >= k:
        split: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for i, cell in enumerate(cells):
            for v in _bits(cell):
                split[(i, *[(g.adj[v] & other).bit_count() for other in cells])] |= 1 << v
        if len(split) == len(cells):  # equitable: no cell splits any more
            return True
        cells = list(split.values())
    return False


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
