"""Twin classes, the twin quotient graph, and the connected-core convention.

Two vertices are twins when they have the same neighbours apart from one
another; a class of mutual twins induces either a clique (type "K") or an
independent set (type "N"), and singleton classes have type "1".  The
quotient keeps one vertex per class, with classes adjacent exactly when
their members are.  Each class's (size, type) label is stored once.

The partition is computed once per graph by :func:`twin_partition`, which
:func:`twin_graph` labels and contracts and ``metric_dimension`` reads alone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .graphs import Graph, _unchecked_graph, complement, is_connected


class TwinStructure(NamedTuple):
    """Twin classes, each class's (size, type) label, and the quotient graph.

    The labels are what every symmetry of G must keep on the quotient.
    """

    classes: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, str], ...]
    quotient: Graph


def twin_classes(g: Graph) -> list[list[int]]:
    """Maximal classes of mutual twins, in order of their least vertex."""
    return twin_classes_of_rows(g.adj)


@lru_cache(maxsize=65536)
def twin_partition(g: Graph) -> tuple[tuple[int, ...], ...]:
    """:func:`twin_classes` as tuples, computed once per graph for every reader."""
    return tuple(map(tuple, twin_classes_of_rows(g.adj)))


def twin_classes_of_rows(adj: Sequence[int]) -> list[list[int]]:
    """:func:`twin_classes` of the simple graph with adjacency rows ``adj``.

    Twins share either their open or their closed neighbourhood.  A vertex
    has no open twin and closed twin at once, and no open neighbourhood
    equals a closed one, so one pass keyed by both finds every class.
    """
    classes: list[list[int]] = []
    by_key: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        cls = by_key.get(row) or by_key.get(row | 1 << v) or []
        if not cls:
            classes.append(cls)
        cls.append(v)
        by_key[row] = by_key[row | 1 << v] = cls
    return classes


@lru_cache(maxsize=65536)
def twin_graph(g: Graph) -> TwinStructure:
    """Contract every twin class to one vertex and label each class with its
    size and type, in one pass over the classes."""
    classes = twin_partition(g)
    labels = tuple(
        (len(cls), "1" if len(cls) == 1 else "K" if g.adj[cls[0]] >> cls[1] & 1 else "N")
        for cls in classes
    )
    if len(classes) == g.n:  # all singletons, in vertex order, so g is its own quotient
        quotient = g
    else:
        # twin classes are modules, so a first member's row says which classes are adjacent
        firsts = [cls[0] for cls in classes]
        rows = tuple(sum(1 << c for c, u in enumerate(firsts) if g.adj[v] >> u & 1) for v in firsts)
        quotient = _unchecked_graph(len(classes), rows)
    return TwinStructure(classes, labels, quotient)


def core_graph(g: Graph) -> Graph:
    """The graph itself when connected, its complement otherwise.

    The complement of a disconnected graph is connected, so the result is
    always connected and metric computations apply to it directly.
    """
    return g if is_connected(g) else complement(g)
