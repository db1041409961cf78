"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from symbreak import Graph, build_graph
from symbreak.isomorphism import _min_row_major_value, graph_from_pair_mask
from symbreak.symmetry import class_symmetries
from symbreak.twins import twin_graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    num_pairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << num_pairs) - 1))
    return graph_from_pair_mask(n, mask)


@st.composite
def graphs_with_permutation(draw, min_n: int = 1, max_n: int = 6):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    perm = draw(st.permutations(list(range(g.n))))
    return g, tuple(perm)


def canonical_value(g: Graph) -> int:
    """The least row-major pair mask of ``g`` over all relabelings, from
    the canonical search that enumeration deduplicates with."""
    return _min_row_major_value(g.adj)


def layer_distances(g: Graph) -> list[list[float]]:
    """All-pairs hop distances read off ``g``'s breadth-first layer table,
    ``math.inf`` across components."""
    return [
        [next((d for d, layer in enumerate(layers) if layer >> v & 1), math.inf) for v in range(g.n)]
        for layers in g._layers
    ]


def vertex_orbits(g: Graph) -> list[list[int]]:
    """The orbits of Aut(G) on the vertices, read off the labelled twin-graph
    group: a vertex's orbit is the union of the twin classes that
    ``class_symmetries`` maps its class onto."""
    classes, moved = twin_graph(g).classes, class_symmetries(g)
    images = [{c, *(f[c] for _, f in moved)} for c in range(len(classes))]
    orbits = {tuple(sorted(v for d in orbit for v in classes[d])) for orbit in images}
    return [list(orbit) for orbit in sorted(orbits)]


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """The graph with vertex v renamed to perm[v]."""
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return build_graph(g.n, edges)


@pytest.fixture
def order7_path() -> str:
    import os

    return os.path.join(os.path.dirname(__file__), "data", "order7.g6")


@pytest.fixture
def errata_withheld(monkeypatch):
    """The catalogs built from the paper's rows alone: ``catalog.ERRATA``
    emptied."""
    from symbreak import catalog

    monkeypatch.setattr(catalog, "ERRATA", {})


def _data_graphs(name: str) -> list[Graph]:
    import os

    from symbreak import load_graph6_file

    return load_graph6_file(os.path.join(os.path.dirname(__file__), "data", name))


@pytest.fixture(scope="session")
def order7_classes() -> list[Graph]:
    """One graph per isomorphism class of order 7, from ``order7_classes.g6``."""
    return _data_graphs("order7_classes.g6")


@pytest.fixture(scope="session")
def order8_classes() -> list[Graph]:
    """One graph per isomorphism class of order 8, from ``order8_classes.g6``,
    written from ``isomorphism._canonical_masks(8)``."""
    return _data_graphs("order8_classes.g6")


@pytest.fixture(scope="session")
def order9_high_d() -> list[Graph]:
    """The 184 isomorphism classes of order 9 with D >= 5, from
    ``order9_high_d.g6``: every class of ``isomorphism._canonical_masks(9)``
    whose ``distinguishing_number`` is at least 5, in increasing mask order,
    written once by scanning all 274,668 classes."""
    return _data_graphs("order9_high_d.g6")
