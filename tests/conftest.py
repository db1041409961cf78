"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from symbreak import Graph, build_graph
from symbreak.isomorphism import graph_from_pair_mask


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
