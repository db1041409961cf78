"""Resolving sets and exact metric dimension."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import (
    DisconnectedError,
    GraphError,
    OrderLimitError,
    blow_up,
    broom_tree,
    build_graph,
    complement,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    diameter,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    is_connected,
    is_resolving,
    metric_dimension,
    path_graph,
)
from symbreak import resolving, twins
from symbreak.twins import twin_classes

from conftest import graphs, layer_distances
from oracles import naive_distances, naive_metric_dimension, tree_metric_dimension


class TestIsResolving:
    def test_path_endpoint_resolves(self):
        assert is_resolving(path_graph(4), [0])

    @pytest.mark.parametrize("landmarks, named", [([-1], -1), ([5], 5), ([0, 3, 4], 3)])
    def test_rejects_landmarks_outside_the_graph(self, landmarks, named):
        with pytest.raises(GraphError, match=rf"landmark {named} is outside 0\.\.2"):
            is_resolving(path_graph(3), landmarks)

    def test_single_vertex_does_not_resolve_c4(self):
        assert not is_resolving(cycle_graph(4), [0])

    def test_k4_two_sets_fail_three_sets_work(self):
        k4 = complete_graph(4)
        for pair in itertools.combinations(range(4), 2):
            assert not is_resolving(k4, pair)
        for triple in itertools.combinations(range(4), 3):
            assert is_resolving(k4, triple)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            is_resolving(disjoint_union(complete_graph(2), complete_graph(2)), [0])


class TestMetricDimension:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graphs(self, n):
        assert metric_dimension(complete_graph(n)).dim == n - 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_broom_trees(self, m):
        tree = broom_tree(m + 1)
        witness = metric_dimension(tree)
        assert witness.dim == m
        root_neighbors = set(tree.neighbors(0))
        assert set(witness.witness) <= root_neighbors

    def test_paths_have_dimension_one(self):
        for n in range(2, 9):
            assert metric_dimension(path_graph(n)).dim == 1

    def test_single_vertex_has_dimension_zero(self):
        witness = metric_dimension(complete_graph(1))
        assert witness.dim == 0 and witness.witness == ()

    def test_cycles_have_dimension_two(self):
        for n in range(3, 8):
            assert metric_dimension(cycle_graph(n)).dim == 2

    def test_witness_is_resolving_and_minimal(self):
        for g in enumerate_graphs(5, connected_only=True):
            witness = metric_dimension(g)
            assert is_resolving(g, witness.witness)
            if witness.dim:
                for smaller in itertools.combinations(range(g.n), witness.dim - 1):
                    assert not is_resolving(g, smaller)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            metric_dimension(disjoint_union(complete_graph(1), complete_graph(2)))

    def test_hitting_set_budget(self, monkeypatch):
        # a step is a node of the hitting-set search; the complement of C20
        # has dimension 8 after 1,608 of them
        g = complement(cycle_graph(20))
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", 1_608)
        assert metric_dimension.__wrapped__(g).dim == 8
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", 1_607)
        with pytest.raises(OrderLimitError, match="hitting-set search over its 1,607-step budget"):
            metric_dimension.__wrapped__(g)


class TestPrunedSearchAgainstNaive:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_naive_enumeration(self, n):
        for g in enumerate_graphs(n, connected_only=True):
            assert metric_dimension(g).dim == naive_metric_dimension(g)[0]

    def test_witness_respects_twin_classes(self):
        for g in enumerate_graphs(5, connected_only=True):
            witness = set(metric_dimension(g).witness)
            for cls in twin_classes(g):
                assert len(set(cls) - witness) <= 1

    def test_reads_the_twin_partition_without_the_twin_graph(self, monkeypatch):
        graphs = [
            complete_graph(6),
            complete_multipartite_graph(1, 5),
            complete_multipartite_graph(3, 3, 2),
            blow_up(path_graph(4), [complete_graph(3), empty_graph(2), complete_graph(1), empty_graph(3)]),
            blow_up(cycle_graph(5), [empty_graph(2), complete_graph(2), empty_graph(1), complete_graph(3),
                                     empty_graph(2)]),
        ]
        expected = [metric_dimension.__wrapped__(g) for g in graphs]

        def refused(g):
            raise AssertionError("metric_dimension built the twin graph")

        for module in (twins, resolving):
            monkeypatch.setattr(module, "twin_graph", refused, raising=False)
        assert [metric_dimension.__wrapped__(g) for g in graphs] == expected
        assert all(len(twin_classes(g)) < g.n for g in graphs)


@st.composite
def connected_gnp(draw):
    """A G(n, p) graph of order 7 or 8 over a spread of densities, or its
    complement when it is disconnected, so that every draw is connected."""
    n = draw(st.integers(min_value=7, max_value=8))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = build_graph(n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p])
    return g if is_connected(g) else complement(g)


@given(connected_gnp())
@settings(max_examples=120, deadline=None)
def test_gnp_witness_resolves_and_no_smaller_set_does(g):
    found = metric_dimension(g)
    assert len(found.witness) == found.dim and is_resolving(g, found.witness)
    # the oracle takes the first resolving set in order of size
    assert found.dim == naive_metric_dimension(g)[0]


@given(graphs(min_n=1, max_n=6))
@settings(max_examples=80, deadline=None)
def test_full_vertex_set_resolves_and_supersets_stay_resolving(g):
    if not is_connected(g):
        return
    assert is_resolving(g, range(g.n))
    witness = metric_dimension(g).witness
    assert is_resolving(g, set(witness) | {0})


@st.composite
def sparse_or_dense_graphs(draw, max_n: int = 40):
    """G(n, p) graphs over a spread of densities, some laid over a path or a
    random recursive tree, so that both disconnected graphs and connected
    ones of large diameter occur."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 0.7]))
    backbone = draw(st.sampled_from(["none", "path", "tree"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    if backbone != "none":
        edges += [(v, v - 1 if backbone == "path" else rng.randrange(v)) for v in range(1, n)]
    return build_graph(n, edges)


@given(sparse_or_dense_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_distance_answers_agree_with_floyd_warshall(g, data):
    dist = naive_distances(g)
    assert layer_distances(g) == dist
    if math.inf in dist[0]:
        assert not is_connected(g)
        with pytest.raises(DisconnectedError):
            diameter(g)
        with pytest.raises(DisconnectedError):
            is_resolving(g, [0])
        return
    assert is_connected(g) and diameter(g) == max(map(max, dist))
    # every landmark pair on small graphs, so that resolving by far layers shows
    sets = list(itertools.combinations(range(g.n), 1 if g.n > 16 else 2))
    vertices = st.integers(min_value=0, max_value=g.n - 1)
    sets += [data.draw(st.sets(vertices, max_size=size)) for size in (2, 4, g.n)]
    for landmarks in sets:
        vectors = {tuple(row[s] for s in sorted(landmarks)) for row in dist}
        assert is_resolving(g, landmarks) == (len(vectors) == g.n), sorted(landmarks)
    if g.n <= 9:
        found = metric_dimension(g)
        assert found.dim == naive_metric_dimension(g)[0]
        assert len({tuple(row[s] for s in found.witness) for row in dist}) == g.n


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=80, deadline=None)
def test_dimension_bounds(g):
    if not is_connected(g):
        return
    dim = metric_dimension(g).dim
    assert 1 <= dim <= g.n - diameter(g)


def _pruefer_edges(n: int, code: list[int]) -> list[tuple[int, int]]:
    """The edges of the labelled tree on ``n >= 2`` vertices with Pruefer code ``code``."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return edges


@st.composite
def pruefer_trees(draw, max_n: int = 64):
    n = draw(st.integers(min_value=2, max_value=max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return build_graph(n, _pruefer_edges(n, code))


class TestTreesAgainstTheLegFormula:
    @given(pruefer_trees())
    @settings(max_examples=150, deadline=None)
    def test_random_trees_up_to_64_vertices(self, tree):
        witness = metric_dimension(tree)
        assert witness.dim == tree_metric_dimension(tree)
        assert is_resolving(tree, witness.witness)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_formula_matches_naive_enumeration_on_small_trees(self, n):
        for g in enumerate_graphs(n, connected_only=True):
            if g.edge_count == n - 1:
                assert tree_metric_dimension(g) == naive_metric_dimension(g)[0]
