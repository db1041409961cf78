"""Twin classes, the quotient graph, almost asymmetry, and the core graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import (
    are_isomorphic,
    blow_up,
    broom_tree,
    complement,
    complete_graph,
    complete_multipartite_graph,
    core_graph,
    cycle_graph,
    disjoint_union,
    distinguishing_number,
    empty_graph,
    enumerate_graphs,
    is_connected,
    join,
    path_graph,
    twin_classes,
    twin_graph,
)
from symbreak.graphs import FamilySpec, construct_family
from symbreak.isomorphism import graph_from_pair_mask
from symbreak.symmetry import class_symmetries

from conftest import graphs, relabel
from oracles import are_twins


def pairwise_twin_classes(g):
    """Twin classes by testing each vertex against one member of each class
    found so far, with the oracle :func:`are_twins`."""
    classes = []
    for v in range(g.n):
        for cls in classes:
            if are_twins(g, cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


@st.composite
def relabelled_blow_ups(draw):
    """A random graph of order up to 8 with each vertex blown up to a part
    of up to 8 vertices, relabelled so that classes interleave."""
    h = draw(graphs(min_n=1, max_n=8))
    kinds = st.sampled_from([complete_graph, empty_graph])
    parts = draw(st.lists(st.builds(lambda kind, size: kind(size), kinds, st.integers(1, 8)),
                          min_size=h.n, max_size=h.n))
    g = blow_up(h, parts)
    return relabel(g, tuple(draw(st.permutations(range(g.n)))))


class TestTwinClasses:
    def test_complete_bipartite_sides(self):
        classes = twin_classes(complete_multipartite_graph(2, 3))
        assert classes == [[0, 1], [2, 3, 4]]

    def test_p4_has_only_singletons(self):
        assert twin_classes(path_graph(4)) == [[0], [1], [2], [3]]

    def test_k4_is_one_class(self):
        assert twin_classes(complete_graph(4)) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("n", range(7))
    def test_classes_are_maximal_sets_of_mutual_twins(self, n):
        for g in enumerate_graphs(n):
            classes = twin_classes(g)
            assert sorted(v for cls in classes for v in cls) == list(range(n))
            class_of = {v: index for index, cls in enumerate(classes) for v in cls}
            for u in range(n):
                for v in range(u + 1, n):
                    assert are_twins(g, u, v) == (class_of[u] == class_of[v])

    @pytest.mark.parametrize("n", range(6))
    def test_one_pass_equals_pairwise_grouping_on_every_labelled_graph(self, n):
        # same classes, in order of least vertex, members in increasing order
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_pair_mask(n, mask)
            assert twin_classes(g) == pairwise_twin_classes(g), mask

    @given(relabelled_blow_ups())
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_pairwise_grouping_on_blow_ups(self, g):
        assert twin_classes(g) == pairwise_twin_classes(g)


class TestTwinGraph:
    def test_unbalanced_bipartite_quotient_is_an_edge(self):
        structure = twin_graph(complete_multipartite_graph(2, 3))
        assert structure.quotient.n == 2
        assert structure.quotient.edge_count == 1
        assert structure.labels == ((2, "N"), (3, "N"))

    def test_apex_over_clique_plus_isolated(self):
        # one vertex joined to (K_t plus one isolated vertex), t = 3
        k1, k3 = FamilySpec("complete", (1,)), FamilySpec("complete", (3,))
        spec = FamilySpec("join", parts=(k1, FamilySpec("union", parts=(k3, k1))))
        structure = twin_graph(construct_family(spec))
        assert structure.quotient.n == 3
        assert sorted(structure.labels) == [(1, "1"), (1, "1"), (3, "K")]

    def test_asymmetric_graph_has_trivial_structure(self):
        g = broom_tree(3)
        # uncached, since the cache may hold an equal graph built earlier
        structure = twin_graph.__wrapped__(g)
        assert structure.quotient is g
        assert structure.labels == ((1, "1"),) * g.n
        # a graph with twins gets its own, smaller quotient
        blown = blow_up(g, [complete_graph(2)] + [empty_graph(1)] * (g.n - 1))
        assert twin_graph.__wrapped__(blown).quotient is not blown
        assert twin_graph(blown).quotient == g

    def test_diamond_types(self):
        structure = twin_graph(join(complete_graph(2), complement(complete_graph(2))))
        assert sorted(structure.labels) == [(2, "K"), (2, "N")]

    @pytest.mark.parametrize("n", range(7))
    def test_labels_are_class_sizes_and_types_read_off_adjacency(self, n):
        for g in enumerate_graphs(n):
            labels = []
            for cls in twin_graph(g).classes:
                pairs = [g.has_edge(u, v) for i, u in enumerate(cls) for v in cls[i + 1 :]]
                kind = "1" if not pairs else "K" if all(pairs) else "N" if not any(pairs) else "?"
                labels.append((len(cls), kind))
            assert twin_graph(g).labels == tuple(labels)


class TestAlmostAsymmetric:
    def test_c4_rotation_crosses_classes(self):
        assert class_symmetries(cycle_graph(4))

    def test_k23_is_almost_asymmetric_with_d_three(self):
        g = complete_multipartite_graph(2, 3)
        assert not class_symmetries(g)
        assert distinguishing_number(g) == 3
        assert max(size for size, _ in twin_graph(g).labels) == 3

    def test_p4_endpoint_swap_crosses_singletons(self):
        assert class_symmetries(path_graph(4))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rule_on_all_small_graphs(self, n):
        for g in enumerate_graphs(n):
            if not class_symmetries(g):
                assert distinguishing_number(g) == max(size for size, _ in twin_graph(g).labels)


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_blow_up_of_quotient_recovers_graph(self, n):
        for g in enumerate_graphs(n):
            structure = twin_graph(g)
            parts = [(complete_graph if t == "K" else empty_graph)(size) for size, t in structure.labels]
            rebuilt = blow_up(structure.quotient, parts)
            assert are_isomorphic(rebuilt, g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_size_bookkeeping(self, n):
        for g in enumerate_graphs(n):
            structure = twin_graph(g)
            sizes = [len(cls) for cls in structure.classes]
            assert sum(sizes) == g.n
            # whenever D equals some class size, the remaining sizes sum to n - D
            d = distinguishing_number(g)
            for i, size in enumerate(sizes):
                if d == size:
                    rest = sum(sizes) - size
                    for m in range(1, g.n + 1):
                        if rest != m:
                            assert d != g.n - m


class TestCoreGraph:
    def test_disconnected_pairs_to_complement(self):
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        assert are_isomorphic(core_graph(two_k2), cycle_graph(4))

    def test_connected_graphs_pass_through(self):
        assert core_graph(cycle_graph(5)) == cycle_graph(5)

    def test_clique_plus_isolated_becomes_a_star(self):
        g = disjoint_union(complete_graph(3), complete_graph(1))
        assert are_isomorphic(core_graph(g), complete_multipartite_graph(3, 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_core_is_always_connected(self, n):
        for g in enumerate_graphs(n):
            assert is_connected(core_graph(g))
