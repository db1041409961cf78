"""Graph construction, algebra, families, and distances."""

import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import (
    FamilySpec,
    Graph,
    GraphError,
    are_isomorphic,
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
    distinguishing_number,
    empty_graph,
    enumerate_graphs,
    house_graph,
    is_connected,
    join,
    metric_dimension,
    parse_graph6,
    path_graph,
    twin_graph,
    write_graph6,
)
from symbreak.graphs import DisconnectedError
from symbreak.isomorphism import graph_from_pair_mask
from symbreak.symmetry import Coloring

from conftest import graphs, layer_distances
from oracles import edge_list_quotient, naive_distances, pair_mask, substitution_by_edges


@st.composite
def substitutions(draw):
    """A base graph of order 1 to 6 and one part graph of order 1 to 4 per base vertex."""
    base = draw(graphs(min_n=1, max_n=6))
    return base, draw(st.lists(graphs(min_n=1, max_n=4), min_size=base.n, max_size=base.n))


class TestBuildGraph:
    def test_path_p4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.degree_sequence() == (1, 1, 2, 2)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edge_count == 0

    def test_cycle_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degree_sequence() == (2, 2, 2, 2)
        assert is_connected(g)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            build_graph(3, [(1, 1)])

    def test_rejects_order_above_cap(self):
        with pytest.raises(GraphError):
            build_graph(65, [])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))


K2, E1 = FamilySpec("complete", (2,)), FamilySpec("empty", (1,))


class TestValueObjects:
    """Graph, FamilySpec and Coloring are immutable, hashable
    and picklable tuples; the validated ones reject bad input by name."""

    VALUES = [
        (lambda: build_graph(3, [(0, 1), (1, 2)]), "n", 4),
        (lambda: FamilySpec("union", parts=(FamilySpec("complete", (2,)),)), "kind", "join"),
        (lambda: Coloring((1, 2, 1), 2), "k", 3),
    ]

    @pytest.mark.parametrize("make, field, other", VALUES)
    def test_fields_cannot_be_assigned(self, make, field, other):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        assert value == make()

    @pytest.mark.parametrize("make, field, other", VALUES)
    def test_equal_values_hash_equally(self, make, field, other):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    @pytest.mark.parametrize("make, field, other", VALUES)
    def test_pickle_round_trip(self, make, field, other):
        value = make()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)

    def test_lists_are_stored_as_tuples(self):
        # a stored list would leave the value unhashable, and every cached solver would raise
        g, coloring = Graph(2, [0b10, 0b01]), Coloring([1, 2], 2)
        parts = [FamilySpec("path", [2]), FamilySpec("complete", [2]), FamilySpec("empty", [1])]
        spec = FamilySpec("blow_up", parts=parts)
        same = FamilySpec("blow_up", parts=(FamilySpec("path", (2,)), K2, E1))
        assert type(g.adj) is type(coloring.colors) is tuple
        assert g == complete_graph(2) and hash(g) == hash(complete_graph(2))
        assert coloring == Coloring((1, 2), 2) and hash(coloring) == hash(Coloring((1, 2), 2))
        assert spec == same and hash(spec) == hash(same)
        assert twin_graph(g).classes == ((0, 1),)
        assert distinguishing_number(g) == 2
        assert metric_dimension(g).dim == 1

    def test_pickle_keeps_a_cached_degree_sequence(self):
        g = cycle_graph(5)
        assert g.degree_sequence() == (2, 2, 2, 2, 2)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.adj == g.adj
        assert copy.degree_sequence() == (2, 2, 2, 2, 2)
        assert vars(copy) == vars(g)

    def test_unpickling_skips_the_constructor(self, monkeypatch):
        g = cycle_graph(5)
        data = pickle.dumps(g)

        def refuse(cls, *args):
            raise AssertionError("Graph.__new__ ran while unpickling")

        monkeypatch.setattr(Graph, "__new__", refuse)
        copy = pickle.loads(data)
        assert type(copy) is Graph and copy == g and vars(copy) == {}

    def test_a_graph_is_the_tuple_of_its_order_and_rows(self):
        g = build_graph(2, [(0, 1)])
        assert len(g) == 2 and g == (2, (0b10, 0b01))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Graph(65, (0,) * 65), "order must be between 0 and 64, got 65"),
            (lambda: Graph(2, (0b10,)), "number of adjacency rows does not match the order"),
            (lambda: Graph(2, (0b100, 0)), "row 0 mentions vertices outside 0..1"),
            (lambda: Graph(2, (0, 0b10)), "self-loop at vertex 1"),
            (lambda: Graph(3, (0b110, 0b001, 0b000)), "edge 0-2 is not symmetric"),
            (lambda: Graph(3, (0b000, 0b100, 0b000)), "edge 1-2 is not symmetric"),
            (lambda: FamilySpec("wheel", (5,)), "unknown family kind 'wheel'"),
            (lambda: Coloring((1, 1), 0), "colorings need at least one color"),
            (lambda: Coloring((1, 3), 2), "vertex colors must lie in 1..k"),
            # a spec of another shape builds a graph of another order than
            # family_degrees gives it: ~(K2,E1) would have 2 vertices, 3 degrees
            (lambda: FamilySpec("complement", parts=(K2, E1)), "complement needs exactly one part, got 2"),
            (lambda: FamilySpec("complement"), "complement needs exactly one part, got 0"),
            (lambda: FamilySpec("blow_up"), "blow_up needs at least one part"),
            (lambda: FamilySpec("blow_up", parts=(K2,)), "blow_up needs 2 pieces, one per base vertex, got 0"),
            (lambda: FamilySpec("union"), "union needs at least one part"),
            (lambda: FamilySpec("complete"), "K needs one parameter"),
            (lambda: FamilySpec("path", (3, 4)), "P needs one parameter"),
            (lambda: FamilySpec("house", (5,)), "C5' needs no parameters"),
            (lambda: FamilySpec("complete_multipartite", (3,)), "K(...) needs at least two parameters"),
            (lambda: FamilySpec("path", (3,), parts=(K2,)), "path is a leaf and has no parts, got 1"),
            (lambda: FamilySpec("union", parts=("K3",)), "union parts must be FamilySpecs, got 'K3'"),
            (lambda: FamilySpec("blow_up", parts=(K2, (1, "complete"), E1)),
             "blow_up parts must be FamilySpecs, got (1, 'complete')"),
            (lambda: FamilySpec("blow_up", parts=(FamilySpec("path", (4,)), E1)),
             "blow_up needs 4 pieces, one per base vertex, got 1"),
            (lambda: FamilySpec("join"), "join needs at least one part"),
            (lambda: distinguishing_number(Graph(0, ())), "distinguishing number needs at least one vertex"),
            (lambda: metric_dimension(Graph(0, ())), "metric dimension needs at least one vertex"),
            (lambda: join(complete_graph(40), empty_graph(25)), "order must be between 0 and 64, got 65"),
            (lambda: blow_up(complete_graph(2), [complete_graph(40), empty_graph(25)]),
             "order must be between 0 and 64, got 65"),
            (lambda: complete_multipartite_graph(3), "complete multipartite graphs need at least two parts"),
        ],
    )
    def test_invalid_input_messages(self, make, message):
        with pytest.raises(GraphError) as err:
            make()
        assert str(err.value) == message


class TestAlgebra:
    def test_complement_of_complete_is_empty(self):
        assert complement(complete_graph(4)).edge_count == 0

    def test_c5_is_self_complementary(self):
        c5 = cycle_graph(5)
        assert are_isomorphic(c5, complement(c5))

    def test_complement_of_2k2_is_c4(self):
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        assert are_isomorphic(complement(two_k2), cycle_graph(4))

    def test_union_k2_k2(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert g.n == 4 and g.edges() == [(0, 1), (2, 3)]

    def test_union_k3_k1_has_isolated_vertex(self):
        g = disjoint_union(complete_graph(3), complete_graph(1))
        assert g.degree(3) == 0 and g.n == 4

    def test_union_of_singletons_is_empty(self):
        g = disjoint_union(complete_graph(1), complete_graph(1))
        assert g.edge_count == 0 and g.n == 2

    def test_join_k1_p4_order(self):
        g = join(complete_graph(1), path_graph(4))
        assert g.n == 5 and g.degree(0) == 4

    def test_join_of_empty_parts_is_complete_bipartite(self):
        g = join(empty_graph(2), empty_graph(2))
        assert are_isomorphic(g, cycle_graph(4))
        assert are_isomorphic(g, complete_multipartite_graph(2, 2))

    def test_join_k2_empty2_is_k4_minus_edge(self):
        g = join(complete_graph(2), empty_graph(2))
        assert g.edge_count == 5 and g.n == 4
        assert not g.has_edge(2, 3)

    def test_union_order_overflow(self):
        with pytest.raises(GraphError):
            disjoint_union(empty_graph(40), empty_graph(40))


class TestBlowUp:
    def test_unit_blow_up_is_identity(self):
        p4 = path_graph(4)
        assert blow_up(p4, [complete_graph(1)] * 4) == p4

    def test_path_with_doubled_inner_vertex(self):
        k1 = complete_graph(1)
        g = blow_up(path_graph(4), [k1, complete_graph(2), k1, k1])
        assert g.n == 5
        # the doubled part is a clique pair adjacent to both path neighbours
        assert g.has_edge(1, 2)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 3) and g.has_edge(2, 3)

    def test_path_with_independent_end_pair(self):
        k1 = complete_graph(1)
        g = blow_up(path_graph(4), [empty_graph(2), k1, k1, k1])
        assert g.n == 5
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 2) and g.has_edge(1, 2)

    def test_arity_mismatch(self):
        with pytest.raises(GraphError):
            blow_up(path_graph(4), [(1, "complete")] * 3)

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=60)
    def test_unit_blow_up_identity_property(self, g):
        assert blow_up(g, [empty_graph(1)] * g.n) == g

    @given(substitutions())
    @settings(max_examples=150)
    def test_substitution_equals_the_edge_list_oracle(self, base_and_parts):
        # equal graphs, not just isomorphic ones: the vertex order is pinned too
        base, parts = base_and_parts
        assert blow_up(base, parts) == substitution_by_edges(base, parts)

    @pytest.mark.parametrize("kind, fold", [("union", disjoint_union), ("join", join)])
    def test_a_three_part_spec_is_the_pairwise_fold(self, kind, fold):
        rng = random.Random(kind)
        for _ in range(20):
            leaves = [FamilySpec(rng.choice(["complete", "empty", "path", "cycle"]), (rng.randint(3, 6),))
                      for _ in range(3)]
            first, second, third = map(construct_family, leaves)
            assert construct_family(FamilySpec(kind, parts=leaves)) == fold(fold(first, second), third)


class TestFamilies:
    def test_broom_tree_structure(self):
        for k in range(3, 7):
            tree = broom_tree(k)
            assert tree.n == 1 + k * (k + 1) // 2
            assert tree.degree(0) == k
            leaves = [v for v in range(tree.n) if tree.degree(v) == 1]
            assert len(leaves) == k
            dist = naive_distances(tree)
            assert sorted(dist[0][leaf] for leaf in leaves) == list(range(1, k + 1))
            assert all(tree.degree(v) in (1, 2) for v in range(1, tree.n))

    def test_broom_tree_rejects_small_k(self):
        with pytest.raises(GraphError):
            broom_tree(2)

    @pytest.mark.parametrize(
        "build, argument",
        [
            (complete_graph, 10**8),
            (path_graph, 10**8),
            (cycle_graph, 10**8),
            (broom_tree, 10**5),
            (broom_tree, 11),  # 67 vertices, one leg past the cap
        ],
    )
    def test_oversized_families_are_refused_before_any_edge_is_built(self, build, argument):
        # complete_graph(10**8) would need about 5 * 10**15 edges
        start = time.process_time()
        with pytest.raises(GraphError, match="order must be between 0 and 64"):
            build(argument)
        assert time.process_time() - start < 0.1

    def test_complete_bipartite_3_3(self):
        g = complete_multipartite_graph(3, 3)
        assert g.n == 6 and g.edge_count == 9
        assert g.degree_sequence() == (3,) * 6

    def test_house_is_chorded_5_cycle(self):
        g = house_graph()
        assert g.n == 5 and g.edge_count == 6
        assert g.degree_sequence() == (2, 2, 2, 3, 3)
        assert diameter(g) == 2

    def test_bull_is_a_self_complementary_triangle_with_two_pendants(self):
        g = bull_graph()
        assert g.n == 5 and g.edge_count == 5
        assert g.degree_sequence() == (1, 1, 2, 3, 3)
        assert are_isomorphic(complement(g), g)
        assert construct_family(FamilySpec("bull")) == g

    def test_construct_family_tree_expressions(self):
        k1, k2 = FamilySpec("complete", (1,)), FamilySpec("complete", (2,))
        spec = FamilySpec("join", parts=(k1, FamilySpec("union", parts=(k2, k1))))
        g = construct_family(spec)
        assert g.n == 4 and g.degree(0) == 3

    def test_construct_family_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            construct_family(FamilySpec("cycle", (2,)))
        with pytest.raises(GraphError):
            construct_family(FamilySpec("broom_tree", (1,)))


class TestDistances:
    def test_p4_end_to_end_distance(self):
        dist = layer_distances(path_graph(4))
        assert dist[0][3] == 3

    def test_cross_component_distance_is_infinite(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        dist = layer_distances(g)
        assert dist[0][2] == math.inf

    def test_c5_distances(self):
        dist = layer_distances(cycle_graph(5))
        off_diagonal = {dist[u][v] for u in range(5) for v in range(5) if u != v}
        assert off_diagonal == {1, 2}
        assert diameter(cycle_graph(5)) == 2

    def test_diameter_values(self):
        assert diameter(complete_graph(5)) == 1
        assert diameter(path_graph(5)) == 4

    def test_diameter_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            diameter(disjoint_union(complete_graph(2), complete_graph(2)))

    def test_connectivity(self):
        assert is_connected(path_graph(6))
        assert not is_connected(disjoint_union(complete_graph(1), complete_graph(3)))
        assert is_connected(complete_graph(1))

    def test_connectivity_leaves_the_distances_unbuilt(self):
        g = disjoint_union(path_graph(3), cycle_graph(4))
        assert not is_connected(g) and is_connected(cycle_graph(64))
        assert "_distance_matrix" not in vars(g)
        assert "_layers" not in vars(g)
        assert len(g._layers) == g.n
        assert "_layers" in vars(g)


@given(graphs(max_n=7))
@settings(max_examples=80)
def test_connected_exactly_when_vertex_0_reaches_every_vertex(g):
    assert is_connected(g) == (g.n == 0 or math.inf not in naive_distances(g)[0])


@given(graphs(max_n=7))
@settings(max_examples=80)
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(graphs(min_n=0, max_n=4), graphs(min_n=0, max_n=4))
@settings(max_examples=60)
def test_join_is_complement_of_union_of_complements(g, h):
    direct = join(g, h)
    dual = complement(disjoint_union(complement(g), complement(h)))
    assert direct == dual


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60)
def test_distance_matrix_shape_properties(g):
    dist = layer_distances(g)
    n = g.n
    for u in range(n):
        assert dist[u][u] == 0
        for v in range(n):
            assert dist[u][v] == dist[v][u]
            for w in range(n):
                if dist[u][v] < math.inf and dist[v][w] < math.inf:
                    assert dist[u][w] <= dist[u][v] + dist[v][w]


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) through the checked constructor."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _package_built(g: Graph, rng: random.Random) -> dict[str, Graph]:
    """Every graph the package builds from ``g`` without ``Graph``'s checks."""
    other = _random_graph(rng.randint(1, 6), 0.5, rng)
    parts = [_random_graph(rng.randint(1, 3), 0.5, rng) for _ in range(g.n)]
    return {
        "graph6": parse_graph6(write_graph6(g)),
        "pair_mask": graph_from_pair_mask(g.n, pair_mask(g)),
        "quotient": twin_graph(g).quotient,
        "complement": complement(g),
        "union": disjoint_union(g, other),
        "join": join(g, other),
        "blow_up": blow_up(g, parts),
        "build_graph": build_graph(g.n, g.edges()),
    }


def _assert_builders_pass_the_checks(g: Graph, rng: random.Random) -> None:
    for name, h in _package_built(g, rng).items():
        assert type(h) is Graph and type(h.adj) is tuple, name
        assert Graph(h.n, h.adj) == h, name  # the checked constructor accepts the rows
    classes = twin_graph(g).classes
    assert twin_graph(g).quotient == edge_list_quotient(g, classes)


class TestPackageBuildersPassTheChecks:
    """Package builders skip ``Graph``'s checks because their rows are
    symmetric, loop-free and in range by construction; the checked
    constructor must accept every graph they make."""

    def test_every_class_of_order_1_to_6(self):
        rng = random.Random(25)
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                _assert_builders_pass_the_checks(g, rng)


@given(st.integers(7, 20), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_package_builders_pass_the_checks_on_gnp_graphs(n, p, seed):
    rng = random.Random(seed)
    _assert_builders_pass_the_checks(_random_graph(n, p, rng), rng)
