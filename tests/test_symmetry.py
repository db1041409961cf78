"""Automorphism groups, distinguishing numbers, and the landmark coloring."""

import csv
import itertools
import math
import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symbreak import (
    Coloring,
    NotResolvingError,
    OrderLimitError,
    blow_up,
    broom_tree,
    build_graph,
    coloring_from_resolving_set,
    complement,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    diameter,
    disjoint_union,
    distinguishing_number,
    empty_graph,
    enumerate_graphs,
    house_graph,
    is_connected,
    is_distinguishing,
    metric_dimension,
    parse_graph6,
    path_graph,
    write_graph6,
)
from symbreak.graphs import DisconnectedError, Graph, GraphError
from symbreak.expressions import parse_expression
from symbreak.graphs import construct_family
from symbreak.isomorphism import are_isomorphic, isometries
from symbreak.symmetry import class_symmetries, d_may_reach
from symbreak.twins import twin_graph

from conftest import graphs, graphs_with_permutation, relabel, vertex_orbits
from oracles import (
    brute_automorphisms,
    brute_distinguishing_number,
    cycle_distinguishing_number,
    multipartite_distinguishing_number,
    naive_distances,
)


def _self_maps(g):
    """Every automorphism of ``g``, collected from the isometry backtrack."""
    return _isometry_images(g, g)


def _isometry_images(g, h, colors=None, limit=None):
    """The images ``isometries(g, h, ..., colors)`` visits, in visiting
    order, stopping the search after ``limit`` of them when one is given."""
    found = []
    isometries(g, h, lambda image: found.append(tuple(image)) or len(found) == limit, colors)
    return found


def _shared_and_paired_images(g, colors=None, limit=None):
    """The color-preserving self-maps of ``g`` from the one-list search
    (``h is g``) and from the paired search on an equal but distinct graph."""
    return (
        _isometry_images(g, g, colors, limit),
        _isometry_images(g, Graph(g.n, g.adj), colors, limit),
    )


class TestAutomorphismGroup:
    def test_k4_is_the_symmetric_group(self):
        assert len(_self_maps(complete_graph(4))) == 24

    def test_broom_trees_are_asymmetric(self):
        for k in (3, 4):
            assert len(_self_maps(broom_tree(k))) == 1

    def test_c4_is_dihedral(self):
        assert len(_self_maps(cycle_graph(4))) == 8

    def test_every_element_preserves_distances(self):
        g = house_graph()
        dist = naive_distances(g)
        for f in _self_maps(g):
            for u in range(g.n):
                for v in range(g.n):
                    assert dist[f[u]][f[v]] == dist[u][v]

    def test_closed_under_composition_and_inverse(self):
        group = _self_maps(complete_multipartite_graph(2, 2))
        elements = set(group)
        assert len(elements) == len(group)
        for f in group:
            inverse = tuple(sorted(range(len(f)), key=lambda v: f[v]))
            assert inverse in elements
            for h in group:
                assert tuple(f[h[v]] for v in range(len(f))) in elements

    @given(graphs(min_n=1, max_n=5))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_listing(self, g):
        assert set(_self_maps(g)) == set(brute_automorphisms(g))


class TestVertexOrbits:
    # the orbits of Aut(G), read off the labelled twin-graph group
    def test_star_orbits(self):
        star = complete_multipartite_graph(1, 3)
        assert vertex_orbits(star) == [[0], [1, 2, 3]]

    def test_p4_orbits(self):
        assert vertex_orbits(path_graph(4)) == [[0, 3], [1, 2]]

    def test_house_orbits_follow_its_group(self):
        # group is generated by the single reflection (0 2)(3 4)
        assert vertex_orbits(house_graph()) == [[0, 2], [1], [3, 4]]

    def test_twin_classes_beyond_sixteen_vertices(self):
        # one twin class, and two that the swap exchanges
        assert vertex_orbits(complete_graph(20)) == [list(range(20))]
        assert vertex_orbits(complete_multipartite_graph(9, 9)) == [list(range(18))]

    def test_twin_free_graphs_above_sixteen_classes(self):
        # T8 has 37 twin classes and no symmetry; C20 has 20 classes that move
        assert vertex_orbits(broom_tree(8)) == [[v] for v in range(37)]
        assert vertex_orbits(cycle_graph(20)) == [list(range(20))]

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_images(self, g):
        perms = brute_automorphisms(g)
        orbit_of = {v: tuple(orbit) for orbit in vertex_orbits(g) for v in orbit}
        assert sorted(orbit_of) == list(range(g.n))
        for u in range(g.n):
            for v in range(g.n):
                assert (orbit_of[u] == orbit_of[v]) == any(p[u] == v for p in perms)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_up_to_order_6_matches_brute_force(self, n):
        for g in enumerate_graphs(n):
            perms = brute_automorphisms(g)
            orbits = {tuple(sorted({p[v] for p in perms})) for v in range(g.n)}
            assert vertex_orbits(g) == [list(orbit) for orbit in sorted(orbits)], write_graph6(g)


class TestIsometries:
    @given(graphs_with_permutation(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_visits_every_isomorphism_once(self, pair):
        g, perm = pair
        h = relabel(g, perm)
        seen = []
        assert not isometries(g, h, lambda image: seen.append(tuple(image)))
        assert len(set(seen)) == len(seen) == len(brute_automorphisms(g))
        assert all(relabel(g, image) == h for image in seen)

    @given(graphs_with_permutation(max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_colorings_visit_the_color_preserving_isomorphisms(self, pair, data):
        g, perm = pair
        h = relabel(g, perm)
        colors = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        h_colors = [0] * g.n
        for v, w in enumerate(perm):
            h_colors[w] = colors[v]
        seen = []
        assert not isometries(g, h, lambda image: seen.append(tuple(image)), colors, h_colors)
        expected = [
            image
            for image in itertools.permutations(range(g.n))
            if relabel(g, image) == h and all(h_colors[image[v]] == colors[v] for v in range(g.n))
        ]
        assert sorted(seen) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_list_search_equals_the_paired_search_on_every_class_up_to_order_6(self, n):
        rng = random.Random(n)
        for g in enumerate_graphs(n):
            perms = brute_automorphisms(g)
            parity = [row.bit_count() % 2 for row in g.adj]
            two_colors = [rng.randrange(2) for _ in range(g.n)]
            for colors in (None, parity, two_colors):
                shared, paired = _shared_and_paired_images(g, colors)
                kept = [
                    p for p in perms
                    if colors is None or all(colors[p[v]] == colors[v] for v in range(g.n))
                ]
                assert shared == paired, (write_graph6(g), colors)
                assert sorted(shared) == kept, (write_graph6(g), colors)

    @given(
        st.integers(7, 10), st.floats(0.1, 0.9), st.randoms(use_true_random=False), st.booleans()
    )
    @settings(max_examples=60, deadline=None)
    def test_one_list_search_equals_the_paired_search_on_random_graphs(self, n, p, rng, colored):
        # G(n, p); both searches visit in one order, so a prefix of a large
        # group (E10 has 10! elements) compares as well as the whole
        edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
        g = build_graph(n, edges)
        colors = [rng.randrange(2) for _ in range(n)] if colored else None
        shared, paired = _shared_and_paired_images(g, colors, limit=1000)
        assert shared == paired
        assert len(set(shared)) == len(shared) and shared[0] == tuple(range(n))
        assert all(relabel(g, image) == g for image in shared)

    def test_visit_stops_the_search(self):
        calls = []
        assert isometries(complete_graph(5), complete_graph(5), lambda image: calls.append(1) or True)
        assert len(calls) == 1

    def test_no_isometry_between_different_orders(self):
        assert not isometries(path_graph(3), path_graph(4), lambda image: True)
        assert not isometries(path_graph(4), path_graph(3), lambda image: True)


class TestIsDistinguishing:
    def test_any_coloring_distinguishes_an_asymmetric_graph(self):
        tree = broom_tree(3)
        assert is_distinguishing(tree, Coloring((1,) * tree.n, 1))

    def test_triangle_needs_all_colors_distinct(self):
        k3 = complete_graph(3)
        assert not is_distinguishing(k3, Coloring((1, 1, 2), 2))
        assert is_distinguishing(k3, Coloring((1, 2, 3), 3))

    def test_p4_with_one_endpoint_marked(self):
        assert is_distinguishing(path_graph(4), Coloring((2, 1, 1, 1), 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(GraphError):
            is_distinguishing(path_graph(3), Coloring((1, 1), 1))

    def test_coloring_validation(self):
        with pytest.raises(GraphError):
            Coloring((0, 1), 2)
        with pytest.raises(GraphError):
            Coloring((1, 3), 2)


class TestDistinguishingNumber:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_complete_and_empty_graphs_need_n_colors(self, n):
        assert distinguishing_number(complete_graph(n)) == n
        assert distinguishing_number(empty_graph(n)) == n

    @pytest.mark.parametrize("n", [*range(2, 9), 20, 64])
    def test_paths_need_two_colors(self, n):
        assert distinguishing_number(path_graph(n)) == 2

    def test_balanced_complete_bipartite(self):
        assert distinguishing_number(complete_multipartite_graph(3, 3)) == 4

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 3), (5, 3), (6, 2), (20, 2), (64, 2)])
    def test_small_cycles(self, n, expected):
        assert distinguishing_number(cycle_graph(n)) == expected

    def test_unbalanced_bipartite_needs_larger_side(self):
        assert distinguishing_number(complete_multipartite_graph(2, 3)) == 3

    def test_petersen_graph_known_values(self):
        petersen = build_graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        assert len(_self_maps(petersen)) == 120
        assert distinguishing_number(petersen) == 3
        assert metric_dimension(petersen).dim == 3

    @given(graphs(min_n=1, max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_unreduced_brute_force(self, g):
        assert distinguishing_number(g) == brute_distinguishing_number(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_up_to_order_6_matches_brute_force(self, n):
        # the 208 isomorphism classes of orders 1 to 6
        for g in enumerate_graphs(n):
            assert distinguishing_number(g) == brute_distinguishing_number(g), write_graph6(g)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_complete_multipartite_closed_form(self, s):
        for m in range(1, 8):
            g = complete_multipartite_graph(*[s] * m) if m > 1 else empty_graph(s)
            assert distinguishing_number(g) == multipartite_distinguishing_number(s, m), (s, m)

    def test_cycle_closed_form(self):
        for n in range(3, 65):
            assert distinguishing_number(cycle_graph(n)) == cycle_distinguishing_number(n), n

    @pytest.mark.parametrize("s", range(1, 21))
    def test_balanced_complete_bipartite_up_to_40_vertices(self, s):
        # two twin classes of size s that the swap exchanges: s colors give
        # both classes the same set, so one more is needed
        assert distinguishing_number(complete_multipartite_graph(s, s)) == s + 1

    @pytest.mark.parametrize("t", range(1, 17))
    def test_classes_no_symmetry_moves_are_not_searched(self, t):
        # up to 52 vertices; only P4's reflection moves classes, so the two
        # parts of K(2t,t) never get more than one color set each
        g = construct_family(parse_expression(f"U(K({2 * t},{t}),P4)"))
        assert distinguishing_number(g) == 2 * t

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_range_and_all_distinct_coloring(self, g):
        d = distinguishing_number(g)
        assert 1 <= d <= g.n
        assert is_distinguishing(g, Coloring(tuple(range(1, g.n + 1)), g.n))


@st.composite
def _colored_graphs(draw):
    g = draw(graphs(min_n=1, max_n=6))
    k = draw(st.integers(min_value=1, max_value=g.n))
    colors = draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n))
    return g, Coloring(tuple(colors), k)


@given(_colored_graphs())
@settings(max_examples=300, deadline=None)
def test_is_distinguishing_matches_brute_automorphisms(colored):
    g, coloring = colored
    colors = coloring.colors
    identity = tuple(range(g.n))
    preserved = [
        f for f in brute_automorphisms(g)
        if f != identity and all(colors[f[v]] == colors[v] for v in range(g.n))
    ]
    assert is_distinguishing(g, coloring) == (not preserved)


@pytest.fixture
def group_listing_refused(monkeypatch):
    """``class_symmetries`` raises, so a test passes only if it never lists the group."""

    def refuse(g):
        raise AssertionError("the labelled group was listed")

    monkeypatch.setattr("symbreak.symmetry.class_symmetries", refuse)


@pytest.mark.usefixtures("group_listing_refused")
class TestIsDistinguishingListsNoGroup(TestIsDistinguishing):
    """Every case of TestIsDistinguishing again, with the listed group refused."""

    def test_brute_agreement_holds(self):
        test_is_distinguishing_matches_brute_automorphisms()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_coloring_with_at_most_3_colors_agrees_with_brute_force(self, n):
        identity = tuple(range(n))
        for g in enumerate_graphs(n):
            moved = [f for f in brute_automorphisms(g) if f != identity]
            for colors in itertools.product(range(1, 4), repeat=n):
                kept = any(all(colors[f[v]] == colors[v] for v in range(n)) for f in moved)
                assert is_distinguishing(g, Coloring(colors, 3)) == (not kept), (write_graph6(g), colors)


@st.composite
def _gnp_or_substitution(draw):
    """G(n, p) on 1 to 64 vertices, or G(m, p) parts substituted into the
    vertices of a G(b, p) base, at most 64 vertices in all."""
    rng = draw(st.randoms(use_true_random=False))

    def gnp(n):
        p = rng.uniform(0.1, 0.9)
        return build_graph(n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p])

    if draw(st.booleans()):
        return gnp(draw(st.integers(1, 64)))
    base = gnp(draw(st.integers(1, 6)))
    return blow_up(base, [gnp(draw(st.integers(1, 64 // base.n))) for _ in range(base.n)])


class TestDMayReach:
    """``d_may_reach(g, k)`` is False only when ``D(g) < k``: D is at most
    the largest cell of the coarsest equitable partition."""

    def test_holds_on_every_class_up_to_order_7(self, order7_classes):
        for g in [g for n in range(1, 7) for g in enumerate_graphs(n)] + order7_classes:
            assert d_may_reach(g, distinguishing_number(g)), write_graph6(g)

    def test_holds_on_every_order_8_class(self, order8_classes):
        # the pruned catalog scans compute D for at most 142 of these classes
        for g in order8_classes:
            assert d_may_reach(g, distinguishing_number(g)), write_graph6(g)

    def test_holds_on_the_order_9_classes_with_d_at_least_5(self, order9_high_d):
        for g in order9_high_d:
            assert d_may_reach(g, distinguishing_number(g)), write_graph6(g)

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_a_path_refines_to_mirror_pairs(self, n):
        # the degree classes leave n - 2 inner vertices; refinement splits
        # them down to pairs at one distance from the ends
        assert d_may_reach(path_graph(n), 2) and not d_may_reach(path_graph(n), 3)

    @pytest.mark.parametrize("n", [3, 10, 64])
    def test_a_regular_graph_is_already_equitable(self, n):
        assert d_may_reach(cycle_graph(n), n) and not d_may_reach(cycle_graph(n), n + 1)

    @given(_gnp_or_substitution())
    @settings(max_examples=60, deadline=None)
    def test_holds_on_random_graphs_and_substitutions(self, g):
        try:
            d = distinguishing_number(g)
        except OrderLimitError:
            assume(False)
        assert d_may_reach(g, d)
        # the complement has the same partition, so the largest k it allows is the same
        largest = max(k for k in range(d, g.n + 1) if d_may_reach(g, k))
        h = complement(g)
        assert d_may_reach(h, largest) and not d_may_reach(h, largest + 1)


class TestClassSymmetries:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_lift_to_the_whole_group_on_every_class_up_to_order_6(self, n):
        # Aut(G) is the labelled group of G* extended by the symmetric group
        # on every twin class, so the orders multiply exactly
        for g in enumerate_graphs(n):
            inside = math.prod(math.factorial(len(cls)) for cls in twin_graph(g).classes)
            order = (len(class_symmetries(g)) + 1) * inside
            assert order == len(brute_automorphisms(g)), write_graph6(g)

    def test_twin_classes_beyond_sixteen_vertices(self):
        # K20 is one twin class; K(9,9) has two, which one swap exchanges
        assert class_symmetries(complete_graph(20)) == ()
        assert class_symmetries(complete_multipartite_graph(9, 9)) == (((0, 1), (1, 0)),)

    def test_labels_prune_a_star_quotient(self):
        # 56 vertices; the twin graph is a star with 10 leaves, whose unlabelled
        # group has 10! elements, but the class sizes tell the leaves apart
        g = construct_family(parse_expression("J(K1,U(K1,K2,K3,K4,K5,K6,K7,K8,K9,K10))"))
        assert len(twin_graph(g).classes) == 11 and class_symmetries(g) == ()
        assert distinguishing_number(g) == 10

    def test_twin_free_graphs_above_sixteen_classes(self):
        # T8 has 37 twin classes and no symmetry at all; C20's group has 40 elements
        assert class_symmetries(broom_tree(8)) == ()
        assert len(class_symmetries(cycle_graph(20))) == 39
        assert distinguishing_number(broom_tree(8)) == 1
        assert distinguishing_number(cycle_graph(20)) == 2

    def test_one_element_per_labelled_automorphism(self):
        # K(2,2,3): the two parts of size 2 swap; the part of size 3 is fixed
        g = complete_multipartite_graph(2, 2, 3)
        assert twin_graph(g).classes == ((0, 1), (2, 3), (4, 5, 6))
        assert class_symmetries(g) == (((0, 1), (1, 0, 2)),)

    def test_isometries_respect_vertex_colors(self):
        images = []
        isometries(path_graph(3), path_graph(3), lambda f: images.append(tuple(f)), [1, 2, 1])
        assert sorted(images) == [(0, 1, 2), (2, 1, 0)]
        images.clear()
        isometries(path_graph(3), path_graph(3), lambda f: images.append(tuple(f)), [1, 2, 3])
        assert images == [(0, 1, 2)]
        images.clear()
        g = path_graph(3)  # one graph under two colorings maps only by the reflection
        isometries(g, g, lambda f: images.append(tuple(f)), [1, 2, 3], [3, 2, 1])
        assert images == [(2, 1, 0)]


class TestSearchBudget:
    """Each search answers with exactly the steps it needs, and one step less
    refuses: C20's group takes 1,577 steps, C64's 16,317 and P64's 253, an
    isomorphism onto a relabelling 40 for C20 and 128 for P64, and
    U(C5,C5) gives 56 color sets to single classes over k = 1, 2 and 3."""

    @pytest.mark.parametrize(
        ("g", "steps", "moved"),
        [
            (cycle_graph(20), 1_577, 39),
            (cycle_graph(64), 16_317, 127),
            (path_graph(64), 253, 1),
        ],
        ids=["C20", "C64", "P64"],
    )
    def test_isometry_budget(self, monkeypatch, g, steps, moved):
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps)
        assert len(class_symmetries.__wrapped__(g)) == moved
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps - 1)
        message = f"isometry search over its {steps - 1:,}-step budget"
        with pytest.raises(OrderLimitError, match=message):
            class_symmetries.__wrapped__(g)

    @pytest.mark.parametrize(
        ("g", "steps"),
        [(path_graph(64), 128), (cycle_graph(20), 40)],
        ids=["P64", "C20"],
    )
    def test_paired_isometry_budget(self, monkeypatch, g, steps):
        # are_isomorphic against a relabelling pairs two lists of cells from the
        # root, so every forced singleton is checked against its neighbour counts
        h = relabel(g, tuple(random.Random(25).sample(range(g.n), g.n)))
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps)
        assert are_isomorphic(g, h)
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps - 1)
        with pytest.raises(OrderLimitError, match=f"isometry search over its {steps - 1:,}-step budget"):
            are_isomorphic(g, h)

    @pytest.mark.parametrize(
        ("expression", "d", "steps"),
        [
            ("U(C5,C5)", 3, 56),
            # labelled groups of 8! or 10,000 elements, each element checked
            # only where the last class it moves gets its color set
            ("K(2,2,2,2,2,2,2,2)", 5, 2_011),
            ("K(5,5,5,5,5,5,5,5)", 7, 1_995),
            ("U(C5,J(K1,C5),J(K2,C5),J(E2,C5))", 3, 59),
            ("8*K(2,3)", 4, 80),
        ],
    )
    def test_coloring_budget(self, monkeypatch, expression, d, steps):
        g = construct_family(parse_expression(expression))
        class_symmetries(g)  # listed under the full budget; only the coloring search is bounded
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps)
        assert distinguishing_number(g) == d
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps - 1)
        message = f"coloring search over its {steps - 1:,}-step budget"
        with pytest.raises(OrderLimitError, match=message):
            distinguishing_number(g)


class TestOrder7Invariants:
    def test_every_class_of_order_7(self):
        """``tests/data/order7_invariants.csv`` holds (graph6, D, dim) for the
        1,044 classes of order 7, computed by the solvers that listed Aut(G)
        and searched subsets of twin representatives, before the twin-graph
        and hitting-set searches replaced them."""
        path = os.path.join(os.path.dirname(__file__), "data", "order7_invariants.csv")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1044
        for row in rows:
            g = parse_graph6(row["graph6"])
            dim = str(metric_dimension(g).dim) if is_connected(g) else ""
            assert (str(distinguishing_number(g)), dim) == (row["D"], row["dim"]), row["graph6"]


class TestColoringFromResolvingSet:
    def test_p4_with_endpoint_landmark(self):
        coloring = coloring_from_resolving_set(path_graph(4), [0])
        assert coloring.colors == (1, 2, 2, 2)
        assert coloring.k == 2
        assert is_distinguishing(path_graph(4), coloring)

    def test_k4_with_three_landmarks(self):
        coloring = coloring_from_resolving_set(complete_graph(4), [0, 1, 2])
        assert coloring.k == 4
        assert coloring.colors == (1, 2, 3, 4)
        assert is_distinguishing(complete_graph(4), coloring)

    def test_c5_minimum_witness_gives_three_colors(self):
        c5 = cycle_graph(5)
        witness = metric_dimension(c5)
        assert witness.dim == 2
        coloring = coloring_from_resolving_set(c5, witness.witness)
        assert coloring.k == 3
        assert is_distinguishing(c5, coloring)
        assert distinguishing_number(c5) == 3

    def test_rejects_non_resolving_set(self):
        with pytest.raises(NotResolvingError):
            coloring_from_resolving_set(cycle_graph(4), [0])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            coloring_from_resolving_set(disjoint_union(complete_graph(2), complete_graph(1)), [0])

    def test_rejects_landmarks_outside_the_graph(self):
        with pytest.raises(GraphError, match=r"landmark -1 is outside 0\.\.2"):
            coloring_from_resolving_set(path_graph(3), [-1])


class TestExhaustiveSmallOrderInvariants:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_bound_and_landmark_coloring(self, n):
        for g in enumerate_graphs(n, connected_only=True):
            witness = metric_dimension(g)
            d = distinguishing_number(g)
            assert d <= witness.dim + 1
            assert is_distinguishing(g, coloring_from_resolving_set(g, witness.witness))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_complement_invariance(self, n):
        for g in enumerate_graphs(n):
            assert distinguishing_number(g) == distinguishing_number(complement(g))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_diameter_bound(self, n):
        for g in enumerate_graphs(n, connected_only=True):
            assert distinguishing_number(g) <= g.n - diameter(g) + 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_palette_needed_only_for_complete_and_empty(self, n):
        for g in enumerate_graphs(n):
            full = distinguishing_number(g) == g.n
            extremal = g.edge_count in (0, g.n * (g.n - 1) // 2)
            assert full == extremal
