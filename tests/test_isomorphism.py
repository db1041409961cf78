"""Canonical forms, isomorphism, enumeration counts, graph6 round-trips."""

import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import (
    Graph6Error,
    GraphError,
    OrderLimitError,
    are_isomorphic,
    blow_up,
    broom_tree,
    build_graph,
    complement,
    complete_graph,
    complete_multipartite_graph,
    construct_family,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    is_connected,
    parse_expression,
    parse_graph6,
    path_graph,
    write_graph6,
)
import symbreak
from symbreak import isomorphism, symmetry
from symbreak.catalog import TheoremId, instantiate_families
from symbreak.isomorphism import (
    _canonical_masks,
    _orbit_subsets,
    graph_from_pair_mask,
)

from conftest import canonical_value, graphs, graphs_with_permutation, relabel
from oracles import brute_automorphisms, brute_canonical_value, naive_distances, pair_mask

def build(text):
    return construct_family(parse_expression(text))


def counted_searches(monkeypatch) -> list[int]:
    """A one-item list holding the number of isometry searches that
    ``are_isomorphic`` starts from now on."""
    calls = [0]
    search = isomorphism.isometries

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(isomorphism, "isometries", counted)
    return calls


def shrikhande_and_rook():
    """The Shrikhande graph and the 4x4 rook's graph: Cayley graphs of
    Z4 x Z4, both strongly regular with parameters (16, 6, 2, 2)."""
    cells = [(a, b) for a in range(4) for b in range(4)]

    def cayley(connects):
        edges = [
            (i, j)
            for i, (a, b) in enumerate(cells)
            for j, (c, d) in enumerate(cells)
            if i < j and connects((c - a) % 4, (d - b) % 4)
        ]
        return build_graph(16, edges)

    shrikhande = cayley(lambda x, y: (x, y) in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})
    rook = cayley(lambda x, y: (x == 0) != (y == 0))
    return shrikhande, rook


#: classical counts of graphs up to isomorphism, all / connected
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


class TestCanonicalForm:
    def test_relabeling_invariance_on_p4(self):
        straight = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        shuffled = build_graph(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_value(straight) == canonical_value(shuffled)

    def test_c4_and_2k2_differ(self):
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        assert canonical_value(cycle_graph(4)) != canonical_value(two_k2)

    @pytest.mark.parametrize("n", range(7))
    def test_pair_masks_read_row_major_from_the_top_bit(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_pair_mask(n, mask)
            edges = [pair for p, pair in enumerate(reversed(pairs)) if mask >> p & 1]
            assert g == build_graph(n, edges) and pair_mask(g) == mask

    def test_labeled_graphs_on_4_vertices_fall_into_11_classes(self):
        forms = {canonical_value(graph_from_pair_mask(4, m)) for m in range(64)}
        assert len(forms) == 11

    @pytest.mark.parametrize(
        ("g", "steps"),
        [(complete_graph(11), 65), (cycle_graph(64), 123_136)],
        ids=["K11", "C64"],
    )
    def test_step_budget(self, monkeypatch, g, steps):
        # a step is a candidate row: K11 tries 11 + 10 + ... + 2 of them
        value = canonical_value(relabel(g, tuple(random.Random(g.n).sample(range(g.n), g.n))))
        assert are_isomorphic(graph_from_pair_mask(g.n, value), g)
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps)
        assert canonical_value(g) == value
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", steps - 1)
        message = f"canonical search over its {steps - 1:,}-step budget"
        with pytest.raises(OrderLimitError, match=message):
            canonical_value(g)

    @given(graphs(min_n=0, max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_permutation_minimum(self, g):
        assert canonical_value(g) == brute_canonical_value(g)

    @given(graphs_with_permutation(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_relabeling(self, pair):
        g, perm = pair
        assert canonical_value(g) == canonical_value(relabel(g, perm))

    @pytest.mark.parametrize(
        "g, value",
        [
            pytest.param(cycle_graph(10), 207522258944, id="C10"),
            pytest.param(parse_graph6("IheA@GUAo"), 487837009056, id="Petersen"),
            pytest.param(build("U(C5,C5)"), 207552266244, id="U(C5,C5)"),
            pytest.param(build("~C10"), 8778845511404, id="~C10"),
            pytest.param(cycle_graph(9), 816140800, id="C9"),
            pytest.param(build("J(C5,C5)"), 8778844994796, id="J(C5,C5)"),
        ],
    )
    def test_pinned_values_of_vertex_transitive_graphs(self, g, value):
        # every vertex looks alike, so pruning does all the work here; a
        # bound that overshoots would cut off the minimum
        assert canonical_value(g) == value

    def test_matches_brute_force_on_every_labelled_graph_up_to_order_5(self):
        checked = 0
        for n in range(6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_pair_mask(n, mask)
                assert canonical_value(g) == brute_canonical_value(g), (n, mask)
                checked += 1
        assert checked == 1100

    def test_matches_brute_force_on_a_relabeling_of_every_order_6_class(self):
        rng = random.Random(6)
        for g in enumerate_graphs(6):
            perm = list(range(6))
            rng.shuffle(perm)
            shuffled = relabel(g, tuple(perm))
            assert canonical_value(shuffled) == brute_canonical_value(g) == pair_mask(g)

    @pytest.mark.parametrize("n", [7, 8])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_exhaustive_permutation_minimum_above_order_6(self, n, data):
        # the oracle tries all n! relabelings, under 0.1 s at order 8
        g = data.draw(graphs(min_n=n, max_n=n))
        assert canonical_value(g) == brute_canonical_value(g)

    @given(graphs_with_permutation(min_n=7, max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabeling_up_to_the_cap(self, pair):
        g, perm = pair
        assert canonical_value(g) == canonical_value(relabel(g, perm))


class TestAreIsomorphic:
    def test_c5_isomorphic_to_its_complement(self):
        assert are_isomorphic(cycle_graph(5), complement(cycle_graph(5)))

    def test_star_vs_path(self):
        assert not are_isomorphic(complete_multipartite_graph(1, 3), path_graph(4))

    def test_same_degree_sequence_but_different(self, monkeypatch):
        # both 2-regular on six vertices, so only the search tells them apart
        searches = counted_searches(monkeypatch)
        two_c3 = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert cycle_graph(6).degree_sequence() == two_c3.degree_sequence()
        assert not are_isomorphic(cycle_graph(6), two_c3)
        assert searches == [1]

    def test_unequal_degree_sequences_never_reach_the_search(self, monkeypatch):
        pairs = [
            (cycle_graph(4), disjoint_union(complete_graph(2), complete_graph(2))),
            (complete_multipartite_graph(1, 3), path_graph(4)),
            (build("K(3,3)"), build("2*K3")),
            (build("T5"), path_graph(16)),
        ]
        # no two instances of one catalog share a degree sequence above order 6
        for n in range(7, 13):
            for theorem in TheoremId:
                instances = [inst.graph for inst in instantiate_families(theorem, n)]
                pairs += itertools.combinations(instances, 2)

        def no_search(*args, **kwargs):
            raise AssertionError("an isometry search was started")

        monkeypatch.setattr(isomorphism, "isometries", no_search)
        for g, h in pairs:
            assert g.degree_sequence() != h.degree_sequence()
            assert not are_isomorphic(g, h) and not are_isomorphic(h, g)

    def test_agrees_with_canonical_forms_on_every_labelled_graph_up_to_order_5(self):
        pairs = 0
        for n in range(1, 6):
            classes = list(enumerate_graphs(n))
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_pair_mask(n, mask)
                value = canonical_value(g)
                for r in classes:
                    assert are_isomorphic(g, r) == (value == canonical_value(r)), (n, mask)
                    pairs += 1
        assert pairs == 35557

    def test_large_orders_use_the_search_path(self):
        a = broom_tree(5)
        perm = tuple(reversed(range(a.n)))
        assert are_isomorphic(a, relabel(a, perm))
        assert not are_isomorphic(a, path_graph(a.n))

    @given(graphs_with_permutation(min_n=11, max_n=14))
    @settings(max_examples=40, deadline=None)
    def test_relabelings_are_isomorphic_above_the_canonical_cap(self, pair):
        g, perm = pair
        assert g.n > 10
        assert are_isomorphic(g, relabel(g, perm))

    @pytest.mark.parametrize(
        "left, right",
        [("C12", "U(C6,C6)"), ("C11", "U(C5,C6)"), ("U(C3,C9)", "U(C5,C7)")],
    )
    def test_equal_degree_sequences_are_told_apart_above_the_cap(self, left, right):
        g, h = (construct_family(parse_expression(text)) for text in (left, right))
        assert g.n == h.n > 10
        assert g.degree_sequence() == h.degree_sequence()
        assert not are_isomorphic(g, h) and not are_isomorphic(h, g)

    def test_equal_distance_profiles_are_told_apart(self, monkeypatch):
        # every vertex of either graph has the same degree and distance
        # profile; only the backtrack itself can tell them apart
        searches = counted_searches(monkeypatch)
        shrikhande, rook = shrikhande_and_rook()
        assert sorted(map(sorted, naive_distances(shrikhande))) == sorted(
            map(sorted, naive_distances(rook))
        )
        assert not are_isomorphic(shrikhande, rook)
        assert are_isomorphic(rook, relabel(rook, tuple(reversed(range(16)))))
        assert searches == [2]

    def test_blown_up_twin_classes_cost_nothing(self):
        # each vertex replaced by an independent set of 3 twins: 48 vertices,
        # whose twin graphs are the 16-vertex originals
        shrikhande, rook = (blow_up(g, [empty_graph(3)] * 16) for g in shrikhande_and_rook())
        perm = list(range(48))
        random.Random(48).shuffle(perm)
        for g, h, expected in (
            (shrikhande, rook, False),
            (shrikhande, relabel(shrikhande, tuple(perm)), True),
            (rook, relabel(rook, tuple(perm)), True),
        ):
            start = time.process_time()
            assert are_isomorphic(g, h) is expected
            assert time.process_time() - start < 1.0

    def test_class_types_are_told_apart(self):
        # both twin graphs are P4 with class sizes 2, 1, 1, 1; the pair of
        # twins is adjacent in one graph and not in the other
        assert not are_isomorphic(build("B(P4,K2,K1,K1,K1)"), build("B(P4,E2,K1,K1,K1)"))
        assert not are_isomorphic(build("U(K3,K1)"), build("2*K2"))

    @given(graphs_with_permutation(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_relabelings_are_isomorphic(self, pair):
        g, perm = pair
        assert are_isomorphic(g, relabel(g, perm))


class TestEnumeration:
    @pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
    def test_class_counts(self, n):
        assert sum(1 for _ in enumerate_graphs(n)) == CLASS_COUNTS[n]

    @pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
    def test_connected_counts(self, n):
        found = list(enumerate_graphs(n, connected_only=True))
        assert len(found) == CONNECTED_COUNTS[n]
        assert all(is_connected(g) for g in found)

    def test_representatives_are_canonical_and_sorted(self):
        masks = [pair_mask(g) for g in enumerate_graphs(5)]
        assert masks == sorted(masks)
        for g in enumerate_graphs(5):
            assert canonical_value(g) == pair_mask(g)

    def test_no_two_representatives_isomorphic(self):
        reps = list(enumerate_graphs(4))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not are_isomorphic(reps[i], reps[j])

    def test_order_bound(self):
        with pytest.raises(OrderLimitError):
            list(enumerate_graphs(8))

    def test_a_negative_order_is_bad_input_not_an_order_over_the_bound(self):
        with pytest.raises(GraphError) as err:
            list(enumerate_graphs(-1))
        assert type(err.value) is GraphError

    @pytest.mark.parametrize("n", range(6))
    def test_generator_matches_brute_force_classes(self, n):
        num_pairs = n * (n - 1) // 2
        classes = {
            brute_canonical_value(graph_from_pair_mask(n, mask)) for mask in range(1 << num_pairs)
        }
        assert _canonical_masks(n) == tuple(sorted(classes))

    def test_generator_reaches_every_order_7_class(self, order7_classes):
        assert set(_canonical_masks(7)) == {canonical_value(g) for g in order7_classes}

    def test_generator_reaches_every_order_8_class(self, order8_classes):
        # OEIS A000088 and A001349: 12,346 graphs of order 8, 11,117 connected
        masks = _canonical_masks(8)
        assert masks == tuple(sorted({canonical_value(g) for g in order8_classes}))
        assert len(masks) == 12346
        assert sum(is_connected(graph_from_pair_mask(8, mask)) for mask in masks) == 11117

    @pytest.mark.parametrize("n", range(6))
    def test_subsets_meet_every_orbit_with_distinct_twin_class_counts(self, n):
        # over every labelled graph of order n, the subsets the generator
        # tries with a size floor ``least`` meet each orbit of Aut(g) on the
        # vertex subsets of at least ``least`` vertices, and no two of them
        # take as many vertices from every twin class
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_pair_mask(n, mask)
            perms = brute_automorphisms(g)

            def orbit_min(subset):
                return min(sum(1 << p[v] for v in range(n) if subset >> v & 1) for p in perms)

            orbits = {orbit_min(subset) for subset in range(1 << n)}
            classes = {
                sum(1 << v for v in range(n) if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u))
                for u in range(n)
            }
            for least in sorted({0, 1, n // 2, n}):
                tried = list(_orbit_subsets(g.adj, least))
                met = {orbit_min(subset) for subset in tried}
                assert met == {m for m in orbits if m.bit_count() >= least}, (mask, least)
                counts = {tuple((subset & cls).bit_count() for cls in classes) for subset in tried}
                assert len(counts) == len(tried), (mask, least)

    def test_generation_lists_no_automorphism_group(self, monkeypatch):
        def refuse(g):
            raise AssertionError("generation listed an automorphism group")

        for module in (symmetry, isomorphism):  # wherever the name is bound
            monkeypatch.setattr(module, "class_symmetries", refuse, raising=False)
        _canonical_masks.cache_clear()
        counts = [len(_canonical_masks(n)) for n in range(1, 8)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]

    def test_importing_the_cli_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(symbreak.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, symbreak.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestGraph6:
    def test_k1_encodes_to_at_sign(self):
        assert write_graph6(complete_graph(1)) == "@"

    def test_known_small_encodings(self):
        assert write_graph6(complete_graph(2)) == "A_"
        assert write_graph6(path_graph(4)) == "Ch"
        assert write_graph6(complete_graph(4)) == "C~"

    def test_parse_fixed_five_vertex_line(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.degree_sequence() == (1, 1, 1, 1, 4)
        assert write_graph6(g) == "D?{"

    def test_round_trip_over_enumerated_graphs(self):
        for n in range(0, 6):
            for g in enumerate_graphs(n):
                assert parse_graph6(write_graph6(g)) == g

    def test_long_form_header_round_trip(self):
        g = build_graph(63, [(0, 1), (10, 62)])
        line = write_graph6(g)
        assert line.startswith("~??~")
        assert parse_graph6(line) == g

    def test_rejects_byte_below_offset(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C5")

    def test_rejects_trailing_nonzero_padding(self):
        # order 2 uses one body byte with five padding bits
        assert parse_graph6("A?").edge_count == 0
        with pytest.raises(Graph6Error):
            parse_graph6("A@")

    def test_rejects_wrong_body_length(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~")
        with pytest.raises(Graph6Error):
            parse_graph6("C")

    def test_rejects_empty_line(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_rejects_orders_above_cap(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~~" + "?" * 10)

    @given(graphs(min_n=0, max_n=8))
    @settings(max_examples=100)
    def test_round_trip_property(self, g):
        assert parse_graph6(write_graph6(g)) == g
