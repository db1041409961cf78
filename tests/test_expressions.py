"""The family expression mini-language: parsing and formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import (
    ExpressionError,
    FamilySpec,
    GraphError,
    are_isomorphic,
    bull_graph,
    complete_graph,
    complete_multipartite_graph,
    construct_family,
    cycle_graph,
    empty_graph,
    family_degrees,
    format_spec,
    house_graph,
    parse_expression,
    path_graph,
)
from symbreak.graphs import _COMBINATORS, LEAF_KINDS, family_order

from oracles import substitution_by_edges

#: Parameters that every leaf builder accepts, by arity.
SAMPLE_PARAMS = {0: (), 1: (4,), 2: (2, 3)}
LEAF_SPECS = [FamilySpec(kind, SAMPLE_PARAMS[leaf.arity]) for kind, leaf in LEAF_KINDS.items()]
#: One expression per combinator kind, each over leaves of several kinds.
COMBINATOR_SAMPLES = {
    "complement": "~U(T3,C5')",
    "union": "U(K3,2*P2,bull)",
    "join": "J(E2,K(1,2,3),C4)",
    "blow_up": "B(J(K1,P3),K2,E3,K1,E4)",
}
C2, K1, K3 = FamilySpec("cycle", (2,)), FamilySpec("complete", (1,)), FamilySpec("complete", (3,))
#: Specs with a parameter that its builder rejects, keyed by how they are
#: written.  The parser refuses these texts, so the specs are built directly.
REJECTED_BY_BUILDERS = {
    "P0": FamilySpec("path", (0,)),
    "C0": FamilySpec("cycle", (0,)),
    "C1": FamilySpec("cycle", (1,)),
    "C2": C2,
    "K0": FamilySpec("complete", (0,)),
    "E0": FamilySpec("empty", (0,)),
    "T0": FamilySpec("broom_tree", (0,)),
    "T1": FamilySpec("broom_tree", (1,)),
    "T2": FamilySpec("broom_tree", (2,)),
    "K(0,3)": FamilySpec("complete_multipartite", (0, 3)),
    "U(C2,K3)": FamilySpec("union", parts=(C2, K3)),
    "~C2": FamilySpec("complement", parts=(C2,)),
    "B(P2,E0,K3)": FamilySpec(
        "blow_up", parts=(FamilySpec("path", (2,)), FamilySpec("empty", (0,)), K3)
    ),
    "B(C2,K1,K1)": FamilySpec("blow_up", parts=(C2, K1, K1)),
}
#: The leaf builders a random blow-up draws from, with the least order each accepts.
LEAF_BUILDERS = {
    "K": (complete_graph, 1), "E": (empty_graph, 1), "P": (path_graph, 1), "C": (cycle_graph, 3),
}


def build(text):
    return construct_family(parse_expression(text))


@st.composite
def leaves(draw):
    """A K, E, P or C leaf of order at most 5, as its text and its graph."""
    letter = draw(st.sampled_from(sorted(LEAF_BUILDERS)))
    builder, least = LEAF_BUILDERS[letter]
    n = draw(st.integers(min_value=least, max_value=5))
    return f"{letter}{n}", builder(n)


@st.composite
def blow_up_parts(draw):
    """A leaf, or a union of one or two leaves, as its text and its graph."""
    if draw(st.booleans()):
        return draw(leaves())
    members = draw(st.lists(leaves(), min_size=1, max_size=2))
    text = "U(" + ",".join(t for t, _ in members) + ")"
    return text, substitution_by_edges(empty_graph(len(members)), [g for _, g in members])


class TestParsing:
    def test_complete_bipartite(self):
        assert are_isomorphic(build("K(3,3)"), complete_multipartite_graph(3, 3))

    def test_nested_join_union_with_copies(self):
        g = build("J(K1,U(K1,2*K2))")
        assert g.n == 6 and g.degree(0) == 5

    def test_house_alias(self):
        assert are_isomorphic(build("C5'"), house_graph())

    def test_bull_name(self):
        assert are_isomorphic(build("bull"), bull_graph())
        assert are_isomorphic(build("~bull"), bull_graph())

    def test_cycle_and_path(self):
        assert build("C6") == cycle_graph(6)
        assert build("P5") == path_graph(5)

    def test_complement_prefix(self):
        assert are_isomorphic(build("~C5"), cycle_graph(5))

    def test_blow_up(self):
        g = build("B(P4,K1,E3,K1,K1)")
        assert g.n == 6
        assert not g.has_edge(1, 2)

    def test_whitespace_tolerated(self):
        assert build(" J( K2 , E3 ) ").n == 5

    def test_broom(self):
        assert build("T3").n == 7

    def test_integers_up_to_the_vertex_cap(self):
        assert build("K64").n == build("K064").n == 64
        assert build("~" * 40 + "K3").n == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "", "K", "K(3)", "Q5", "2K2", "U(K2", "C4'", "J()", "B(P4)", "K2 K3", "~", "bul",
            "b5", "K65", "K99999999", "99999999*K1", "K(2,65)", "K\u00b2", "K\u0663",
            "B(P4,K1)", "B(B(P2,K1,K2),K1,K1)", "B(P3,K1,K1)", "B(P2,K1,K1,K1)",
            # nested copy counts name a base of 64**5 vertices, or of none, in a few bytes
            "B(64*64*64*64*K64,K1)", "B(~(64*64*64*K64),K1)", "B(64*64*64*64*64*E0,K1)",
            "B(U(64*64*64*64*64*K1,64*64*64*64*64*K1),K1)", "0*K1",
            pytest.param("K" + "9" * 5000, id="K-5000-digits"),
            pytest.param("~" * 5000 + "K1", id="5000-complements"),
            pytest.param("(" * 5000 + "K1" + ")" * 5000, id="5000-parentheses"),
        ],
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

    @pytest.mark.parametrize("text", list(REJECTED_BY_BUILDERS))
    def test_a_parameter_its_builder_rejects_is_refused_at_its_position(self, text):
        spec = REJECTED_BY_BUILDERS[text]
        assert format_spec(spec) == text
        with pytest.raises(GraphError) as built:
            construct_family(spec)
        with pytest.raises(ExpressionError) as parsed:
            parse_expression(text)
        assert f"{built.value} at position" in str(parsed.value)

    @pytest.mark.parametrize(
        "text, order",
        [("U(K40,K25)", 65), ("J(K40,E25)", 65), ("B(K2,K40,E25)", 65), ("64*64*K1", 4096),
         ("64*64*64*64*64*K64", 4096)],
    )
    def test_an_order_over_the_cap_is_refused_at_its_position(self, text, order):
        with pytest.raises(ExpressionError) as parsed:
            parse_expression(text)
        assert f"order must be between 0 and 64, got {order} at position" in str(parsed.value)

    @given(st.data())
    @settings(max_examples=100)
    def test_a_blow_up_of_any_parts_is_the_substitution(self, data):
        base_text, base = data.draw(leaves())
        parts = data.draw(st.lists(blow_up_parts(), min_size=base.n, max_size=base.n))
        text = f"B({base_text},{','.join(t for t, _ in parts)})"
        assert build(text) == substitution_by_edges(base, [g for _, g in parts])


class TestFormatting:
    @pytest.mark.parametrize(
        "text",
        [
            "K5",
            "E3",
            "P4",
            "C5",
            "C5'",
            "bull",
            "U(K1,bull)",
            "T4",
            "K(2,3)",
            "K(1,2,2)",
            "U(K2,K1)",
            "J(K1,U(K1,2*K2))",
            "3*K2",
            "~C5",
            "B(P4,K1,E2,K1,K1)",
            "J(K2,2*K2)",
            "(K3)",
            "~(2*K2)",
            "2*(U(K1,K2))",
            "~J(K1,K2)",
            "~B(P3,K2,E1,K2)",
            "B(P4,C5,K1,U(K1,K2),E3)",
            "B(K2,2*K2,~P3)",
        ],
    )
    def test_round_trip_through_formatter(self, text):
        spec = parse_expression(text)
        again = parse_expression(format_spec(spec))
        assert construct_family(again) == construct_family(spec)

    @pytest.mark.parametrize("spec", LEAF_SPECS, ids=lambda spec: spec.kind)
    def test_every_leaf_kind_parses_back_to_itself(self, spec):
        # spec equality, not just equal graphs: a leaf written under another
        # kind's name (K(2,3) for a bipartite kind) would build the same graph
        assert parse_expression(format_spec(spec)) == spec
        assert construct_family(spec).n > 0

    @pytest.mark.parametrize("spec", LEAF_SPECS, ids=lambda spec: spec.kind)
    def test_every_leaf_kind_knows_its_order(self, spec):
        assert sorted(family_degrees(spec)) == list(construct_family(spec).degree_sequence())

    @pytest.mark.parametrize("kind", _COMBINATORS)
    def test_every_combinator_knows_its_order(self, kind):
        spec = parse_expression(COMBINATOR_SAMPLES[kind])
        assert spec.kind == kind
        assert sorted(family_degrees(spec)) == list(construct_family(spec).degree_sequence())

    @pytest.mark.parametrize(
        "text",
        ["K1", "E1", "P1", "P2", "C3", "T3", "T7", "K(1,1)", "K(5,1,3)", "~K(2,2,2)",
         "J(P5,C6,E3)", "U(T4,~C7,K(1,4))", "B(C5,K3,E1,K2,E4,K1)", "B(bull,E2,K1,E1,K3,E2)",
         "~B(J(K1,P3),K2,E3,K1,E4)", "J(K1,U(K2,B(P3,K2,E1,K3)))", "B(E3,K2,E2,K1)",
         "U(P4)", "J(C5)", "~~P5", "~U(K2,E3,P3)", "J(~C5,U(K1,E2))", "B(~P4,K2,E1,E3,K1)",
         "B(B(P2,K2,E1),E2,K1,K3)", "U(B(K2,E2,K3),~J(E2,P3))", "(K3)", "~(2*K2)",
         "2*(U(K1,K2))", "~J(K1,K2)", "~B(P3,K2,E1,K2)", "B(P4,C5,K1,U(K1,K2),E3)",
         "B(K2,2*K2,~P3)"],
    )
    def test_degrees_are_the_built_degree_sequence(self, text):
        spec = parse_expression(text)
        assert sorted(family_degrees(spec)) == list(construct_family(spec).degree_sequence())

    @pytest.mark.parametrize(
        "text",
        ["P0", "T7", "K(5,1,3)", "U(C2,K3)", "B(P2,E0,K3)", "3*K2", "U(K2,P3,K2)",
         "J(2*K1,~(3*C4))", "~B(J(K1,P3),K2,E3,K1,E4)", "U(B(K2,E2,K3),~J(E2,P3))"],
    )
    def test_order_is_the_number_of_degrees(self, text):
        spec = REJECTED_BY_BUILDERS.get(text) or parse_expression(text)
        assert family_order(spec) == len(family_degrees(spec))

    def test_nested_copies_are_counted_without_listing_them(self):
        # 64*64*64*64*64*K64, built directly since the parser refuses its order;
        # an int, not the spec, goes into the assertion: the spec's repr lists 64**5 leaves
        spec = FamilySpec("complete", (64,))
        for _ in range(5):
            spec = FamilySpec("union", parts=(spec,) * 64)
        order = family_order(spec)
        assert order == 64**6

    @pytest.mark.parametrize(
        "text, order",
        [("P0", 0), ("C0", 0), ("C1", 1), ("C2", 2), ("K0", 0), ("E0", 0), ("T0", 1),
         ("T1", 2), ("T2", 4), ("K(0,3)", 3), ("U(C2,K3)", 5), ("~C2", 2), ("B(P2,E0,K3)", 3)],
    )
    def test_parameters_the_builders_reject_still_get_an_order(self, text, order):
        spec = REJECTED_BY_BUILDERS[text]
        with pytest.raises(GraphError):
            construct_family(spec)
        assert len(family_degrees(spec)) == order

    @pytest.mark.parametrize("text", ["B(C2,K1,K1)"])
    def test_a_blow_up_the_builders_reject_raises(self, text):
        with pytest.raises(GraphError):
            family_degrees(REJECTED_BY_BUILDERS[text])

    def test_collapses_repeated_union_operands(self):
        assert format_spec(parse_expression("U(K2,K2,K2)")) == "3*K2"

    @pytest.mark.parametrize(
        "text, rendered",
        [("~U(K1,K2)", "~U(K1,K2)"), ("~J(K1,K2)", "~J(K1,K2)"), ("~B(P3,K2,E1,K2)", "~B(P3,K2,E1,K2)"),
         ("~U(K2,K2)", "~(2*K2)"), ("~~U(K1,K1)", "~~(2*K1)"), ("~U(2*K2,K1)", "~U(2*K2,K1)")],
    )
    def test_a_complement_parenthesises_only_the_copy_shorthand(self, text, rendered):
        assert format_spec(parse_expression(text)) == rendered
        assert parse_expression(rendered) == parse_expression(text)

    def test_a_blow_up_is_its_base_then_one_leaf_per_base_vertex(self):
        path, k1, e3 = FamilySpec("path", (4,)), FamilySpec("complete", (1,)), FamilySpec("empty", (3,))
        spec = parse_expression("B(P4,K1,E3,K1,K1)")
        assert spec == FamilySpec("blow_up", parts=(path, k1, e3, k1, k1))
        assert format_spec(spec) == "B(P4,K1,E3,K1,K1)"

    def test_join_repeats_are_not_collapsed(self):
        rendered = format_spec(parse_expression("J(K2,K2)"))
        assert rendered == "J(K2,K2)"
        assert construct_family(parse_expression(rendered)).edge_count == 6
