"""Catalog instantiation, classification reports, and coverage predicate."""

import random
from collections import Counter

import pytest

from symbreak import (
    TheoremId,
    TheoremNotApplicableError,
    are_isomorphic,
    check_characterization,
    classify_graph,
    complete_graph,
    complete_multipartite_graph,
    construction_graph,
    cycle_graph,
    disjoint_union,
    distinguishing_number,
    enumerate_graphs,
    family_degrees,
    format_spec,
    in_family_f,
    instantiate_families,
    metric_dimension,
    parse_expression,
    parse_graph6,
    construct_family,
    path_graph,
    write_graph6,
)
from symbreak.catalog import _THEOREMS, ERRATA, FamilyMatch, family_matches
from symbreak.graphs import GraphError

from conftest import canonical_value, relabel
from oracles import brute_distinguishing_number


#: The graphs that the benchmark's ``symmetric`` workload analyzes.
SYMMETRIC_INPUTS = (
    "C10", "IheA@GUAo", "K8", "K(4,4)", "T5", "~C10", "U(C5,C5)", "C9", "K(3,3,3)", "K9", "E11",
)


def catalog_graphs(theorem, n):
    return [inst.graph for inst in instantiate_families(theorem, n)]


def contains_isomorph(pool, g):
    return any(are_isomorphic(g, h) for h in pool)


def catalog_rows(theorem):
    """Every row of a catalog as (entry, erratum): the paper's, then ERRATA's."""
    rows = [(entry, False) for entry in _THEOREMS[theorem].entries]
    return rows + [(entry, True) for entry in ERRATA.get(theorem, ())]


class TestInstantiation:
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_match_expressions_build_their_instance(self, theorem):
        # every expression a match reports reads back through the kind table
        # to the same text and to a graph of the instance's class
        for n in range(theorem.min_order, 9):
            for inst in instantiate_families(theorem, n):
                for match in inst.matches:
                    spec = parse_expression(match.expression)
                    assert format_spec(spec) == match.expression
                    built = construct_family(spec)
                    assert built.n == inst.graph.n, match
                    assert canonical_value(built) == canonical_value(inst.graph), match

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_aliases_are_grouped_as_canonical_forms_group_them(self, theorem):
        for n in range(theorem.min_order, 10):
            by_form = {}
            for inst in instantiate_families(theorem, n):
                for match in inst.matches:
                    built = construct_family(parse_expression(match.expression))
                    form = built.n, canonical_value(built)
                    by_form.setdefault(form, set()).add(match)
            grouped = {frozenset(inst.matches) for inst in instantiate_families(theorem, n)}
            assert grouped == {frozenset(matches) for matches in by_form.values()}, n

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_rows_stop_at_the_requested_order(self, theorem):
        # a member above 64 vertices would raise GraphError while being built
        instances = instantiate_families(theorem, 64)
        assert instances and all(inst.graph.n == 64 for inst in instances)

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_every_row_grows_by_one_vertex_per_unit_of_t(self, theorem):
        # instantiate_families reads a row's order-n member off this growth,
        # and reads each order and degree sequence off the spec
        for entry, _ in catalog_rows(theorem):
            if entry.t_min is None:
                spec = entry.make(0)
                graph = construct_family(spec)
                assert tuple(sorted(family_degrees(spec))) == graph.degree_sequence(), entry.index
                continue
            orders = []
            for t in range(entry.t_min, entry.t_min + 31):
                spec = entry.make(t)
                graph = construct_family(spec)
                orders.append(graph.n)
                degrees = tuple(sorted(family_degrees(spec)))
                assert degrees == graph.degree_sequence(), (entry.index, t)
            assert orders == list(range(orders[0], orders[0] + 31)), entry.index

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_only_the_members_of_the_requested_order_are_built(self, theorem, monkeypatch):
        from symbreak import catalog

        built = []
        build = catalog.construct_family

        def counted(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(catalog, "construct_family", counted)
        for n in range(max(5, theorem.min_order), 13):
            built.clear()
            instances = instantiate_families(theorem, n)
            assert len(built) == sum(len(inst.matches) for inst in instances), n

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_instances_equal_those_of_building_every_member(self, theorem):
        for n in range(max(4, theorem.min_order), 13):
            found = []
            for entry, erratum in catalog_rows(theorem):
                assignments = [None] if entry.t_min is None else range(entry.t_min, n + 1)
                for t in assignments:
                    family = entry.make(0 if t is None else t)
                    graph = construct_family(family)
                    if graph.n != n:
                        continue
                    match = FamilyMatch(theorem, entry.index, t, format_spec(family), erratum)
                    for known, matches in found:
                        if are_isomorphic(known, graph):
                            matches.append(match)
                            break
                    else:
                        found.append((graph, [match]))
            instances = instantiate_families(theorem, n)
            assert [inst.matches for inst in instances] == [tuple(m) for _, m in found], n
            assert all(inst.graph == graph for inst, (graph, _) in zip(instances, found)), n

    def test_family_matches_finds_a_relabelled_catalog_graph(self):
        g = construct_family(parse_expression("J(K2,E3)"))
        relabelled = relabel(g, (4, 2, 0, 3, 1))
        assert [m.entry for m in family_matches(TheoremId.DN2, relabelled)] == [9]
        assert family_matches(TheoremId.DN2, path_graph(5)) == ()

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_family_matches_gives_a_relabelled_instance_its_aliases(self, theorem):
        shuffle = random.Random(theorem.value).shuffle
        for n in range(max(4, theorem.min_order), 13):
            for inst in instantiate_families(theorem, n):
                perm = list(range(n))
                shuffle(perm)
                assert family_matches(theorem, relabel(inst.graph, tuple(perm))) == inst.matches

    def test_family_matches_agrees_with_the_instances_up_to_order_7(self, order7_classes):
        pool = [g for n in range(1, 7) for g in enumerate_graphs(n)] + order7_classes
        for g in pool:
            for theorem in TheoremId:
                if g.n < theorem.min_order:
                    continue
                expected = next(
                    (
                        inst.matches
                        for inst in instantiate_families(theorem, g.n)
                        if are_isomorphic(inst.graph, g)
                    ),
                    (),
                )
                assert family_matches(theorem, g) == expected, (theorem, write_graph6(g))

    def test_family_matches_builds_only_members_of_the_graphs_degree_sequence(self, monkeypatch):
        # the benchmark's analyze inputs: each matches at most one member,
        # and only the members that do are built
        from symbreak import catalog

        built = []
        build = catalog.construct_family

        def counted(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(catalog, "construct_family", counted)
        found = []
        for text in SYMMETRIC_INPUTS:
            g = parse_graph6(text) if text[0] == "I" else construct_family(parse_expression(text))
            for theorem in TheoremId:
                if g.n >= theorem.min_order:
                    found += [m.expression for m in family_matches(theorem, g)]
        assert found == ["K8", "K(4,4)", "K9", "E11"]
        assert len(built) == 4

    def test_classifying_c10_builds_each_blow_up_base_once(self, monkeypatch):
        # C10 is in no row; only the P4 bases of Dn3 rows 39-42 are built, to
        # read their degrees, and each once since their orders need no build
        from symbreak import catalog, graphs

        built = []
        build = graphs.construct_family

        def counted(spec):
            built.append(spec.kind)
            return build(spec)

        monkeypatch.setattr(graphs, "construct_family", counted)
        monkeypatch.setattr(catalog, "construct_family", counted)
        classify_graph(cycle_graph(10))
        assert built == ["path"] * 4

    def test_d_n_minus_1_at_order_4(self):
        pool = catalog_graphs(TheoremId.DN1, 4)
        expected = [
            cycle_graph(4),
            complete_multipartite_graph(3, 1),
            disjoint_union(complete_graph(2), complete_graph(2)),
            disjoint_union(complete_graph(3), complete_graph(1)),
        ]
        assert len(pool) == 4
        for g in expected:
            assert contains_isomorph(pool, g)

    def test_d_n_minus_1_at_order_5(self):
        pool = catalog_graphs(TheoremId.DN1, 5)
        assert len(pool) == 2
        assert contains_isomorph(pool, complete_multipartite_graph(4, 1))
        assert contains_isomorph(pool, disjoint_union(complete_graph(4), complete_graph(1)))

    def test_d_n_minus_2_at_order_5_includes_c5_and_split_graph(self):
        pool = catalog_graphs(TheoremId.DN2, 5)
        assert contains_isomorph(pool, cycle_graph(5))
        assert contains_isomorph(pool, construct_family(parse_expression("J(K2,E3)")))

    def test_overlapping_templates_are_merged_with_aliases(self):
        # at order 4 the templates "K2 + empty pair" and "clique + empty pair"
        # both land on the diamond
        for inst in instantiate_families(TheoremId.DN2, 4):
            if are_isomorphic(inst.graph, construct_family(parse_expression("J(K2,E2)"))):
                assert len(inst.matches) >= 2
                entries = {m.entry for m in inst.matches}
                assert {9, 11} <= entries
                break
        else:
            pytest.fail("diamond missing from the order-4 catalog")

    def test_entries_record_parameters(self):
        for inst in instantiate_families(TheoremId.DN1, 6):
            for match in inst.matches:
                assert match.theorem is TheoremId.DN1
                assert match.t == 5
                assert match.expression

    def test_below_minimum_order(self):
        with pytest.raises(TheoremNotApplicableError):
            instantiate_families(TheoremId.DN2, 3)
        with pytest.raises(TheoremNotApplicableError):
            instantiate_families(TheoremId.DN3, 4)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_instances_are_pairwise_non_isomorphic(self, n):
        pool = catalog_graphs(TheoremId.DN2, n)
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                assert not are_isomorphic(pool[i], pool[j])


class TestClassify:
    def test_c4_report(self):
        report = classify_graph(cycle_graph(4))
        assert report.distinguishing == 3 == report.n - 1
        assert (TheoremId.DN1, 1) in {(m.theorem, m.entry) for m in report.matches}

    def test_p4_report(self):
        report = classify_graph(path_graph(4))
        assert report.distinguishing == 2 == report.n - 2
        assert (TheoremId.DN2, 2) in {(m.theorem, m.entry) for m in report.matches}

    def test_p5_report(self):
        report = classify_graph(path_graph(5))
        assert report.distinguishing == 2 == report.n - 3
        assert report.in_family_f
        assert (TheoremId.DN3, 1) in {(m.theorem, m.entry) for m in report.matches}

    def test_disconnected_graph_has_no_dim(self):
        report = classify_graph(disjoint_union(complete_graph(2), complete_graph(2)))
        assert report.dim is None
        assert not report.connected
        assert report.distinguishing == 3

    def test_report_serialises(self):
        payload = classify_graph(cycle_graph(5)).to_dict()
        assert payload["D"] == 3
        assert payload["dim"] == 2
        assert any(m["theorem"] == "Dn2" for m in payload["matches"])


def erratum_instances(theorem, n):
    return [
        inst
        for inst in instantiate_families(theorem, n)
        if any(m.erratum for m in inst.matches)
    ]


#: The order-8 graphs with D = 5 inside coverage that no paper row of Dn3 holds.
ORDER_8_DN3_MISSES = ("G??Bzw", "G??Bz{", "GB\\zz{", "G???N{", "G@Kx~{", "GJ\\{F{")
ORDER_9_DN3_MISSES = ("H???B|}", "H???B|~", "HB\\zz|~", "H????F~", "H@Kxx~~", "HJ\\z{B~")


class TestErrata:
    def test_errata_are_numbered_after_the_paper_rows(self):
        for theorem, rows in ERRATA.items():
            paper = {
                m.entry
                for n in range(theorem.min_order, 9)
                for inst in instantiate_families(theorem, n)
                for m in inst.matches
                if not m.erratum
            }
            assert min(row.index for row in rows) == max(paper) + 1

    def test_paper_rows_alone_miss_the_order_5_pair(self):
        report = check_characterization(TheoremId.DN2, 5, errata=False)
        assert {m.graph6 for m in report.mismatches} == {"DBW", "DK{"}
        assert check_characterization(TheoremId.DN2, 5).passed

    def test_paper_rows_alone_equal_the_catalog_with_errata_withheld(self, request):
        paper = {
            (tid, n): check_characterization(tid, n, errata=False).to_dict()
            for tid in ERRATA
            for n in (5, 6)
        }
        request.getfixturevalue("errata_withheld")
        withheld = {key: check_characterization(*key).to_dict() for key in paper}
        for payload in (*paper.values(), *withheld.values()):
            del payload["elapsed_seconds"]
        assert paper == withheld

    @pytest.mark.parametrize("theorem", [TheoremId.DN2, TheoremId.DN3])
    @pytest.mark.parametrize("n", [7, 8])
    def test_errata_attain_the_value_beyond_the_scanned_orders(self, theorem, n):
        # an empty population leaves the forward direction only: every
        # catalog graph, errata included, has D = n - offset
        report = check_characterization(theorem, n, graphs=[])
        assert report.passed, [m.to_dict() for m in report.mismatches]
        if theorem is TheoremId.DN3:
            assert erratum_instances(theorem, n)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_dn3_errata_lie_in_coverage_and_never_repeat_a_paper_row(self, n):
        errata = erratum_instances(TheoremId.DN3, n)
        assert errata
        for inst in errata:
            assert all(m.erratum for m in inst.matches), inst.matches
            assert in_family_f(inst.graph)
            assert distinguishing_number(inst.graph) == n - 3

    @pytest.mark.parametrize(
        "theorem,n",
        [(TheoremId.DN2, 5), (TheoremId.DN3, 5), (TheoremId.DN3, 6), (TheoremId.DN3, 7)],
    )
    def test_oracle_agrees_on_every_erratum_graph(self, theorem, n):
        errata = erratum_instances(theorem, n)
        assert errata
        for inst in errata:
            expected = n - theorem.offset
            assert brute_distinguishing_number(inst.graph) == expected, write_graph6(inst.graph)

    def test_order_7_file_holds_every_class(self, order7_classes):
        # 1,044 pairwise non-isomorphic graphs are all the classes (OEIS A000088)
        assert len(order7_classes) == 1044 and all(g.n == 7 for g in order7_classes)
        assert len({canonical_value(g) for g in order7_classes}) == 1044

    @pytest.mark.parametrize("theorem", list(ERRATA))
    def test_amended_catalogs_pass_over_every_order_7_class(self, theorem, order7_classes):
        report = check_characterization(theorem, 7, graphs=order7_classes)
        assert report.scanned == 1044
        assert report.passed, [m.to_dict() for m in report.mismatches]

    def test_paper_rows_miss_exactly_the_order_7_errata(self, order7_classes):
        report = check_characterization(TheoremId.DN3, 7, graphs=order7_classes, errata=False)
        missed = {canonical_value(parse_graph6(m.graph6)) for m in report.mismatches}
        errata = erratum_instances(TheoremId.DN3, 7)
        assert len(errata) == 8
        assert missed == {canonical_value(inst.graph) for inst in errata}

    def test_order_8_file_holds_every_class(self, order8_classes):
        # 12,346 pairwise non-isomorphic graphs are all the classes (OEIS A000088)
        assert len(order8_classes) == 12346 and all(g.n == 8 for g in order8_classes)
        assert len({canonical_value(g) for g in order8_classes}) == 12346

    def test_paper_rows_miss_exactly_six_order_8_errata(self, order8_classes):
        report = check_characterization(TheoremId.DN3, 8, graphs=order8_classes, errata=False)
        assert [m.graph6 for m in report.mismatches] == list(ORDER_8_DN3_MISSES)
        for line in ORDER_8_DN3_MISSES:
            matches = family_matches(TheoremId.DN3, parse_graph6(line))
            assert matches and all(m.erratum for m in matches), line

    def test_amended_dn3_passes_over_every_order_8_class(self, order8_classes):
        report = check_characterization(TheoremId.DN3, 8, graphs=order8_classes)
        assert report.scanned == 12346
        assert report.passed, [m.to_dict() for m in report.mismatches]
        assert (report.matched, report.excluded) == (30, [])

    @pytest.mark.parametrize(
        ("theorem", "computed"),
        [(TheoremId.DN, 22), (TheoremId.DN1, 32), (TheoremId.DN2, 96), (TheoremId.DN3, 142)],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_order_8_scan_computes_d_only_where_a_cell_is_large_enough(
        self, monkeypatch, order8_classes, theorem, computed
    ):
        # the reverse scan skips every graph whose coarsest equitable partition
        # has no cell of 8 - offset vertices; the catalog's own graphs are not counted
        scanned = {id(g) for g in order8_classes}
        calls = []

        def counted(g):
            if id(g) in scanned:
                calls.append(g)
            return distinguishing_number(g)

        monkeypatch.setattr("symbreak.verify.distinguishing_number", counted)
        report = check_characterization(theorem, 8, graphs=order8_classes)
        assert report.scanned == 12346 and report.passed
        assert len(calls) == computed

    @pytest.mark.parametrize("line", ORDER_8_DN3_MISSES)
    def test_oracle_agrees_on_every_order_8_miss(self, line):
        assert brute_distinguishing_number(parse_graph6(line)) == 5

    def test_order_9_file_holds_the_classes_with_d_at_least_5(self, order9_high_d):
        # 184 pairwise non-isomorphic graphs: 2, 2, 8, 28 and 144 with D = 9 - k
        assert len(order9_high_d) == 184 and all(g.n == 9 for g in order9_high_d)
        assert len({canonical_value(g) for g in order9_high_d}) == 184
        counts = Counter(9 - distinguishing_number(g) for g in order9_high_d)
        assert counts == {0: 2, 1: 2, 2: 8, 3: 28, 4: 144}

    def test_paper_rows_miss_exactly_six_order_9_errata(self, order9_high_d):
        report = check_characterization(TheoremId.DN3, 9, graphs=order9_high_d, errata=False)
        assert [m.graph6 for m in report.mismatches] == list(ORDER_9_DN3_MISSES)
        rows = []
        for line in ORDER_9_DN3_MISSES:
            (match,) = family_matches(TheoremId.DN3, parse_graph6(line))
            assert match.erratum and match.t == 6, line
            rows.append(match.entry)
        assert sorted(rows) == [43, 44, 45, 46, 47, 48]

    @pytest.mark.parametrize("theorem", list(TheoremId))
    def test_amended_catalogs_pass_over_order_9(self, theorem, order9_high_d):
        # the file holds every order-9 class with D >= 5, so each catalog's
        # reverse direction sees every graph it must match
        report = check_characterization(theorem, 9, graphs=order9_high_d)
        assert report.scanned == 184
        assert report.passed, [m.to_dict() for m in report.mismatches]
        assert report.excluded == []

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_cone_over_two_cliques_has_d_t_plus_1(self, t):
        g = construct_family(parse_expression(f"J(K1,2*K{t})"))
        assert distinguishing_number(g) == t + 1
        report = classify_graph(g)
        expected = {2: {(TheoremId.DN2, 15)}, 3: {(TheoremId.DN3, 50)}, 4: set()}[t]
        assert {(m.theorem, m.entry) for m in report.matches} == expected

    def test_only_erratum_matches_carry_the_flag(self):
        paper = classify_graph(cycle_graph(5)).to_dict()["matches"]
        assert {"theorem": "Dn2", "entry": 1, "t": None, "family": "C5"} in paper
        assert all("erratum" not in m for m in paper)
        bull = classify_graph(construct_family(parse_expression("bull"))).to_dict()
        assert bull["matches"] == [
            {"theorem": "Dn3", "entry": 49, "t": None, "family": "bull", "erratum": True}
        ]


class TestCoveragePredicate:
    def test_p5_is_covered(self):
        assert in_family_f(path_graph(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_tiny_graphs_are_covered(self, n):
        for g in enumerate_graphs(n):
            assert in_family_f(g)

    def test_c6_falls_in_the_excluded_region(self):
        # dimension 2 = n - 4, diameter 3, six twin classes
        assert not in_family_f(cycle_graph(6))

    def test_excluded_graphs_exist_at_order_6_and_are_reported(self):
        flagged = [g for g in enumerate_graphs(6) if not in_family_f(g)]
        assert flagged, "the excluded region is non-empty at order 6"


class TestConstruction:
    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    def test_prescribed_invariants(self, a, b):
        g = construction_graph(a, b)
        assert distinguishing_number(g) == a
        assert metric_dimension(g).dim == b

    @pytest.mark.parametrize("b", range(2, 10))
    def test_prescribed_invariants_up_to_dimension_9(self, b):
        # b = 9 reaches 56 vertices (the broom tree T10), far above the
        # 16-vertex cap on listing Aut(G)
        for a in range(1, b):
            g = construction_graph(a, b)
            assert (distinguishing_number(g), metric_dimension(g).dim) == (a, b)

    def test_order_of_the_largest_case(self):
        assert construction_graph(1, 4).n == 16

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            construction_graph(2, 2)
        with pytest.raises(GraphError):
            construction_graph(0, 3)
