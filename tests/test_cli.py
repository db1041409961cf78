"""End-to-end coverage of the command-line interface."""

import contextlib
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symbreak
from symbreak import broom_tree, construct_family, load_graph6_file, parse_expression, write_graph6
from symbreak.cli import _COMMANDS, _GRAMMAR, main
from symbreak.resolving import ResolvingWitness
from symbreak.symmetry import class_symmetries

from conftest import graphs


def build(text):
    return construct_family(parse_expression(text))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_c5_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "C5")
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == 3
        assert payload["dim"] == 2
        assert {"theorem": "Dn2", "entry": 1, "t": None, "family": "C5"} in payload["matches"]

    def test_balanced_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "K(3,3)")
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == 4 and payload["dim"] == 4

    def test_graph6_input_of_a_broom_tree(self, capsys):
        line = write_graph6(broom_tree(4))
        code, out, _ = run_cli(capsys, "analyze", line)
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == 1 and payload["dim"] == 3

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "P4", "--format", "text")
        assert code == 0
        assert "D: 2" in out and "dim: 1" in out

    def test_erratum_match_is_labelled(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "J(K1,2*K2)", "--format", "text")
        assert code == 0
        assert "matched: Dn2 entry 15  J(K1,2*K2) (erratum)" in out
        code, out, _ = run_cli(capsys, "analyze", "P4", "--format", "text")
        assert "(erratum)" not in out

    def test_text_format_says_when_no_row_matches(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "P6", "--format", "text")
        assert code == 0
        assert out.splitlines()[-1] == "matched: none"

    def test_unparsable_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "totally bogus ###")
        assert code == 2
        assert "error" in err

    def test_a_blow_up_with_too_few_pieces_exits_2_naming_the_position(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "B(P4,K1)")
        assert code == 2
        assert "blow_up needs 4 pieces, one per base vertex, got 1 at position 8" in err

    @pytest.mark.parametrize("expression", ["B(64*64*64*64*K64,K1)", "B(~(64*64*64*K64),K1)"])
    def test_a_blow_up_of_a_huge_base_exits_2_at_once(self, capsys, expression):
        # the base's order, 64**5 or 64**4, is counted without listing its vertices
        start = time.process_time()
        code, _, err = run_cli(capsys, "analyze", expression)
        assert time.process_time() - start < 1.0
        assert code == 2 and "position" in err

    def test_a_blow_up_part_may_be_any_expression(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "B(P4,C5,K1,U(K1,K2),E3)")
        assert code == 0 and json.loads(out)["graph6"] == "KhfwGGD?wF?["

    @pytest.mark.parametrize(
        "expression",
        ["P0", "C2", "T2", "K(0,3)", "U(K1,C2)", "B(P4,E0,K1,K1,K1)", "U(K40,K25)", "64*64*K1"],
    )
    def test_a_refused_expression_exits_2_naming_the_position(self, capsys, expression):
        code, out, err = run_cli(capsys, "analyze", expression)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and " at position " in err and f" in {expression!r}" in err

    def test_an_expression_that_cannot_be_graph6_gets_only_its_own_complaint(self, capsys):
        # '(' is byte 40, outside graph6's 63..126, so graph6 has nothing to add
        code, _, err = run_cli(capsys, "analyze", "B(P4,K1)")
        assert code == 2
        expected = "blow_up needs 4 pieces, one per base vertex, got 1 at position 8 in 'B(P4,K1)'"
        assert err == f"error: {expected}\n"

    def test_a_text_that_could_be_graph6_gets_both_complaints(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "bul")
        assert code == 2
        assert err == (
            "error: input is neither a family expression (expected a family expression at "
            "position 0 in 'bul') nor graph6 (graph6 body for order 35 must be 100 bytes, got 2)\n"
        )

    @pytest.mark.parametrize(
        "expression, stage, budget",
        [
            # a labelled group of 10! elements, listed one candidate image at a time
            ("K(2,2,2,2,2,2,2,2,2,2)", "isometry", 2_000_000),
            # 23 classes whose 10,000-element group is listed first; the coloring
            # search then needs 59 color sets, one more than this budget allows
            ("U(C5,J(K1,C5),J(K2,C5),J(E2,C5))", "coloring", 58),
        ],
    )
    def test_search_over_its_budget_exits_3(self, capsys, monkeypatch, expression, stage, budget):
        start = time.process_time()
        if stage == "coloring":
            class_symmetries(build(expression))
        monkeypatch.setattr("symbreak.graphs.SEARCH_MAX_STEPS", budget)
        code, out, err = run_cli(capsys, "analyze", expression)
        assert time.process_time() - start < 5.0
        assert code == 3 and out == ""
        assert f"error: {stage} search over its {budget:,}-step budget" in err

    @pytest.mark.parametrize(
        "expression, d",
        [("K(5,5,5,5,5,5,5,5)", 7), ("U(C5,J(K1,C5),J(K2,C5),J(E2,C5))", 3), ("8*K(2,3)", 4)],
    )
    def test_large_labelled_groups_are_answered(self, capsys, expression, d):
        # labelled groups of 8!, 10,000 and 8! elements; each was refused when
        # the coloring search scanned every tuple of color sets
        start = time.process_time()
        code, out, _ = run_cli(capsys, "analyze", expression)
        assert time.process_time() - start < 5.0
        assert code == 0 and json.loads(out)["D"] == d

    @pytest.mark.parametrize(
        "expression, d, dim",
        [
            ("K(9,9)", 10, 16),
            ("K9", 9, 8),
            ("E11", 11, None),
            ("J(K1,U(K1,K2,K3,K4,K5,K6,K7,K8,K9,K10))", 10, 45),
            ("T8", 1, 7),
            ("C20", 2, 2),
            ("P64", 2, 1),
        ],
    )
    def test_large_twin_classes_are_answered(self, capsys, expression, d, dim):
        # none of these lists Aut(G); the 56-vertex join's twin graph is a star
        # whose unlabelled group has 10! elements and whose labelled group is trivial
        start = time.process_time()
        code, out, _ = run_cli(capsys, "analyze", expression)
        assert time.process_time() - start < 1.0
        assert code == 0
        payload = json.loads(out)
        assert (payload["D"], payload["dim"]) == (d, dim)

    @pytest.mark.parametrize(
        "expression, line",
        [
            ("E11", "matched: Dn entry 2 t=11  E11"),
            ("J(K1,U(K2,E40))", "matched: Dn3 entry 43 t=40  J(K1,U(K2,E40)) (erratum)"),
            ("K64", "matched: Dn entry 1 t=64  K64"),
        ],
    )
    def test_catalogs_are_matched_at_every_order(self, capsys, expression, line):
        code, out, _ = run_cli(capsys, "analyze", expression, "--format", "text")
        assert code == 0
        assert [row for row in out.splitlines() if row.startswith("matched:")] == [line]


class TestVerify:
    def test_bound_over_small_orders(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bound", "--n", "1..5")
        assert code == 0
        reports = json.loads(out)
        assert [r["order"] for r in reports] == [1, 2, 3, 4, 5]
        assert all(r["verdict"] == "PASS" for r in reports)

    def test_d_n_minus_1_catalog_at_order_4(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Dn1", "--n", "4", "--format", "text")
        assert code == 0
        assert "[PASS] Dn1 n=4" in out
        assert "matched=4" in out

    def test_construction(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "construction", "--max", "3")
        assert code == 0
        (report,) = json.loads(out)
        assert report["scanned"] == 3 and report["verdict"] == "PASS"

    def test_construction_reads_max_4_when_none_is_given(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "construction")
        assert code == 0
        (report,) = json.loads(out)
        assert report["scanned"] == 6 and report["verdict"] == "PASS"

    @pytest.mark.parametrize("flag", ["--n", "--graph6-file"])
    def test_construction_refuses_n_and_graph6_file(self, capsys, order7_path, flag):
        # the construction pairs are fixed by --max: both flags used to be ignored
        value = {"--n": "5", "--graph6-file": order7_path}[flag]
        code, out, err = run_cli(capsys, "verify", "construction", "--max", "3", flag, value)
        assert code == 2 and out == ""
        assert f"error: verify construction takes no {flag}" in err

    def test_construction_up_to_37_vertices(self, capsys):
        # construction_graph(1, 7) is the 37-vertex broom tree T8
        code, out, _ = run_cli(capsys, "verify", "construction", "--max", "7")
        assert code == 0
        (report,) = json.loads(out)
        assert (report["scanned"], report["matched"], report["verdict"]) == (21, 21, "PASS")

    def test_catalog_gap_is_reported_with_counterexamples(self, capsys, errata_withheld):
        # with the errata withheld the catalog is the paper's 14 rows, which
        # the order-5 scan finds incomplete
        for flags in ((), ("--errata",)):
            code, out, _ = run_cli(capsys, "verify", "Dn2", "--n", "5", *flags)
            assert code == 1
            (report,) = json.loads(out)
            assert report["verdict"] == "FAIL"
            flagged = {m["graph6"] for m in report["mismatches"]}
            assert flagged == {"DBW", "DK{"}

    def test_errata_close_every_scanned_gap(self, capsys, order7_path):
        # by default verify checks the paper's rows and still reports the gap
        code, out, _ = run_cli(capsys, "verify", "Dn2", "--n", "5")
        assert code == 1
        (report,) = json.loads(out)
        assert {m["graph6"] for m in report["mismatches"]} == {"DBW", "DK{"}
        code, out, _ = run_cli(capsys, "verify", "Dn2", "--n", "5", "--errata")
        assert code == 0
        (report,) = json.loads(out)
        assert report["verdict"] == "PASS" and report["matched"] == 13
        for target, orders in (("Dn2", "4..6"), ("Dn3", "5..6")):
            code, out, _ = run_cli(capsys, "verify", target, "--n", orders, "--errata")
            assert code == 0, out
        argv = ["verify", "Dn3", "--n", "7", "--graph6-file", order7_path]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        (report,) = json.loads(out)
        assert [m["graph6"] for m in report["mismatches"]] == ["F~aKW"]  # J(K1,2*K3)
        code, out, _ = run_cli(capsys, *argv, "--errata")
        assert code == 0
        (report,) = json.loads(out)
        assert report["verdict"] == "PASS" and report["matched"] == 4

    def test_not_applicable_orders_are_skipped(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Dn2", "--n", "3..4")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["verdict"] == "NOT_APPLICABLE"
        assert reports[1]["verdict"] == "PASS"

    def test_not_applicable_orders_are_skipped_in_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Dn3", "--n", "4..5", "--format", "text")
        assert code == 1  # the paper's rows miss three graphs of order 5
        lines = out.splitlines()
        assert lines[0] == "[SKIP] Dn3 n=4: Dn3 applies to orders >= 5, got 4"
        assert lines[1].startswith("[FAIL] Dn3 n=5: scanned=34 matched=14 mismatches=3 ")

    @pytest.mark.parametrize(
        "argv, wrong, mismatches",
        [
            pytest.param(
                ["bound", "--n", "3"],
                {"distinguishing_number": lambda g: 5, "is_distinguishing": lambda g, coloring: False},
                [("BW", "D <= dim+1 = 2", "D = 5"),
                 ("BW", "resolving-set coloring distinguishes", "it does not"),
                 ("Bw", "D <= dim+1 = 3", "D = 5"),
                 ("Bw", "resolving-set coloring distinguishes", "it does not")],
                id="bound",
            ),
            pytest.param(
                ["construction", "--max", "2"],
                {"metric_dimension": lambda g: ResolvingWitness(0, ())},
                [("Fp_GG", "D=1 dim=2", "D=1 dim=0")],
                id="construction",
            ),
            pytest.param(
                ["Dn", "--n", "4"],
                {"distinguishing_number": lambda g: 1},
                [("C~", "D = 4 (K4)", "D = 1"), ("C?", "D = 4 (E4)", "D = 1")],
                id="catalog-row",
            ),
        ],
    )
    def test_a_wrong_answer_fails_with_its_counterexamples(
        self, capsys, monkeypatch, argv, wrong, mismatches
    ):
        for name, fake in wrong.items():
            monkeypatch.setattr(f"symbreak.verify.{name}", fake)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1
        (report,) = json.loads(out)
        assert report["verdict"] == "FAIL" and report["matched"] == 0
        assert [(m["graph6"], m["expected"], m["actual"]) for m in report["mismatches"]] == mismatches
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "text")
        assert code == 1 and out.startswith("[FAIL] ")
        assert out.splitlines()[1:] == [
            f"    counterexample {g6}: expected {expected}, got {actual}"
            for g6, expected, actual in mismatches
        ]

    def test_graphs_outside_coverage_are_excluded_not_asserted(self, capsys, monkeypatch):
        monkeypatch.setattr("symbreak.verify.in_family_f", lambda g: False)
        code, out, _ = run_cli(capsys, "verify", "Dn3", "--n", "5")
        assert code == 0
        (report,) = json.loads(out)
        assert (report["verdict"], report["matched"], report["mismatches"]) == ("PASS", 0, [])
        # the 14 paper-row instances of order 5, then the 17 graphs of order 5
        # with D = 2 that the unpatched scan matches (14) or flags (3)
        forward = [note for note in report["excluded"] if note.startswith("catalog ")]
        assert forward[0] == "catalog DhC outside coverage, not asserted"
        assert report["excluded"][:14] == forward and len(report["excluded"]) == 31
        assert report["excluded"][14] == "D?K has D = 2 but lies outside coverage"
        code, out, _ = run_cli(capsys, "verify", "Dn3", "--n", "5", "--format", "text")
        assert code == 0
        assert out.splitlines()[1:] == [f"    excluded: {note}" for note in report["excluded"]]

    @pytest.mark.parametrize(
        ("target", "orders", "first"), [("Dn2", "1..3", 4), ("Dn3", "4", 5), ("Dn3", "1..4", 5)]
    )
    def test_orders_below_the_catalog_exit_2(self, capsys, target, orders, first):
        # every order would print NOT_APPLICABLE, so the run would check nothing and pass
        code, out, err = run_cli(capsys, "verify", target, "--n", orders)
        assert code == 2 and out == ""
        assert f"{target} applies to orders >= {first}; --n {orders} selects none" in err

    def test_missing_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bound")
        assert code == 2

    def test_unparsable_order_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "bound", "--n", "abc")
        assert code == 2 and out == ""
        assert "--n" in err and "'abc'" in err

    def test_empty_order_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "Dn3", "--n", "6..5")
        assert code == 2 and out == ""
        assert "--n 6..5" in err

    @pytest.mark.parametrize("largest", ["1", "0", "-5"])
    def test_construction_max_below_two_exits_2(self, capsys, largest):
        # no pair 1 <= a < b exists, so the check would pass having scanned nothing
        code, out, err = run_cli(capsys, "verify", "construction", "--max", largest)
        assert code == 2 and out == ""
        assert f"--max must be at least 2, got {largest}" in err

    def test_construction_max_above_nine_exits_3_before_any_pair(self, capsys, monkeypatch):
        # construction_graph(1, 10) would need 67 vertices, above the 64-vertex cap
        def no_pair(*args, **kwargs):
            raise AssertionError("a construction pair was built")

        monkeypatch.setattr("symbreak.cli.check_construction", no_pair)
        monkeypatch.setattr("symbreak.verify.construction_graph", no_pair)
        code, out, err = run_cli(capsys, "verify", "construction", "--max", "10")
        assert code == 3 and out == ""
        assert "--max 10" in err and "above 9" in err

    def test_catalogs_are_checked_above_order_10_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "large.g6"
        lines = [write_graph6(build(f"U(K{n - 1},K1)")) for n in (11, 40, 64)]
        path.write_text("\n".join(lines) + "\n")
        # each file graph has D = n - 1, so only Dn1 matches it
        for target in ("Dn", "Dn1", "Dn2", "Dn3"):
            argv = ["verify", target, "--n", "11..64", "--graph6-file", str(path)]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == "", (target, err)
            reports = json.loads(out)
            assert [report["order"] for report in reports] == [11, 40, 64]
            assert [report["matched"] for report in reports] == [int(target == "Dn1")] * 3

    @pytest.mark.parametrize("target", ["bound", "Dn"])
    def test_negative_orders_exit_2(self, capsys, target):
        code, out, err = run_cli(capsys, "verify", target, "--n", "-1")
        assert code == 2 and out == ""
        assert "--n orders must be at least 1, got '-1'" in err

    @pytest.mark.parametrize("target", ["bound", "Dn", "Dn3"])
    @pytest.mark.parametrize("orders", ["0", "0..3"])
    def test_order_zero_exits_2(self, capsys, target, orders):
        # order 0 has no vertices: it used to reach a solver, or print NOT_APPLICABLE and pass
        code, out, err = run_cli(capsys, "verify", target, "--n", orders)
        assert code == 2 and out == ""
        assert f"--n orders must be at least 1, got '{orders}'" in err

    def test_orders_absent_from_the_file_exit_2(self, capsys, order7_path):
        argv = ["verify", "Dn3", "--graph6-file", order7_path]
        code, out, err = run_cli(capsys, *argv, "--n", "9")
        assert code == 2 and out == ""
        assert order7_path in err
        # a range that reaches the file's order still skips the missing ones
        code, out, _ = run_cli(capsys, *argv, "--n", "6..8")
        assert [report["order"] for report in json.loads(out)] == [7]

    def test_huge_order_ranges_stay_lazy(self, capsys, order7_path):
        # the range is never listed: without a file the scan stops at the
        # enumeration cap, and a file picks its own orders out of the range
        huge = f"1..{10**24}"
        code, out, err = run_cli(capsys, "verify", "bound", "--n", huge)
        assert code == 3 and out == ""
        assert "enumeration is capped" in err
        argv = ["verify", "bound", "--n", f"7..{10**24}", "--graph6-file", order7_path]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [report["order"] for report in json.loads(out)] == [7]

    @pytest.mark.parametrize(
        "target, check", [("bound", "check_bound"), ("Dn3", "check_characterization")]
    )
    def test_ranges_over_the_cap_are_refused_before_any_scan(
        self, capsys, monkeypatch, target, check
    ):
        def no_scan(*args, **kwargs):
            raise AssertionError("an order was scanned")

        monkeypatch.setattr(f"symbreak.cli.{check}", no_scan)
        code, out, err = run_cli(capsys, "verify", target, "--n", "1..8")
        assert code == 3 and out == ""
        assert "enumeration is capped at order 7" in err

    @pytest.mark.parametrize("target", ["Dn2", "Dn3"])
    def test_order_7_scan_matches_the_class_file(self, capsys, target):
        # the internal order-7 enumeration and the file of all 1,044 classes
        # give one report, up to its timing
        path = os.path.join(os.path.dirname(__file__), "data", "order7_classes.g6")
        reports = []
        for source in ([], ["--graph6-file", path]):
            code, out, _ = run_cli(capsys, "verify", target, "--n", "7", "--errata", *source)
            assert code == 0
            (report,) = json.loads(out)
            report.pop("elapsed_seconds")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["scanned"] == 1044 and reports[0]["verdict"] == "PASS"

    def test_bound_from_a_graph6_file(self, capsys, order7_path):
        code, out, _ = run_cli(
            capsys, "verify", "bound", "--n", "7", "--graph6-file", order7_path
        )
        assert code == 0
        (report,) = json.loads(out)
        assert report["verdict"] == "PASS"
        assert report["scanned"] == 10  # connected members of the file

    @pytest.mark.parametrize(
        "content, where",
        [
            # a non-ASCII byte (UTF-8 for e-acute) on line 3, after a blank line
            ("C~\n\nD\u00e9\n".encode("utf-8"), "3: byte 195 out of the graph6 range"),
            (b"C~\nC~~\n", "2: graph6 body for order 4 must be 1 bytes, got 2"),
            (b"C~\n~?\n", "2: truncated graph6 long-form header"),
            (b"~?@@\n", "1: graph6 order 65 exceeds the 64-vertex cap"),
        ],
    )
    def test_graph6_file_errors_exit_2_naming_the_line(self, capsys, tmp_path, content, where):
        path = tmp_path / "input.g6"
        path.write_bytes(content)
        for argv in (["verify", "bound", "--n", "4"], ["enumerate", "--n", "4"]):
            code, out, err = run_cli(capsys, *argv, "--graph6-file", str(path))
            assert code == 2 and out == ""
            assert f"{path}:{where}" in err

    def test_graph6_file_header_is_skipped(self, capsys, tmp_path):
        # nauty's -h writes >>graph6<< at the start of the first line
        plain, headed = tmp_path / "plain.g6", tmp_path / "headed.g6"
        plain.write_bytes(b"C~\nCF\nCr\n")
        headed.write_bytes(b">>graph6<<C~\nCF\nCr\n")
        assert load_graph6_file(str(headed)) == load_graph6_file(str(plain))
        outputs = []
        for path in (plain, headed):
            code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--graph6-file", str(path))
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 4

    def test_unreadable_graph6_file_exits_2_naming_the_path(self, capsys, tmp_path):
        # an OSError on the input is bad input; only a closed stdout is not
        for path in (tmp_path / "missing.g6", tmp_path):
            code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--graph6-file", str(path))
            assert code == 2 and out == ""
            assert str(path) in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        for argv in (["verify", "Dn", "--n", "4"], ["enumerate", "--n", "4"]):
            code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
            assert code == 2 and out == ""
            assert f"--jobs must be at least 1, got {jobs}" in err

    def test_jobs_above_the_cpu_count_are_clamped(self, capsys, monkeypatch):
        # with one CPU, --jobs 4 must run serially: a pool would fail here
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, out, _ = run_cli(capsys, "verify", "Dn", "--n", "4", "--jobs", "4")
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "PASS"

    def test_jobs_flag_matches_serial_run(self, capsys):
        code, serial, _ = run_cli(capsys, "verify", "Dn", "--n", "4")
        code2, parallel, _ = run_cli(capsys, "verify", "Dn", "--n", "4", "--jobs", "2")
        assert code == code2 == 0
        a, b = json.loads(serial), json.loads(parallel)
        for report in (*a, *b):
            report.pop("elapsed_seconds")
        assert a == b


class TestEnumerate:
    def test_row_count_at_order_4(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert rows[0]["graph6"]

    def test_filter_by_distinguishing_number(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--d", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == 4

    def test_filter_by_metric_dimension(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "--n", "5")
        every = list(csv.DictReader(io.StringIO(out)))
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--dim", "2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and rows == [row for row in every if row["dim"] == "2"]
        assert len(rows) < len(every)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_d_filter_over_every_order_7_class(self, capsys, d):
        # the rows of order7_invariants.csv (written before any scan was
        # pruned) with this D, in file order: skipping graphs that cannot
        # reach D drops no row and reorders none
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, "order7_invariants.csv"), newline="") as handle:
            expected = [
                [row["graph6"], "7", str(int(row["dim"] != "")), row["D"], row["dim"]]
                for row in csv.DictReader(handle)
                if row["D"] == str(d)
            ]
        path = os.path.join(data, "order7_classes.g6")
        code, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--graph6-file", path, "--d", str(d))
        assert code == 0 and expected
        assert list(csv.reader(io.StringIO(out))) == [["graph6", "n", "connected", "D", "dim"], *expected]

    def test_full_palette_rows_at_order_5(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--d", "5")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["graph6"] for row in rows} == {"D??", "D~{"}

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "enumerate", "--n", "5")
        _, second, _ = run_cli(capsys, "enumerate", "--n", "5")
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 4
        assert {"graph6", "n", "connected", "D", "dim"} <= set(rows[0])

    def test_negative_order_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "-1")
        assert code == 2 and out == ""
        assert "--n must be at least 1, got -1" in err

    def test_order_zero_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "0")
        assert code == 2 and out == ""
        assert "--n must be at least 1, got 0" in err

    def test_internal_bound_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "8")
        assert code == 3

    def test_graph6_file_without_the_order_exits_2(self, capsys, tmp_path):
        path = tmp_path / "order4.g6"
        path.write_text("C~\nCr\n")
        code, out, err = run_cli(capsys, "enumerate", "--n", "7", "--graph6-file", str(path))
        assert code == 2 and out == ""
        assert f"error: {path} has no graph of order 7" in err

    def test_graph6_file_unlocks_order_7(self, capsys, order7_path):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "7", "--graph6-file", order7_path
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15
        complete = next(row for row in rows if row["graph6"] == "F~~~w")
        assert complete["D"] == "7" and complete["dim"] == "6"


class TestConstructCommand:
    def test_prints_graph6(self, capsys):
        from symbreak import complete_multipartite_graph

        code, out, _ = run_cli(capsys, "construct", "K(3,3)")
        assert code == 0
        assert out.strip() == write_graph6(complete_multipartite_graph(3, 3))

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "J(K1,P4)", "--format", "json")
        payload = json.loads(out)
        assert payload["n"] == 5 and payload["edges"] == 7


class TestUsage:
    @pytest.mark.parametrize(
        "argv, name",
        [
            pytest.param(["analyze", "C5", "--bogus"], "unknown option --bogus", id="unknown-option"),
            pytest.param(["--bogus"], "unknown option --bogus", id="unknown-top-level-option"),
            # --d is exact, so only the empty name before '=' has two candidates
            pytest.param(["enumerate", "--n", "4", "--=5"], "ambiguous option --", id="ambiguous"),
            pytest.param(["verify", "bound", "--n"], "--n expects a value", id="value-missing"),
            pytest.param(
                ["verify", "bound", "--n", "--format", "json"], "--n expects a value",
                id="value-is-an-option",
            ),
            pytest.param(["verify", "construction", "--max", "x"], "--max", id="bad-int"),
            pytest.param(["enumerate", "--n", "four"], "--n", id="bad-int-order"),
            pytest.param(["analyze", "C5", "--format", "xml"], "--format", id="bad-choice"),
            pytest.param(["verify", "Dn2", "--n", "5", "--errata=yes"], "--errata", id="flag-value"),
            pytest.param(["verify", "bound", "--n", "4", "--errata"], "--errata", id="errata-on-bound"),
            pytest.param(["verify", "Dn", "--n", "4", "--errata"], "--errata", id="errata-on-Dn"),
            pytest.param(["verify", "Dn1", "--n", "4", "--errata"], "--errata", id="errata-on-Dn1"),
            pytest.param(
                ["verify", "construction", "--max", "3", "--errata", "--jobs", "1"], "--errata",
                id="errata-on-construction",
            ),
            pytest.param(
                ["verify", "bound", "--n", "4", "--max", "7"], "verify bound takes no --max",
                id="max-on-bound",
            ),
            pytest.param(
                ["verify", "Dn2", "--n", "4", "--max", "7"], "verify Dn2 takes no --max",
                id="max-on-Dn2",
            ),
            pytest.param(["analyze"], "INPUT", id="positional-missing"),
            pytest.param(["construct", "K3", "K4"], "K4", id="positional-extra"),
            pytest.param([], "command", id="no-command"),
            pytest.param(["analyse", "C5"], "analyse", id="unknown-command"),
            pytest.param(["verify", "Dn4", "--n", "4"], "Dn4", id="unknown-target"),
            pytest.param(["enumerate"], "enumerate needs --n", id="enumerate-without-n"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "P4", "--form", "text"],
            ["analyze", "P4", "--format=text"],
            ["analyze", "--format", "json", "P4", "--fo", "text"],
            ["analyze", "--format", "text", "--", "P4"],
        ],
    )
    def test_accepted_spellings(self, capsys, argv):
        # a unique prefix, name=value, options on either side, the last one winning, and --
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert "D: 2" in out and "dim: 1" in out

    def test_name_equals_value(self, capsys):
        assert run_cli(capsys, "enumerate", "--n=4") == run_cli(capsys, "enumerate", "--n", "4")

    @pytest.mark.parametrize(
        "argv",
        [[flag] for flag in ("-h", "--help", "--he")]
        + [[command, flag] for command in _COMMANDS for flag in ("-h", "--help")],
    )
    def test_help_lists_every_command_and_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        lines = [line.split() for line in out.splitlines() if line.strip()]
        for command, (_, _, options, _) in _COMMANDS.items():
            assert ["symbreak", command] in [words[:2] for words in lines]
            assert {name for name, _, _ in options} <= {words[0] for words in lines}
        assert _GRAMMAR in out


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports the package from
    its own source root, however pytest found it."""
    src = os.path.dirname(os.path.dirname(symbreak.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "symbreak.cli", "analyze", "C5"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["D"] == 3


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # start-up cost: dataclasses pulls in inspect, dis, ast and tokenize; the
    # process pool's module comes only when --jobs starts a pool; and the
    # option table needs neither argparse nor its gettext and locale lookups,
    # not even to reject a command line.  Run in a child because pytest
    # itself imports dataclasses.
    heavy = ("dataclasses", "inspect", "multiprocessing", "argparse", "gettext", "locale")
    code = (
        "import sys, symbreak.cli; symbreak.cli.main(['construct', 'C5']); "
        f"symbreak.cli.main(['--bogus']); print([m for m in {heavy!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_closed_stdout_exits_141_silently():
    # order 7 in JSON is about 97 KB, more than a 64 KB pipe holds, so the
    # command is still writing when the reader goes away after one byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "symbreak.cli", "enumerate", "--n", "7", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        bufsize=0,
    )
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


# --- CLI fuzzing -------------------------------------------------------------
#
# Every case runs main() in this process, so the inputs stay small.  Every
# integer in an expression is at most 3, and mutations insert no digit and
# delete nothing from an expression, so no expression names a graph above
# 14 vertices.  graph6 lines hold no digits, and a line mutated into a
# valid one stays below ten vertices.

_MUTATIONS = st.sampled_from([0, 0, 0, 1, 2])
_NO_DIGITS = st.characters(blacklist_characters="0123456789")
# '²' and '٣' pass str.isdigit(); int() rejects the first and reads the second.
_NOISE = st.one_of(st.sampled_from(list("()~*,'UJBKEPCTb ²٣\x00")), _NO_DIGITS)

_LEAVES = st.one_of(
    st.builds("{}{}".format, st.sampled_from("KEPC"), st.integers(0, 3)),
    st.sampled_from(["C5'", "bull", "T3", "K(1,2)", "K(2,2)", "K(3)", "K()"]),
)
_EXPRESSIONS = st.one_of(
    _LEAVES,
    st.builds("~{}".format, _LEAVES),
    st.builds("{}*{}".format, st.integers(0, 2), _LEAVES),
    st.builds("{}({},{})".format, st.sampled_from("UJ"), _LEAVES, _LEAVES),
    st.builds("B({},{})".format, _LEAVES, st.sampled_from(["K1", "E2", "K0", "X1"])),
)


@st.composite
def _mangled(draw, base, max_cut):
    text = draw(base)
    for _ in range(draw(_MUTATIONS)):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, max_cut))
        text = text[:at] + draw(st.text(_NOISE, max_size=2)) + text[at + cut :]
    return text


_GRAPH6_LINES = _mangled(st.builds(write_graph6, graphs(max_n=5)), max_cut=1)
_ORDERS = st.sampled_from(["0", "1", "3", "5", "-1", "7", "99", "abc", "", "3..2", "1..4", "2..5"])
_VOCABULARY = st.sampled_from(
    ["analyze", "verify", "enumerate", "construct", "bound", "Dn2", "--n", "--max", "--d",
     "--dim", "--format", "json", "csv", "text", "--errata", "--connected", "--graph6-file",
     "--jobs", "-h", "--", "7", "1..3"]
)


@st.composite
def _argv(draw, g6_path, missing_path):
    command = draw(st.sampled_from(["analyze", "construct", "verify", "enumerate"]))
    files = st.sampled_from([g6_path, missing_path, os.path.dirname(g6_path)])
    if command == "analyze":
        text = draw(st.one_of(_mangled(_EXPRESSIONS, max_cut=0), _GRAPH6_LINES))
        argv = [command, text, "--format", draw(st.sampled_from(["json", "text", "xml"]))]
    elif command == "construct":
        argv = [command, draw(_mangled(_EXPRESSIONS, max_cut=0))]
        argv += draw(st.sampled_from([[], ["--format", "json"]]))
    elif command == "verify":
        target = draw(st.sampled_from(["bound", "construction", "Dn", "Dn1", "Dn2", "Dn3", "Dn4"]))
        argv = [command, target]
        if target != "construction" or draw(st.booleans()):  # construction refuses --n
            argv += ["--n", draw(_ORDERS)]
        if target == "construction" or draw(st.booleans()):
            argv += ["--max", draw(st.sampled_from(["-5", "0", "1", "2", "3", "x"]))]
        if draw(st.booleans()):
            argv += ["--graph6-file", draw(files)]
        argv += draw(st.sampled_from([[], ["--errata"], ["--format", "text"]]))
    else:
        argv = [command, "--n", draw(_ORDERS)]
        argv += draw(st.sampled_from([[], ["--connected"], ["--d", "2"], ["--dim", "x"]]))
        if draw(st.booleans()):
            argv += ["--graph6-file", draw(files)]
    for _ in range(draw(_MUTATIONS)):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, draw(st.one_of(_VOCABULARY, st.text(_NO_DIGITS, max_size=6))))
    if argv and argv[0] in ("verify", "enumerate"):
        argv += ["--jobs", "1"]
    return argv


@given(data=st.data())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_malformed_input_ends_with_a_documented_exit_code(tmp_path, monkeypatch, data):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    g6_path = str(tmp_path / "input.g6")
    lines = data.draw(st.lists(_GRAPH6_LINES, max_size=4), label="graph6 lines")
    with open(g6_path, "w", encoding="utf-8", errors="surrogatepass") as handle:
        handle.write("\n".join(lines) + "\n")
    argv = data.draw(_argv(g6_path, str(tmp_path / "missing.g6")), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if code == 1:
        assert argv[0] == "verify" and "FAIL" in out.getvalue()
    if code in (2, 3):
        assert "error" in err.getvalue()
