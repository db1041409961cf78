"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 6 and 7 assert set equality between the brute-force scan and the
bundled catalogs, the paper's rows together with their labelled errata.
The order-5 and order-6 scans expose graphs the paper's rows do not
contain; those graphs are the errata rows (see the README), and a failing
assertion message lists any counterexample as a graph6 string.
"""

import os
import time

import pytest

from symbreak import (
    TheoremId,
    are_isomorphic,
    blow_up,
    check_bound,
    check_characterization,
    check_construction,
    complement,
    complete_graph,
    construction_graph,
    diameter,
    distinguishing_number,
    empty_graph,
    enumerate_graphs,
    metric_dimension,
    parse_graph6,
    path_graph,
    twin_graph,
    write_graph6,
)
from symbreak.symmetry import class_symmetries

from oracles import naive_metric_dimension

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

ORDER7_FILE = os.path.join(os.path.dirname(__file__), "data", "order7.g6")


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}{tail}")


def test_criterion_01_bound_and_landmark_coloring():
    start = time.perf_counter()
    failures = []
    scanned = 0
    for n in range(1, 7):
        result = check_bound(n)
        scanned += result.scanned
        assert result.scanned == CONNECTED_COUNTS[n]
        failures.extend(result.mismatches)
    elapsed = time.perf_counter() - start
    ok = not failures and scanned == 143
    report(1, "D <= dim+1 and landmark coloring distinguishes, n <= 6", ok,
           f"{scanned} graphs in {elapsed:.1f}s")
    assert ok, failures
    assert elapsed < 120


def test_criterion_02_paths_attain_the_bound():
    ok = True
    for n in range(2, 9):
        p = path_graph(n)
        dim = metric_dimension(p).dim
        d = distinguishing_number(p)
        ok = ok and d == dim + 1 == 2
    report(2, "D(P_n) = dim(P_n)+1 = 2 for n = 2..8", ok)
    assert ok


def test_criterion_03_construction_pairs():
    start = time.perf_counter()
    result = check_construction(4)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.scanned == 6
    biggest = construction_graph(1, 4)
    report(3, "constructed graphs hit D = a, dim = b for 1 <= a < b <= 4", ok,
           f"largest order {biggest.n}, {elapsed:.1f}s")
    assert ok, result.mismatches
    assert biggest.n == 16
    assert elapsed < 60


def test_criterion_04_full_palette_characterization():
    bad = []
    for n in range(1, 7):
        expected = {write_graph6(complete_graph(n)), write_graph6(empty_graph(n))}
        found = {
            write_graph6(g) for g in enumerate_graphs(n) if distinguishing_number(g) == n
        }
        if found != expected:
            bad.append((n, found, expected))
    report(4, "D = n exactly for the complete and empty graphs, n <= 6", not bad)
    assert not bad, bad


@pytest.mark.parametrize("n", [4, 5, 6])
def test_criterion_05_d_equals_n_minus_1_characterization(n):
    result = check_characterization(TheoremId.DN1, n)
    report(5, f"D = n-1 set equality at n = {n}", result.passed,
           f"{result.matched} matches")
    assert result.passed, [m.__dict__ for m in result.mismatches]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_criterion_06_d_equals_n_minus_2_characterization(n):
    result = check_characterization(TheoremId.DN2, n)
    report(6, f"D = n-2 set equality at n = {n}", result.passed,
           f"{result.matched} matches")
    assert result.passed, [m.__dict__ for m in result.mismatches]


@pytest.mark.parametrize("n", [5, 6])
def test_criterion_07_d_equals_n_minus_3_characterization(n):
    result = check_characterization(TheoremId.DN3, n)
    detail = f"{result.matched} matches, {len(result.excluded)} outside coverage"
    report(7, f"D = n-3 set equality inside coverage at n = {n}", result.passed, detail)
    for note in result.excluded:
        print(f"    reported, not a failure: {note}")
    assert result.passed, [m.__dict__ for m in result.mismatches]


def test_criterion_08_complement_invariance():
    bad = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if distinguishing_number(g) != distinguishing_number(complement(g)):
                bad.append(write_graph6(g))
    report(8, "D(G) = D(complement) for all graphs of order <= 6", not bad)
    assert not bad, bad


def test_criterion_09_diameter_bound():
    bad = []
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            if distinguishing_number(g) > g.n - diameter(g) + 1:
                bad.append(write_graph6(g))
    report(9, "D(G) <= n - diam(G) + 1 for connected graphs of order <= 6", not bad)
    assert not bad, bad


def test_criterion_10_pruned_search_equals_naive_search():
    bad = []
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            if metric_dimension(g).dim != naive_metric_dimension(g)[0]:
                bad.append(write_graph6(g))
    report(10, "twin-pruned dimension equals naive enumeration, n <= 6", not bad)
    assert not bad, bad


def test_criterion_11_twin_round_trip():
    bad = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            structure = twin_graph(g)
            parts = [(complete_graph if kind == "K" else empty_graph)(size) for size, kind in structure.labels]
            if not are_isomorphic(blow_up(structure.quotient, parts), g):
                bad.append(write_graph6(g))
    report(11, "blow-up of the twin quotient recovers the graph, n <= 6", not bad)
    assert not bad, bad


def test_criterion_12_almost_asymmetric_rule():
    bad = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not class_symmetries(g):
                if distinguishing_number(g) != max(size for size, _ in twin_graph(g).labels):
                    bad.append(write_graph6(g))
    report(12, "almost asymmetric implies D = largest twin class, n <= 6", not bad)
    assert not bad, bad


def test_criterion_13_graph6_round_trip():
    bad = []
    count = 0
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            count += 1
            if parse_graph6(write_graph6(g)) != g:
                bad.append(write_graph6(g))
    extra = "no order-7 file"
    if os.path.exists(ORDER7_FILE):
        lines = 0
        with open(ORDER7_FILE, encoding="ascii") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines += 1
                g = parse_graph6(line)
                if g.n != 7 or write_graph6(g) != line:
                    bad.append(line)
        extra = f"plus {lines} order-7 lines"
    report(13, "graph6 round-trip identity", not bad, f"{count} enumerated graphs, {extra}")
    assert not bad, bad
