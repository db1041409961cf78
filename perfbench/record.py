"""Record ``perfbench/references.json`` and cross-check it.

Usage, from the root of a checkout::

    PYTHONPATH=src:tests python3 perfbench/record.py

It runs the exhaustive and symmetric ops in process and keeps their
normalised output, and it records the order-7 and order-8 graphs of the
``D = n-3`` catalog, which the population workload needs to decide catalog
membership.  Before writing anything it checks:

* ``perfbench/reference.py`` against the brute-force oracles of
  ``tests/oracles.py`` (read-only) on every graph of order at most 6;
* the enumerate rows at order 6 against the same oracles;
* the bound and catalog scans against the OEIS counts and the
  counterexample sets listed in the README;
* the analyze invariants against closed forms.

Ops that the current program refuses (exit 3) get references built from
the closed forms and the parts of the library that still answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import oracles
import symbreak.cli
from symbreak import TheoremId, instantiate_families
from symbreak.catalog import in_family_f
from symbreak.graphs import build_graph, construct_family, diameter
from symbreak.expressions import parse_expression
from symbreak.isomorphism import enumerate_graphs, write_graph6
from symbreak.resolving import metric_dimension
from symbreak.symmetry import distinguishing_number
from symbreak.twins import core_graph, twin_graph

import reference
import run

OEIS_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}  # A001349
OEIS_ALL = {4: 11, 5: 34, 6: 156}  # A000088
README_COUNTEREXAMPLES = {
    ("Dn2", 5): {"DK{", "DBW"},
    ("Dn3", 5): {"D@{", "DB[", "DBk"},
    ("Dn3", 6): {"EJbw", "E?Fw", "E@Nw", "E?\\o", "EB\\w", "E?\\w"},
}
#: (D, dim) in closed form; dim is None for disconnected graphs.
CLOSED_FORMS = {
    "C10": (2, 2),
    "IheA@GUAo": (3, 3),
    "K8": (8, 7),
    "K(4,4)": (5, 6),
    "T5": (1, 4),
    "~C10": (2, None),  # dim checked by reference.metric_dimension
    "U(C5,C5)": (3, None),
    "C9": (2, 2),
    "K(3,3,3)": (4, 6),
    "K9": (9, 8),
    "E11": (11, None),
}


def cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = symbreak.cli.main(argv)
    return code, out.getvalue()


def check_reference_solver() -> dict:
    """reference.py against tests/oracles.py on all graphs of order <= 6."""
    nontrivial = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            rows = list(g.adj)
            group = reference.automorphisms(n, rows)
            brute = oracles.brute_automorphisms(g)
            assert sorted(group) == sorted(brute), write_graph6(g)
            facts = reference.invariants(n, rows)
            assert facts["D"] == oracles.brute_distinguishing_number(g), write_graph6(g)
            connected = facts["connected"]
            assert facts["dim"] == (oracles.naive_metric_dimension(g)[0] if connected else None)
            orbit_of_0 = {p[0] for p in brute}
            assert reference.is_vertex_transitive(n, rows) == (len(orbit_of_0) == n)
            assert reference.in_coverage(n, rows) == in_family_f(g), write_graph6(g)
            assert reference.graph6_encode(n, rows) == write_graph6(g)
            assert reference.graph6_decode(write_graph6(g)) == (n, rows)
            perm = list(range(n))[::-1]
            relabeled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert reference.are_isomorphic(n, rows, list(relabeled.adj))
            if n == 6:
                nontrivial += len(group) > 1
    for n in range(1, 6):
        graphs = list(enumerate_graphs(n))
        for g, h in itertools.combinations(graphs, 2):
            same = oracles.brute_canonical_value(g) == oracles.brute_canonical_value(h)
            assert reference.are_isomorphic(n, list(g.adj), list(h.adj)) == same
    return {"order6_classes": OEIS_ALL[6], "nontrivial_aut_share_n6": nontrivial / OEIS_ALL[6]}


def record_exhaustive() -> dict:
    refs = {}
    for argv in run.EXHAUSTIVE:
        label = " ".join(argv)
        if argv[:2] == ["verify", "construction"]:
            pairs = sum(b - 1 for b in range(2, int(argv[3]) + 1))
            refs[label] = [
                {"check": "construction", "order": None, "scanned": pairs, "matched": pairs,
                 "verdict": "PASS", "mismatches": [], "excluded": 0}
            ]
            code, out = cli(argv)
            if code != run.EXIT_BOUNDS:
                assert run.summarize(argv, out)[0] == refs[label], label
            continue
        code, out = cli(argv)
        summary, _ = run.summarize(argv, out)
        assert code == run.expected_exit(argv, summary), label
        refs[label] = summary
        if argv[0] == "enumerate":
            assert len(summary) == OEIS_ALL[6]
            for g6, n, connected, dval, dim in summary:
                g = symbreak.parse_graph6(g6)
                assert int(dval) == oracles.brute_distinguishing_number(g), g6
                expect_dim = oracles.naive_metric_dimension(g)[0] if connected == "1" else None
                assert (int(dim) if dim else None) == expect_dim, g6
            continue
        for report in summary:
            if report["verdict"] == "NOT_APPLICABLE":
                continue
            if argv[1] == "bound":
                assert report["scanned"] == OEIS_CONNECTED[report["order"]], report
                assert report["verdict"] == "PASS", report
            else:
                assert report["scanned"] == OEIS_ALL[report["order"]], report
                expected = README_COUNTEREXAMPLES.get((report["check"], report["order"]), set())
                assert set(report["mismatches"]) == expected, report
    return refs


def analyze_without_group(text: str) -> dict:
    """analyze's invariants for a graph whose group the program refuses to
    list, with D from the closed form."""
    g = construct_family(parse_expression(text))
    core = core_graph(g)
    connected = core is g
    return {
        "n": g.n,
        "connected": connected,
        "dim": metric_dimension(g).dim if connected else None,
        "D": CLOSED_FORMS[text][0],
        "core_diameter": diameter(core),
        "core_twin_order": twin_graph(core).quotient.n,
        "in_family_F": in_family_f(g),
    }


def record_symmetric() -> dict:
    refs = {}
    for text in run.SYMMETRIC:
        argv = ["analyze", text]
        code, out = cli(argv)
        if code == run.EXIT_BOUNDS:
            summary = analyze_without_group(text)
        else:
            assert code == 0, text
            summary, _ = run.summarize(argv, out)
        g = symbreak.cli._read_graph(text)
        rows = list(g.adj)
        dval, dim = CLOSED_FORMS[text]
        if dim is None and summary["connected"]:
            dim = reference.metric_dimension(g.n, rows)
        assert (summary["D"], summary["dim"]) == (dval, dim), (text, summary)
        refs[text] = {"analyze": summary, "vertex_transitive": reference.is_vertex_transitive(g.n, rows)}
    return refs


def record_dn3_catalog() -> dict:
    refs = {}
    for n in run.POPULATION_ORDERS:
        entries = []
        for instance in instantiate_families(TheoremId.DN3, n):
            g = instance.graph
            rows = list(g.adj)
            dval = reference.distinguishing_number(g.n, reference.automorphisms(g.n, rows))
            assert dval == distinguishing_number(g)
            covered = reference.in_coverage(g.n, rows)
            assert covered == in_family_f(g)
            entries.append({"graph6": write_graph6(g), "covered": covered, "D": dval})
        refs[str(n)] = entries
    return refs


def main() -> None:
    inputs = check_reference_solver()
    refs = {
        "exhaustive": record_exhaustive(),
        "exhaustive_inputs": inputs,
        "symmetric": record_symmetric(),
        "dn3_catalog": record_dn3_catalog(),
    }
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
