"""Command-line interface.

Subcommands::

    symbreak analyze INPUT        invariants and catalog matches of one graph
    symbreak verify TARGET        exhaustive checks (bound, construction, Dn,
                                  Dn1, Dn2, Dn3); the catalogs are checked
                                  as the paper prints them unless --errata
    symbreak enumerate            one CSV row per isomorphism class
    symbreak construct EXPR       build a family expression, print graph6

INPUT is either a graph6 line or a family expression (see the grammar in
``symbreak --help`` or :mod:`symbreak.expressions`).  Exit codes: 0 when
everything passed, 1 when a verification failed, 2 on unparsable input, a
--jobs below 1, a --max below 2, an order below 1 or an order or range
that selects nothing, 3 when a graph is beyond the supported bounds (an order
above the enumeration cap, a --max above 9, or an isometry, coloring,
canonical or hitting-set search over its step budget, named in the message),
141 when the reader closes stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .catalog import (
    CONSTRUCTION_MAX_DIM,
    TheoremId,
    TheoremNotApplicableError,
    classify_graph,
)
from .expressions import ExpressionError, parse_expression
from .graphs import Graph, GraphError, OrderLimitError, construct_family
from .isomorphism import Graph6Error, check_enumeration_order, parse_graph6, write_graph6
from .verify import (
    VerifyReport,
    check_bound,
    check_characterization,
    check_construction,
    enumeration_rows,
    load_graph6_file,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BOUNDS = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

_GRAMMAR = """family expression grammar (whitespace ignored):
  K<n> E<n> P<n> C<n> T<k>   complete, empty, path, cycle, broom tree
  C5'                        the 5-cycle plus one chord
  bull                       a triangle with two pendant vertices
  K(a,b,...)                 complete multipartite
  U(x,y,...)  J(x,y,...)     disjoint union, join
  m*x                        m disjoint copies of x
  B(base,K<a>,E<b>,...)      blow-up of base by complete/empty parts
  ~x                         complement
examples: K(3,3)   J(K1,U(K1,2*K2))   B(P4,K1,E3,K1,K1)   ~C5
"""


def _read_graph(text: str) -> Graph:
    """Accept either a family expression or a graph6 line."""
    try:
        return construct_family(parse_expression(text))
    except ExpressionError as expr_err:
        try:
            return parse_graph6(text)
        except Graph6Error as g6_err:
            raise ExpressionError(
                f"input is neither a family expression ({expr_err}) "
                f"nor graph6 ({g6_err})"
            ) from None


def _print_report_text(report: VerifyReport) -> None:
    verdict = "PASS" if report.passed else "FAIL"
    where = f" n={report.order}" if report.order is not None else ""
    print(
        f"[{verdict}] {report.check}{where}: scanned={report.scanned} "
        f"matched={report.matched} mismatches={len(report.mismatches)} "
        f"({report.elapsed:.2f}s)"
    )
    for miss in report.mismatches:
        print(f"    counterexample {miss.graph6}: expected {miss.expected}, got {miss.actual}")
    for note in report.excluded:
        print(f"    excluded: {note}")


class UsageError(ValueError):
    """A command-line value that names no work to do."""


def _parse_order_range(text: str) -> range:
    low, sep, high = text.partition("..")
    try:
        orders = range(int(low), int(high if sep else low) + 1)
    except ValueError:
        raise UsageError(f"--n expects an order or a range like 1..6, got {text!r}") from None
    if not orders:
        raise UsageError(f"--n {text} is an empty range")
    if orders[0] < 1:
        raise UsageError(f"--n orders must be at least 1, got {text!r}")
    return orders


def _jobs(value: int) -> int:
    if value < 1:
        raise UsageError(f"--jobs must be at least 1, got {value}")
    return value


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    report = classify_graph(g)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"graph6: {report.graph6}")
        print(f"order: {report.n}  connected: {report.connected}")
        dim = "n/a (disconnected)" if report.dim is None else report.dim
        print(f"dim: {dim}")
        print(f"D: {report.distinguishing}")
        print(f"core diameter: {report.core_diameter}  core twin classes: {report.core_twin_order}")
        print(f"in family F: {report.in_family_f}")
        if report.matches:
            for m in report.matches:
                t_part = "" if m.t is None else f" t={m.t}"
                label = " (erratum)" if m.erratum else ""
                print(f"matched: {m.theorem.value} entry {m.entry}{t_part}  {m.expression}{label}")
        else:
            print("matched: none")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    spec = parse_expression(args.expression)
    g = construct_family(spec)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "expression": args.expression,
                    "graph6": write_graph6(g),
                    "n": g.n,
                    "edges": g.edge_count,
                }
            )
        )
    else:
        print(write_graph6(g))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    jobs = _jobs(args.jobs)
    file_graphs = load_graph6_file(args.graph6_file) if args.graph6_file else None
    results: list[VerifyReport | dict] = []
    if args.target == "construction":
        if args.max < 2:
            raise UsageError(f"--max must be at least 2, got {args.max}")
        if args.max > CONSTRUCTION_MAX_DIM:
            raise OrderLimitError(
                f"--max {args.max} is above {CONSTRUCTION_MAX_DIM}, the largest whose "
                "construction graphs fit in 64 vertices"
            )
        results.append(check_construction(args.max))
    else:
        if args.n is None:
            raise UsageError("verify needs --n (for example --n 4 or --n 1..6)")
        orders = _parse_order_range(args.n)
        if file_graphs is not None:
            orders = sorted({g.n for g in file_graphs if g.n in orders})
            if not orders:
                raise UsageError(f"{args.graph6_file} has no graph of an order in --n {args.n}")
        else:
            check_enumeration_order(orders[-1])
        theorem = None if args.target == "bound" else TheoremId(args.target)
        if theorem is not None and orders[-1] < theorem.min_order:
            raise UsageError(
                f"{theorem.value} applies to orders >= {theorem.min_order}; "
                f"--n {args.n} selects none"
            )
        for n in orders:
            if theorem is None:
                results.append(check_bound(n, graphs=file_graphs, jobs=jobs))
                continue
            try:
                results.append(
                    check_characterization(
                        theorem, n, graphs=file_graphs, jobs=jobs, errata=args.errata
                    )
                )
            except TheoremNotApplicableError as err:
                results.append(
                    {"check": theorem.value, "order": n, "verdict": "NOT_APPLICABLE", "note": str(err)}
                )
    if args.format == "json":
        payload = [r.to_dict() if isinstance(r, VerifyReport) else r for r in results]
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            if isinstance(result, VerifyReport):
                _print_report_text(result)
            else:
                print(f"[SKIP] {result['check']} n={result['order']}: {result['note']}")
    return (
        EXIT_OK
        if all(r.passed for r in results if isinstance(r, VerifyReport))
        else EXIT_VERIFY_FAILED
    )


def cmd_enumerate(args: argparse.Namespace) -> int:
    jobs = _jobs(args.jobs)
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    file_graphs = load_graph6_file(args.graph6_file) if args.graph6_file else None
    if file_graphs is not None and all(g.n != args.n for g in file_graphs):
        raise UsageError(f"{args.graph6_file} has no graph of order {args.n}")
    rows = enumeration_rows(
        args.n,
        graphs=file_graphs,
        connected_only=args.connected,
        d_filter=args.d,
        dim_filter=args.dim,
        jobs=jobs,
    )
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["graph6", "n", "connected", "D", "dim"])
        for row in rows:
            writer.writerow(
                [
                    row["graph6"],
                    row["n"],
                    int(row["connected"]),
                    row["D"],
                    "" if row["dim"] is None else row["dim"],
                ]
            )
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Exact metric-dimension and distinguishing-number toolkit.",
        epilog=_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one graph6 line or family expression")
    p_analyze.add_argument("input")
    p_analyze.add_argument("--format", choices=["json", "text"], default="json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run an exhaustive check")
    p_verify.add_argument(
        "target",
        choices=["bound", "construction", "Dn", "Dn1", "Dn2", "Dn3"],
    )
    p_verify.add_argument("--n", help="order or inclusive range, e.g. 4 or 1..6")
    p_verify.add_argument("--max", type=int, default=4, help="construction: largest dimension")
    p_verify.add_argument("--graph6-file", help="scan graphs from this file instead")
    p_verify.add_argument("--format", choices=["json", "text"], default="json")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument(
        "--errata",
        action="store_true",
        help="Dn2, Dn3: check the catalog amended with its errata rows "
        "instead of the paper's rows alone",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list isomorphism classes with D and dim")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--connected", action="store_true")
    p_enum.add_argument("--d", type=int, help="keep rows with this distinguishing number")
    p_enum.add_argument("--dim", type=int, help="keep rows with this metric dimension")
    p_enum.add_argument("--graph6-file", help="rows from this file instead of enumeration")
    p_enum.add_argument("--format", choices=["csv", "json"], default="csv")
    p_enum.add_argument("--jobs", type=int, default=1)
    p_enum.set_defaults(func=cmd_enumerate)

    p_construct = sub.add_parser("construct", help="build a family expression")
    p_construct.add_argument("expression")
    p_construct.add_argument("--format", choices=["text", "json"], default="text")
    p_construct.set_defaults(func=cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the signal docs' SIGPIPE recipe: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OrderLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BOUNDS
    except (ExpressionError, Graph6Error, UsageError, GraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
