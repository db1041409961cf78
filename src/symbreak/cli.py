"""Command-line interface: ``symbreak analyze|verify|enumerate|construct``.

Every command, with its positionals, options and defaults, is one row of
``_COMMANDS``: ``_parse`` reads argv against it and ``symbreak --help``
prints it.  INPUT is either a graph6 line or a family expression (see the
grammar in ``symbreak --help`` or :mod:`symbreak.expressions`).  Exit codes:
0 when everything passed or help was printed, 1 when a verification failed,
2 on a malformed command line, unparsable input, an option the verify target
does not read, a --jobs below 1, a --max below 2, an order below 1 or an
order or range that selects nothing, 3 when a graph is beyond the supported
bounds (an order above the enumeration cap, a --max above 9, or an
isometry, coloring, canonical or hitting-set search over its step budget,
named in the message), 141 when the reader closes stdout.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from types import SimpleNamespace

from .catalog import (
    CONSTRUCTION_MAX_DIM,
    TheoremId,
    TheoremNotApplicableError,
    classify_graph,
)
from .expressions import ExpressionError, parse_expression
from .graphs import Graph, GraphError, OrderLimitError, construct_family
from .isomorphism import (_G6_MAX_BYTE, _G6_OFFSET, Graph6Error, check_enumeration_order,
                          parse_graph6, write_graph6)
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
  B(base,x,y,...)            blow-up: one expression per base vertex
  ~x                         complement
examples: K(3,3)   J(K1,U(K1,2*K2))   B(P4,K1,E3,K1,K1)   ~C5
"""


def _read_graph(text: str) -> Graph:
    """Accept either a family expression or a graph6 line."""
    try:
        return construct_family(parse_expression(text))
    except ExpressionError as expr_err:
        if any(not _G6_OFFSET <= ord(ch) <= _G6_MAX_BYTE for ch in text.rstrip("\r\n")):
            raise  # a byte graph6 never uses: its complaint would say nothing of the expression
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


def cmd_analyze(args: SimpleNamespace) -> int:
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


def cmd_construct(args: SimpleNamespace) -> int:
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


def cmd_verify(args: SimpleNamespace) -> int:
    jobs = _jobs(args.jobs)
    results: list[VerifyReport | dict] = []
    if args.errata and args.target not in ("Dn2", "Dn3"):
        raise UsageError(f"verify {args.target} takes no --errata; only Dn2 and Dn3 have errata")
    if args.target == "construction":
        for flag, value in (("--n", args.n), ("--graph6-file", args.graph6_file)):
            if value is not None:
                raise UsageError(f"verify construction takes no {flag}; its size is --max")
        top = 4 if args.max is None else args.max  # the default that --help names
        if top < 2:
            raise UsageError(f"--max must be at least 2, got {top}")
        if top > CONSTRUCTION_MAX_DIM:
            raise OrderLimitError(
                f"--max {top} is above {CONSTRUCTION_MAX_DIM}, the largest whose "
                "construction graphs fit in 64 vertices"
            )
        results.append(check_construction(top))
    else:
        if args.max is not None:
            raise UsageError(f"verify {args.target} takes no --max; only construction reads it")
        file_graphs = load_graph6_file(args.graph6_file) if args.graph6_file else None
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


def cmd_enumerate(args: SimpleNamespace) -> int:
    jobs = _jobs(args.jobs)
    if args.n is None:
        raise UsageError("enumerate needs --n (for example --n 4)")
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


_FORMATS = ("json", "text")
_HELP = ("-h", "--help")

#: Every command as (handler, positionals, options, help): a positional is
#: (name, kind) and an option (name, kind, default), where a kind is int,
#: str, a tuple of the accepted values or, for a flag, bool.
_COMMANDS = {
    "analyze": (cmd_analyze, [("input", str)], [("--format", _FORMATS, "json")],
                "invariants and catalog matches of one graph6 line or family expression"),
    "verify": (cmd_verify, [("target", ("bound", "construction", "Dn", "Dn1", "Dn2", "Dn3"))],
               [("--n", str, None), ("--max", int, None), ("--graph6-file", str, None),
                ("--format", _FORMATS, "json"), ("--jobs", int, 1), ("--errata", bool, False)],
               "run an exhaustive check over the orders --n (4 or 1..6), in --graph6-file if\n"
               "given; construction checks D = a, dim = b for 1 <= a < b <= --max (default 4);\n"
               "--errata checks Dn2 and Dn3 amended by their errata rows, not the paper's alone"),
    "enumerate": (cmd_enumerate, [],
                  [("--n", int, None), ("--connected", bool, False), ("--d", int, None),
                   ("--dim", int, None), ("--graph6-file", str, None),
                   ("--format", ("csv", "json"), "csv"), ("--jobs", int, 1)],
                  "list the isomorphism classes of order --n, or the graphs of --graph6-file,\n"
                  "with D and dim; --d and --dim keep the rows with that value"),
    "construct": (cmd_construct, [("expression", str)], [("--format", ("text", "json"), "text")],
                  "build a family expression and print it as graph6"),
}


def _shape(name: str, kind: object) -> str:
    if isinstance(kind, tuple):
        return "|".join(kind)
    return "" if kind is bool else name.lstrip("-").upper()


def cmd_help(args: None) -> int:
    print("usage: symbreak COMMAND ARGUMENTS [OPTIONS]\n\nExact metric-dimension and "
          "distinguishing-number toolkit.\nAn option may be shortened to a unique prefix.")
    for command, (_, positionals, options, about) in _COMMANDS.items():
        print("\nsymbreak", command, *(_shape(name, kind) for name, kind in positionals))
        print("    " + about.replace("\n", "\n    "))
        for name, kind, default in options:
            note = "" if default in (None, False) else f" (default {default})"
            print(f"    {name} {_shape(name, kind)}".rstrip() + note)
    print(f"\n{_GRAMMAR}", end="")
    return EXIT_OK


def _is_option(word: str) -> bool:
    return word.startswith("-") and word != "-" and not word[1:2].isdecimal()


def _option_name(word: str, names: list[str]) -> str:
    """The option ``word`` names, exactly or as a unique prefix of a long name."""
    matches = [name for name in names if word.startswith("--") and name.startswith(word)]
    if word not in names and len(matches) != 1:
        kind = "ambiguous" if matches else "unknown"
        raise UsageError(f"{kind} option {word}; the options are {', '.join(names)}")
    return word if word in names else matches[0]


def _value(name: str, kind: object, text: str) -> object:
    if isinstance(kind, tuple) and text not in kind:
        raise UsageError(f"{name} expects one of {', '.join(kind)}, got {text!r}")
    try:
        return int(text) if kind is int else text
    except ValueError:
        raise UsageError(f"{name} expects an integer, got {text!r}") from None


def _parse(argv: list[str]) -> tuple:
    """The handler ``argv`` names and its arguments, read against ``_COMMANDS``."""
    command, *rest = argv or [""]
    if command not in _COMMANDS:
        if _is_option(command) and _option_name(command.partition("=")[0], list(_HELP)):
            return cmd_help, None
        raise UsageError(f"the command must be one of {', '.join(_COMMANDS)}, got {command!r}")
    handler, positionals, options, _ = _COMMANDS[command]
    kinds = {name: kind for name, kind, _ in options}
    values = {name: default for name, _, default in options}
    free: list[str] = []
    words = iter(rest)
    for word in words:
        if word == "--":
            free.extend(words)
        elif not _is_option(word):
            free.append(word)
        else:
            name, given, text = word.partition("=")
            name = _option_name(name, [*kinds, *_HELP])
            if name in _HELP:
                return cmd_help, None
            flag = kinds[name] is bool
            if flag and given:
                raise UsageError(f"{name} takes no value, got {text!r}")
            if not flag and not given:
                text = next(words, None)
                if text is None or _is_option(text):
                    raise UsageError(f"{name} expects a value")
            values[name] = flag or _value(name, kinds[name], text)
    if len(free) != len(positionals):
        wanted = " ".join(name.upper() for name, _ in positionals) or "no argument"
        raise UsageError(f"{command} takes {wanted}, got {' '.join(free) or 'none'}")
    for (name, kind), text in zip(positionals, free):
        values[name] = _value(f"{command} {name.upper()}", kind, text)
    args = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
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
