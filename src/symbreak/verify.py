"""Exhaustive verification of the bound, the constructions, and the catalogs.

Each check scans a population of graphs (internal enumeration up to order
seven, or graph6 input beyond) and reports mismatches as graph6 strings with
the expected and observed values, so a report is reproducible from its own
content.  Scans distribute per-graph work over a process pool when asked.
A scan for ``D = d`` skips graphs whose coarsest equitable partition has no
cell of ``d`` vertices: automorphisms keep every cell, so coloring each cell
distinctly leaves only the identity (:func:`~symbreak.symmetry.d_may_reach`).
The bound scan computes D only where that partition has a cell of
``dim + 2`` vertices: elsewhere D is at most the largest cell, at most
``dim + 1``, so the bound holds without it.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import NamedTuple

from .catalog import (
    TheoremId,
    construction_graph,
    in_family_f,
    instantiate_families,
)
from .graphs import Graph, is_connected
from .isomorphism import Graph6Error, are_isomorphic, enumerate_graphs, parse_graph6, write_graph6
from .resolving import metric_dimension
from .symmetry import (coloring_from_resolving_set, d_may_reach, distinguishing_number,
                       is_distinguishing)


class Mismatch(NamedTuple):
    graph6: str
    expected: str
    actual: str

    def to_dict(self) -> dict:
        return {"graph6": self.graph6, "expected": self.expected, "actual": self.actual}


class VerifyReport:
    """Outcome of one verification run; PASS exactly when no mismatches."""

    def __init__(self, check: str, order: int | None, scanned: int, matched: int) -> None:
        self.check = check
        self.order = order
        self.scanned = scanned
        self.matched = matched
        self.mismatches: list[Mismatch] = []
        self.excluded: list[str] = []
        self.elapsed = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "order": self.order,
            "scanned": self.scanned,
            "matched": self.matched,
            "verdict": "PASS" if self.passed else "FAIL",
            "mismatches": [m.to_dict() for m in self.mismatches],
            "excluded": list(self.excluded),
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _map_jobs(fn, items, jobs: int):
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and len(items) > 1:
        import multiprocessing  # about 10 ms of start-up, paid only with a pool

        with multiprocessing.Pool(jobs) as pool:
            return pool.map(fn, items)
    return [fn(item) for item in items]


def load_graph6_file(path: str) -> list[Graph]:
    """One graph per non-blank line, after the optional ``>>graph6<<`` header
    at the start of the file; a malformed line raises a
    :class:`Graph6Error` that names ``path:line``."""
    graphs = []
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, 1):
            raw = raw.removeprefix(b">>graph6<<") if number == 1 else raw
            if raw.strip():
                try:
                    # latin-1 keeps each byte's value, so parse_graph6 names a non-ASCII byte
                    graphs.append(parse_graph6(raw.decode("latin-1")))
                except Graph6Error as err:
                    raise Graph6Error(f"{path}:{number}: {err}") from None
    return graphs


def _population(n: int, graphs: list[Graph] | None, connected_only: bool) -> list[Graph]:
    if graphs is None:
        pool = list(enumerate_graphs(n, connected_only=connected_only))
    else:
        pool = [g for g in graphs if g.n == n]
        if connected_only:
            pool = [g for g in pool if is_connected(g)]
    return pool


def _bound_record(g: Graph) -> tuple[int | None, int, bool]:
    witness = metric_dimension(g)
    # D is at most the largest equitable cell, so D > dim + 1 needs a cell of dim + 2
    dval = distinguishing_number(g) if d_may_reach(g, witness.dim + 2) else None
    coloring = coloring_from_resolving_set(g, witness.witness)
    return (dval, witness.dim, is_distinguishing(g, coloring))


def check_bound(n: int, graphs: list[Graph] | None = None, jobs: int = 1) -> VerifyReport:
    """D <= dim + 1 on every connected graph of order ``n``, and the
    resolving-set coloring of a minimum witness distinguishes."""
    start = time.perf_counter()
    pool = _population(n, graphs, connected_only=True)
    report = VerifyReport("bound", n, scanned=len(pool), matched=0)
    # graph6 is written only for the graphs the report names
    for g, (dval, dim, breaks) in zip(pool, _map_jobs(_bound_record, pool, jobs)):
        ok = True
        if dval is not None and dval > dim + 1:
            ok = False
            report.mismatches.append(
                Mismatch(write_graph6(g), f"D <= dim+1 = {dim + 1}", f"D = {dval}")
            )
        if not breaks:
            ok = False
            report.mismatches.append(
                Mismatch(write_graph6(g), "resolving-set coloring distinguishes", "it does not")
            )
        if ok:
            report.matched += 1
    report.elapsed = time.perf_counter() - start
    return report


def check_construction(max_dim: int) -> VerifyReport:
    """Every pair 1 <= a < b <= max_dim yields a graph with D = a, dim = b."""
    start = time.perf_counter()
    report = VerifyReport("construction", None, scanned=0, matched=0)
    for b in range(2, max_dim + 1):
        for a in range(1, b):
            g = construction_graph(a, b)
            report.scanned += 1
            dval = distinguishing_number(g)
            dim = metric_dimension(g).dim
            if (dval, dim) == (a, b):
                report.matched += 1
            else:
                report.mismatches.append(
                    Mismatch(write_graph6(g), f"D={a} dim={b}", f"D={dval} dim={dim}")
                )
    report.elapsed = time.perf_counter() - start
    return report


def check_characterization(
    theorem: TheoremId,
    n: int,
    graphs: list[Graph] | None = None,
    jobs: int = 1,
    errata: bool = True,
) -> VerifyReport:
    """Two-sided check of one catalog at one order.

    Forward: every instantiated family graph attains D = n - offset.
    Reverse: every graph of order n attaining that value is isomorphic to an
    instantiated one.  For the D = n - 3 catalog both directions are
    restricted to graphs inside its coverage; graphs outside it are listed
    in ``excluded`` and never counted as failures.  With ``errata`` False
    the catalog is the paper's rows alone, without those of ``ERRATA``.
    """
    start = time.perf_counter()
    target = n - theorem.offset

    def listed(matches) -> bool:
        return any(errata or not m.erratum for m in matches)

    instances = [inst for inst in instantiate_families(theorem, n) if listed(inst.matches)]
    restricted = theorem is TheoremId.DN3
    report = VerifyReport(theorem.value, n, scanned=0, matched=0)

    for instance in instances:
        if restricted and not in_family_f(instance.graph):
            report.excluded.append(
                f"catalog {write_graph6(instance.graph)} outside coverage, not asserted"
            )
            continue
        dval = distinguishing_number(instance.graph)
        if dval != target:
            report.mismatches.append(
                Mismatch(
                    write_graph6(instance.graph),
                    f"D = {target} ({instance.matches[0].expression})",
                    f"D = {dval}",
                )
            )

    pool = _population(n, graphs, connected_only=False)
    report.scanned = len(pool)
    pool = [g for g in pool if d_may_reach(g, target)]
    for g, dval in zip(pool, _map_jobs(distinguishing_number, pool, jobs)):
        if dval != target:
            continue
        if restricted and not in_family_f(g):
            report.excluded.append(f"{write_graph6(g)} has D = {target} but lies outside coverage")
        elif any(are_isomorphic(inst.graph, g) for inst in instances):
            report.matched += 1
        else:
            report.mismatches.append(
                Mismatch(write_graph6(g), f"D = {target} only for catalog graphs", f"D = {dval}")
            )
    report.elapsed = time.perf_counter() - start
    return report


def _row_record(g: Graph, d_filter: int | None) -> dict | None:
    """The row of ``g``, or None when its D is not ``d_filter``, before dim is computed."""
    dval = distinguishing_number(g)
    if d_filter is not None and dval != d_filter:
        return None
    connected = is_connected(g)
    return {
        "graph6": write_graph6(g),
        "n": g.n,
        "connected": connected,
        "D": dval,
        "dim": metric_dimension(g).dim if connected else None,
    }


def enumeration_rows(
    n: int,
    graphs: list[Graph] | None = None,
    connected_only: bool = False,
    d_filter: int | None = None,
    dim_filter: int | None = None,
    jobs: int = 1,
) -> list[dict]:
    """One row per isomorphism class, in canonical order, with D and dim."""
    pool = _population(n, graphs, connected_only=connected_only)
    if d_filter is not None:
        pool = [g for g in pool if d_may_reach(g, d_filter)]
    rows = [row for row in _map_jobs(partial(_row_record, d_filter=d_filter), pool, jobs) if row]
    if dim_filter is not None:
        rows = [row for row in rows if row["dim"] == dim_filter]
    return rows
