"""Independent reference answers for the benchmark's generated inputs.

Stdlib only, and deliberately sharing no code with ``symbreak``: graphs are
``(n, rows)`` pairs of adjacency bitmasks, automorphisms come from a plain
backtracking search, the distinguishing number from coloring enumeration,
and the metric dimension from subset enumeration.  ``record.py`` checks
every function here against ``tests/oracles.py`` on all graphs of order at
most 6 before references are recorded.
"""

from __future__ import annotations

import itertools

G6_OFFSET = 63


def graph6_encode(n: int, rows: list[int]) -> str:
    """graph6 for orders up to 62: column-major upper triangle, 6 bits a byte."""
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(G6_OFFSET + int("".join(map(str, bits[at : at + 6])), 2))
        for at in range(0, len(bits), 6)
    )
    return chr(n + G6_OFFSET) + body


def graph6_decode(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - G6_OFFSET
    bits = []
    for ch in text[1:]:
        bits += [(ord(ch) - G6_OFFSET) >> s & 1 for s in range(5, -1, -1)]
    rows = [0] * n
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            at += 1
    return n, rows


def complement(n: int, rows: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(rows)]


def distances(n: int, rows: list[int]) -> list[list[int | None]]:
    """BFS hop counts; ``None`` between components."""
    table = []
    for src in range(n):
        dist: list[int | None] = [None] * n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if rows[u] >> v & 1 and dist[v] is None:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        table.append(dist)
    return table


def is_connected(n: int, rows: list[int]) -> bool:
    return n <= 1 or None not in distances(n, rows)[0]


def _extend(a, b, image, used, v, out, first_only) -> bool:
    """Extend ``image`` (fixed on vertices below ``v``) to bijections a -> b
    preserving adjacency, appending each to ``out``; stop at the first one
    when ``first_only``."""
    n = len(a)
    if v == n:
        out.append(tuple(image))
        return first_only
    for w in range(n):
        if used[w] or b[w].bit_count() != a[v].bit_count():
            continue
        if any((a[v] >> u & 1) != (b[w] >> image[u] & 1) for u in range(v)):
            continue
        image[v], used[w] = w, True
        if _extend(a, b, image, used, v + 1, out, first_only):
            return True
        image[v], used[w] = -1, False
    return False


def automorphisms(n: int, rows: list[int]) -> list[tuple[int, ...]]:
    """Every adjacency-preserving permutation, identity included."""
    out: list[tuple[int, ...]] = []
    _extend(rows, rows, [-1] * n, [False] * n, 0, out, False)
    return out


def are_isomorphic(n: int, a: list[int], b: list[int]) -> bool:
    out: list[tuple[int, ...]] = []
    return _extend(a, b, [-1] * n, [False] * n, 0, out, True)


def is_vertex_transitive(n: int, rows: list[int]) -> bool:
    """Whether automorphisms map vertex 0 to every vertex."""
    for target in range(1, n):
        image, used = [-1] * n, [False] * n
        if rows[target].bit_count() != rows[0].bit_count():
            return False
        image[0], used[target] = target, True
        if not _extend(rows, rows, image, used, 1, [], True):
            return False
    return True


def distinguishing_number(n: int, group: list[tuple[int, ...]]) -> int:
    """Least k with a k-coloring that no nontrivial automorphism preserves.

    Vertex 0 is pinned to color 0: renaming colors never changes whether a
    coloring distinguishes.  Automorphisms moving few vertices come first,
    since they refute most colorings.
    """
    moved = sorted(
        ([(v, p[v]) for v in range(n) if p[v] != v] for p in group),
        key=len,
    )[1:]
    if not moved:
        return 1
    for k in range(2, n + 1):
        for rest in itertools.product(range(k), repeat=n - 1):
            colors = (0,) + rest
            if all(any(colors[v] != colors[w] for v, w in pairs) for pairs in moved):
                return k
    raise AssertionError("n distinct colors always distinguish")


def metric_dimension(n: int, rows: list[int]) -> int | None:
    """Smallest resolving set size; ``None`` for disconnected graphs."""
    if not is_connected(n, rows):
        return None
    dist = distances(n, rows)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if len({tuple(dist[v][s] for s in subset) for v in range(n)}) == n:
                return size
    raise AssertionError("the full vertex set always resolves")


def twin_quotient_order(n: int, rows: list[int]) -> int:
    """Number of classes of the relation 'same neighbours apart from each other'."""
    reps: list[int] = []
    for v in range(n):
        if not any((rows[u] & ~(1 << v)) == (rows[v] & ~(1 << u)) for u in reps):
            reps.append(v)
    return len(reps)


def in_coverage(n: int, rows: list[int]) -> bool:
    """The D = n-3 catalog's coverage: all graphs except those whose
    connected core has dim n-4, diameter 2 or 3, and 5..9 twin classes."""
    core = rows if is_connected(n, rows) else complement(n, rows)
    if metric_dimension(n, core) != n - 4:
        return True
    diameter = max(max(d for d in row) for row in distances(n, core))
    if diameter not in (2, 3):
        return True
    return not 5 <= twin_quotient_order(n, core) <= 9


def invariants(n: int, rows: list[int]) -> dict:
    """The per-graph facts the benchmark checks CLI output against."""
    group = automorphisms(n, rows)
    return {
        "connected": is_connected(n, rows),
        "D": distinguishing_number(n, group),
        "dim": metric_dimension(n, rows),
        "aut_order": len(group),
    }
