"""Canonical forms, isomorphism tests, exhaustive enumeration, graph6 I/O.

The canonical form of a graph is the lexicographically smallest upper
triangle of its adjacency matrix, read row by row, over all relabelings.
Two graphs are isomorphic exactly when their canonical forms coincide.

Canonicalisation of a single graph runs a depth-first search over vertex
orderings.  Twin vertices are interchangeable, so only one member of each
twin class branches at any level.  A partial ordering is discarded as soon
as its smallest possible completion, in which every placed vertex's edges
to the unplaced ones fill the last positions of its row, cannot beat the
best string found so far.  Correctness, not speed, is the contract; the
search is exact for every order up to :data:`CANONICAL_MAX_VERTICES`.

Exhaustive enumeration works at orders up to :data:`ENUMERATION_MAX_ORDER`
by one-vertex augmentation: every representative of order ``n - 1`` gets a
new vertex joined to one neighbourhood per orbit of its automorphism group,
read from the labelled group of its twin graph, and the children are
deduplicated by canonical form.  The generator also reaches order 7 (1,044
classes) in about 1 s, some 15 times the cost of order 6, and most of that
is still canonical forms (about 63 search nodes per child).  The cap stays
at 6; larger orders enter through graph6 files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .graphs import (
    Graph,
    OrderLimitError,
    build_graph,
    is_connected,
    twin_partition,
)
from .symmetry import class_symmetries, isometries
from .twins import twin_graph

CANONICAL_MAX_VERTICES = 10
ENUMERATION_MAX_ORDER = 6

#: graph6 bytes are printable ASCII offset by 63.
_G6_OFFSET = 63
_G6_MAX_BYTE = 126
_G6_SHORT_MAX_ORDER = 62


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _row_major_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class CanonicalForm:
    """Packed row-major upper-triangle bits of the minimal relabeling.

    ``value`` holds the bits as an integer whose most significant bit is
    the (0, 1) entry; together with ``n`` it identifies the isomorphism
    class.  Equal forms mean isomorphic graphs and vice versa.
    """

    n: int
    value: int


def canonical_form(g: Graph) -> CanonicalForm:
    """Smallest row-major upper-triangle bit string over all relabelings."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise OrderLimitError(
            f"canonical forms are supported up to {CANONICAL_MAX_VERTICES} vertices, got {g.n}"
        )
    return CanonicalForm(g.n, _min_row_major_value(g))


def _min_row_major_value(g: Graph) -> int:
    n = g.n
    if n <= 1:
        return 0
    pairs = _row_major_pairs(n)
    # bit[i][j] is the bit of pair (i, j) in the packed value, and tail[i][r]
    # sets the last r bits of row i.
    bit = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        bit[i][j] = 1 << (len(pairs) - 1 - p)
    tail = [[bit[i][n - 1] * ((1 << r) - 1) for r in range(n)] for i in range(n)]
    adj = g.adj

    class_id = [0] * n
    for ci, cls in enumerate(twin_partition(g)):
        for v in cls:
            class_id[v] = ci

    best = 1 << len(pairs)  # above every value of len(pairs) bits
    assigned: list[int] = []

    def search(known: int, unused: int) -> None:
        nonlocal best
        # Placed row i still owes one bit per neighbour left in ``unused``;
        # its smallest completion puts them in the row's last positions.
        # Every completion is at least this bound row by row, so the branch
        # can beat ``best`` only if the bound does.
        bound = known
        for i, u in enumerate(assigned):
            bound |= tail[i][(adj[u] & unused).bit_count()]
        if bound >= best:
            return
        if not unused:
            best = known
            return
        k = len(assigned)
        tried_classes = set()
        candidates = []
        for v in range(n):
            if not unused >> v & 1 or class_id[v] in tried_classes:
                continue
            tried_classes.add(class_id[v])
            column = 0
            for i, u in enumerate(assigned):
                if adj[v] >> u & 1:
                    column |= bit[i][k]
            candidates.append((column, adj[v].bit_count(), v))
        candidates.sort()
        for column, _, v in candidates:
            assigned.append(v)
            search(known | column, unused & ~(1 << v))
            assigned.pop()

    search(0, (1 << n) - 1)
    return best


def pair_mask(g: Graph) -> int:
    """Row-major upper-triangle bits of ``g`` as one integer (MSB first)."""
    value = 0
    for i, j in _row_major_pairs(g.n):
        value = value << 1 | (g.adj[i] >> j & 1)
    return value


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    pairs = _row_major_pairs(n)
    num_pairs = len(pairs)
    edges = [pairs[p] for p in range(num_pairs) if mask >> (num_pairs - 1 - p) & 1]
    return build_graph(n, edges)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """True when some bijection maps the edges of ``g`` exactly onto ``h``.

    Twin classes are modules, so ``g`` and ``h`` are isomorphic exactly when
    some isomorphism of their twin graphs maps every class onto one of the
    same size and type.  The search runs on the twin graphs alone and never
    permutes the vertices inside a class.
    """
    tg, th = twin_graph(g), twin_graph(h)
    return isometries(tg.quotient, th.quotient, lambda _image: True, tg.labels, th.labels)


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """Masks of the canonical representatives of all order-n graphs, sorted.

    Every order-n graph is an order-(n-1) representative plus one vertex,
    so each class arises from some parent and some neighbourhood of the new
    vertex.  Neighbourhoods in one orbit of the parent's automorphism group
    give isomorphic children, so only one subset per orbit is tried; the
    children's canonical values are then deduplicated.
    """
    if n <= 1:
        return (0,)
    found = set()
    for parent_mask in _canonical_masks(n - 1):
        parent = graph_from_pair_mask(n - 1, parent_mask)
        for subset in _orbit_subsets(parent):
            rows = [row | (subset >> v & 1) << (n - 1) for v, row in enumerate(parent.adj)]
            found.add(_min_row_major_value(Graph(n, (*rows, subset))))
    return tuple(sorted(found))


def _orbit_subsets(g: Graph) -> Iterator[int]:
    """Yield one vertex subset, as a bit mask, per orbit of Aut(g).

    Permutations inside twin classes make two subsets equivalent exactly
    when they take as many vertices from each class, so a subset is the
    vector of those counts and always takes the first members of a class.
    The labelled group of the twin graph permutes the vectors; the
    lexicographically smallest of each orbit is kept.
    """
    classes, moved = class_symmetries(g)
    for counts in itertools.product(*(range(len(cls) + 1) for cls in classes)):
        if any(tuple(counts[d] for d in f) < counts for _, f in moved):
            continue
        yield sum(1 << v for cls, k in zip(classes, counts) for v in cls[:k])


def check_enumeration_order(n: int) -> None:
    """Raise OrderLimitError when ``n`` is above the internal generation bound."""
    if n > ENUMERATION_MAX_ORDER:
        raise OrderLimitError(
            f"internal enumeration is capped at order {ENUMERATION_MAX_ORDER}; "
            "supply a graph6 file for larger orders"
        )


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of order ``n``.

    Representatives are the graphs whose row-major pair mask is minimal in
    their class, emitted in increasing mask order, so the stream is
    deterministic and sorted by canonical form.

    Raises:
        OrderLimitError: for n above the internal generation bound; larger
            orders must be supplied as graph6 input instead.
    """
    check_enumeration_order(n)
    if n < 0:
        raise OrderLimitError("order must be non-negative")
    for mask in _canonical_masks(n):
        g = graph_from_pair_mask(n, mask)
        if connected_only and not is_connected(g):
            continue
        yield g


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def write_graph6(g: Graph) -> str:
    """Encode ``g`` in graph6: packed column-major upper-triangle bits.

    Orders up to 62 use the single-byte header ``n + 63``; 63 and 64 use
    the standard ``~`` three-byte extension.
    """
    n = g.n
    if n <= _G6_SHORT_MAX_ORDER:
        header = chr(n + _G6_OFFSET)
    else:
        header = "~" + "".join(
            chr(_G6_OFFSET + (n >> shift & 0x3F)) for shift in (12, 6, 0)
        )
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for at in range(0, len(bits), 6):
        value = 0
        for bit in bits[at : at + 6]:
            value = value << 1 | bit
        body.append(chr(value + _G6_OFFSET))
    return header + "".join(body)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.

    Raises:
        Graph6Error: on an empty line, a byte outside 63..126, a malformed
            or oversized header, a body of the wrong length, or nonzero
            padding bits.
    """
    line = text.rstrip("\r\n")
    if not line:
        raise Graph6Error("empty graph6 line")
    for ch in line:
        if not _G6_OFFSET <= ord(ch) <= _G6_MAX_BYTE:
            raise Graph6Error(f"byte {ord(ch)} out of the graph6 range 63..126")
    if line[0] == "~":
        if len(line) >= 2 and line[1] == "~":
            raise Graph6Error("graph6 orders above 64 are not supported")
        if len(line) < 4:
            raise Graph6Error("truncated graph6 long-form header")
        n = 0
        for ch in line[1:4]:
            n = n << 6 | (ord(ch) - _G6_OFFSET)
        body = line[4:]
    else:
        n = ord(line[0]) - _G6_OFFSET
        body = line[1:]
    if n > 64:
        raise Graph6Error(f"graph6 order {n} exceeds the 64-vertex cap")
    num_bits = n * (n - 1) // 2
    expected = (num_bits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"graph6 body for order {n} must be {expected} bytes, got {len(body)}"
        )
    bits = []
    for ch in body:
        value = ord(ch) - _G6_OFFSET
        bits.extend(value >> shift & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[num_bits:]):
        raise Graph6Error("nonzero padding bits in graph6 body")
    edges = []
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                edges.append((i, j))
            at += 1
    return build_graph(n, edges)
