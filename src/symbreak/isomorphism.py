"""Isomorphism tests, exhaustive enumeration, graph6 I/O.

Enumeration deduplicates by canonical form: the lexicographically smallest
upper triangle of the adjacency matrix, read row by row, over all
relabelings.  Two graphs are isomorphic exactly when their canonical forms
coincide.

Canonicalisation of a single graph places vertices one position at a time
and keeps the unplaced ones as an ordered list of cells, each homogeneous
towards every placed vertex (McKay and Piperno's refinement, by the same
:func:`split_cells` as the isomorphism search :func:`isometries`).  In the
minimal string the unplaced positions are sorted by their adjacency to the
placed prefix, so the next position holds a vertex of the first cell, and
that vertex's row, its non-neighbours then its neighbours within each cell,
is fixed by its neighbour count per cell.  Only first-cell vertices with the
least row branch, one per twin class, and a branch stops as soon as its exact
prefix exceeds the best string's.  The search is exact at every order; it
charges the first cell's size at each node to a :class:`~symbreak.graphs.StepBudget`.

Exhaustive enumeration works at orders up to :data:`ENUMERATION_MAX_ORDER`
by one-vertex augmentation: every representative of order ``n - 1`` gets a
new vertex joined to one neighbourhood per vector of counts over its twin
classes, which meets every orbit of its automorphism group without listing
that group.  Only children whose new vertex has the largest degree are kept
(McKay, J. Algorithms 26 (1998)), an exact rule since every graph minus a
vertex of largest degree is some parent, and they are deduplicated by
canonical form.  Orders 1 to 7 (1,044 classes at 7) take about 0.04 s of
process time, 1 to 8 (12,346) about 0.6 s and 1 to 9 (274,668) about 16 s
(Python 3.11, one core of an AMD EPYC).  Every search has a
step budget, so the cap at 7 bounds a scan's total work, not any one
search; larger orders enter through graph6 files.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from typing import Callable, Hashable, Iterator, Sequence

from .graphs import (MAX_VERTICES, Graph, OrderLimitError, StepBudget, _bits, _check_order,
                     _unchecked_graph, is_connected)
from .twins import twin_classes_of_rows, twin_graph

ENUMERATION_MAX_ORDER = 7

#: graph6 bytes are printable ASCII offset by 63.
_G6_OFFSET = 63
_G6_MAX_BYTE = 126
_G6_SHORT_MAX_ORDER = 62


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def split_cells(cells: Sequence[int], adj: Sequence[int], v: int) -> list[int]:
    """Take ``v`` out of the ordered vertex-mask ``cells`` and split each cell
    into ``v``'s non-neighbours, then its neighbours, dropping empty parts."""
    refined = []
    for cell in cells:
        outside, inside = cell & ~(adj[v] | 1 << v), cell & adj[v]
        if outside:
            refined.append(outside)
        if inside:
            refined.append(inside)
    return refined


def isometries(
    g: Graph,
    h: Graph,
    visit: Callable[[list[int]], bool | None],
    colors: Sequence[Hashable] | None = None,
    h_colors: Sequence[Hashable] | None = None,
) -> bool:
    """Pass every isomorphism from ``g`` onto ``h`` to ``visit``.

    Both sides keep their unplaced vertices as paired ordered cells, first
    grouped by color (``h_colors`` on ``h``, by default ``colors``) and
    degree.  The lowest vertex ``v`` of the smallest ``g`` cell goes to each
    ``w`` of the paired cell with ``v``'s neighbour count in every cell
    pair; :func:`split_cells` then splits both sides.  When ``h`` is ``g``
    with the same color sequence, the branch that has fixed every vertex
    so far keeps one list of cells for both sides, so its ``v`` to ``v``
    child is split once and checked not at all, and it visits the identity
    as soon as every cell is a singleton.  Forced singletons are placed in
    a loop, not one recursion level each.  ``visit`` gets the image list,
    which the search reuses (copy it to keep it), and returning True from it
    stops the search and makes this return True.  A step is an image tried,
    or ``n`` per visit.
    """
    n = g.n
    if h.n != n:
        return False
    colors = [0] * n if colors is None else colors
    h_colors = colors if h_colors is None else h_colors
    shared = h is g and h_colors is colors  # a self-map search starts on the identity
    g_keyed, h_keyed = defaultdict(int), defaultdict(int)
    for v in range(n):  # each side's (color, degree) cells in one pass
        g_keyed[colors[v], g.adj[v].bit_count()] |= 1 << v
        if not shared:
            h_keyed[h_colors[v], h.adj[v].bit_count()] |= 1 << v
    keys = sorted(g_keyed)
    g_cells = [g_keyed[key] for key in keys]
    h_cells = g_cells if shared else [h_keyed.get(key, 0) for key in keys]
    sizes = [cell.bit_count() for cell in g_cells]
    if not shared and sizes != [cell.bit_count() for cell in h_cells]:
        return False
    image = [-1] * n
    charge = StepBudget("isometry").charge

    def extend(g_cells: list[int], h_cells: list[int]) -> bool | None:
        while True:
            identity = h_cells is g_cells  # one list for both sides: every vertex placed is fixed
            sizes = [cell.bit_count() for cell in g_cells]
            if not g_cells or identity and max(sizes) == 1:
                for cell in g_cells:  # the identity branch fixes its singletons too
                    v = cell.bit_length() - 1
                    image[v] = v
                charge(n)
                return visit(image)
            i = sizes.index(min(sizes))
            v = (g_cells[i] & -g_cells[i]).bit_length() - 1
            counts = [(g.adj[v] & cell).bit_count() for cell in g_cells]
            g_split = split_cells(g_cells, g.adj, v)
            if sizes[i] > 1:
                break
            charge()  # a singleton's one image is placed here, not one level down
            w = v if identity else h_cells[i].bit_length() - 1
            if not identity and [(h.adj[w] & cell).bit_count() for cell in h_cells] != counts:
                return False
            image[v] = w
            g_cells, h_cells = g_split, g_split if identity else split_cells(h_cells, h.adj, w)
        for w in _bits(h_cells[i]):
            charge()
            if identity and w == v:
                image[v] = v
                if extend(g_split, g_split):
                    return True
            elif [(h.adj[w] & cell).bit_count() for cell in h_cells] == counts:
                image[v] = w
                if extend(g_split, split_cells(h_cells, h.adj, w)):
                    return True
        return False

    return bool(extend(g_cells, h_cells))


def _min_row_major_value(adj: tuple[int, ...]) -> int:
    """Canonical value of the simple graph with adjacency rows ``adj``."""
    n = len(adj)
    if n <= 1:
        return 0
    class_id = [0] * n
    for ci, cls in enumerate(twin_classes_of_rows(adj)):
        for v in cls:
            class_id[v] = ci

    best = 1 << n * (n - 1) // 2  # above every value of that many bits
    charge = StepBudget("canonical").charge

    def search(cells: list[int], prefix: int, m: int) -> None:
        # ``cells`` orders the m unplaced vertices; each cell is homogeneous
        # towards every placed vertex, and ``prefix`` holds the placed rows.
        nonlocal best
        sizes = [cell.bit_count() for cell in cells]
        charge(sizes[0])  # a step per candidate row
        sizes[0] -= 1  # the placed vertex leaves the first cell
        least, chosen, classes = None, [], set()
        bits = cells[0]
        while bits:
            low = bits & -bits
            bits ^= low
            v = low.bit_length() - 1
            # v's row: within each cell, its non-neighbours then its neighbours
            row = 0
            for cell, size in zip(cells, sizes):
                row = row << size | (1 << (adj[v] & cell).bit_count()) - 1
            if least is None or row < least:
                least, chosen, classes = row, [v], {class_id[v]}
            elif row == least and class_id[v] not in classes:
                chosen.append(v)
                classes.add(class_id[v])
        m -= 1
        prefix = prefix << m | least
        rest = m * (m - 1) // 2
        if prefix > best >> rest:
            return
        if m <= 1:
            best = min(best, prefix)
            return
        for v in chosen:
            search(split_cells(cells, adj, v), prefix, m)

    search([(1 << n) - 1], 0, n)
    return best


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """The graph whose pairs, row-major from (0, 1), are ``mask``'s bits from the top."""
    _check_order(n)
    return _unchecked_graph(n, tuple(_pair_mask_rows(n, mask)))


def _pair_mask_rows(n: int, mask: int) -> list[int]:
    """The adjacency rows of :func:`graph_from_pair_mask`, unchecked."""
    rows = [0] * n
    bit = n * (n - 1) // 2
    for i, j in itertools.combinations(range(n), 2):
        bit -= 1
        if mask >> bit & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """True when some bijection maps the edges of ``g`` exactly onto ``h``.

    Twin classes are modules, so ``g`` and ``h`` are isomorphic exactly when
    some isomorphism of their twin graphs maps every class onto one of the
    same size and type.  The search runs on the twin graphs alone and never
    permutes the vertices inside a class, and graphs whose degree sequences
    differ never reach it.
    """
    if g.degree_sequence() != h.degree_sequence():
        return False
    tg, th = twin_graph(g), twin_graph(h)
    return isometries(tg.quotient, th.quotient, lambda _image: True, tg.labels, th.labels)


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    """Masks of the canonical representatives of all order-n graphs, sorted.

    Every order-n graph is an order-(n-1) representative plus one vertex,
    and that vertex may be taken to have the largest degree: removing such
    a vertex ``u`` leaves a graph isomorphic to some parent, and the
    parent's subset in the orbit of ``u``'s neighbourhood gives a child
    whose new vertex plays ``u``'s part.  So only children whose new vertex
    has the largest degree are canonicalised (221, 1,808 and 22,194 at
    orders 6, 7 and 8, against 652, 6,412 and 94,956 without the rule), and
    only subsets of at least the parent's largest degree are tried.  No
    group is listed, so an orbit may be tried more than once; parents and
    children are bare rows, and their canonical values are deduplicated.
    """
    if n <= 1:
        return (0,)
    found = set()
    for parent_mask in _canonical_masks(n - 1):
        adj = _pair_mask_rows(n - 1, parent_mask)
        degrees = [row.bit_count() for row in adj]
        for subset in _orbit_subsets(adj, max(degrees)):
            size = subset.bit_count()
            if any(size < d + (subset >> v & 1) for v, d in enumerate(degrees)):
                continue
            rows = [row | (subset >> v & 1) << n - 1 for v, row in enumerate(adj)]
            found.add(_min_row_major_value((*rows, subset)))
    return tuple(sorted(found))


def _orbit_subsets(adj: Sequence[int], least: int) -> Iterator[int]:
    """Yield the vertex subsets, as bit masks, of at least ``least`` vertices
    that take the first ``k`` members of each twin class of the graph with
    adjacency rows ``adj``, one subset per vector of counts ``k``.

    Permutations inside twin classes are automorphisms, so two subsets that
    take as many vertices from every class lie in one orbit, and the subsets
    yielded meet every orbit of the automorphism group at least once.
    """
    classes = twin_classes_of_rows(adj)
    for counts in itertools.product(*(range(len(cls) + 1) for cls in classes)):
        if sum(counts) >= least:
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
        GraphError: for a negative n.
    """
    check_enumeration_order(n)
    _check_order(n)
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
    num_bits = n * (n - 1) // 2
    num_bytes = (num_bits + 5) // 6
    bits = 0
    for j in range(1, n):
        for i in range(j):
            bits = bits << 1 | g.adj[i] >> j & 1
    bits <<= 6 * num_bytes - num_bits  # zero padding up to whole bytes
    body = (chr(_G6_OFFSET + (bits >> 6 * at & 0x3F)) for at in reversed(range(num_bytes)))
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
            raise Graph6Error(f"graph6 orders above {MAX_VERTICES} are not supported")
        if len(line) < 4:
            raise Graph6Error("truncated graph6 long-form header")
        n = 0
        for ch in line[1:4]:
            n = n << 6 | (ord(ch) - _G6_OFFSET)
        body = line[4:]
    else:
        n = ord(line[0]) - _G6_OFFSET
        body = line[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 order {n} exceeds the {MAX_VERTICES}-vertex cap")
    num_bits = n * (n - 1) // 2
    expected = (num_bits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"graph6 body for order {n} must be {expected} bytes, got {len(body)}"
        )
    bits = 0
    for ch in body:
        bits = bits << 6 | (ord(ch) - _G6_OFFSET)
    if bits & (1 << 6 * expected - num_bits) - 1:
        raise Graph6Error("nonzero padding bits in graph6 body")
    rows = [0] * n
    at = 6 * expected  # the pairs (i, j) run column-major from the top bit
    for j in range(1, n):
        for i in range(j):
            at -= 1
            if bits >> at & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _unchecked_graph(n, tuple(rows))
