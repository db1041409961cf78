"""Immutable bit-row graphs, and every composed graph as one substitution.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one integer
bitmask per vertex, so neighbourhood algebra (union, intersection,
complement) costs a couple of machine-word operations.  Orders above 64 are
rejected, which keeps every row inside a single word.  :func:`blow_up` puts
a graph in place of each vertex of a base graph; unions, joins, complete
multipartite graphs and the family blow-ups are all built by it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction, or an operation applied outside its domain."""


class DisconnectedError(GraphError):
    """Raised by operations that require a connected graph."""


class OrderLimitError(GraphError):
    """Graph order exceeds the bound supported by an exhaustive routine."""


#: Steps one exact search may take before it raises OrderLimitError:
#: ``isometry`` images tried plus ``n`` per bijection visited, ``coloring``
#: color-set tuples over all k, ``canonical`` the first cell's size at each
#: node, ``hitting-set`` nodes.  Most taken, in that order: 2,987, 765, 60,
#: 63 on benchmark inputs; 699, 225, 280, 30 on the order-8 classes; 864,317
#: (8*K(2,3)'s group), 2,011, 123,136 (C64), 2,923 in tests.
SEARCH_MAX_STEPS = 2_000_000


class StepBudget:
    """The steps one search has taken; the step past the budget raises."""

    __slots__ = ("stage", "steps")

    def __init__(self, stage: str) -> None:
        self.stage, self.steps = stage, 0

    def charge(self, cost: int = 1) -> None:
        self.steps += cost
        if self.steps > SEARCH_MAX_STEPS:
            raise OrderLimitError(f"{self.stage} search over its {SEARCH_MAX_STEPS:,}-step budget")


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[int, ...]


class Graph(_GraphFields):
    """A simple undirected graph with one adjacency bitmask per vertex.

    Instances are immutable and hashable, so they are safe to share across
    workers and to use as cache keys.  A graph is a tuple subclass, so
    ``len(g) == 2`` and ``g == (n, adj)``; it keeps a ``__dict__`` for its
    cached properties.  ``Graph(n, adj)`` checks the order and that the
    rows are in range, loop-free and symmetric, where a graph enters from
    outside the package; the package's own builders make such rows by
    construction and skip the checks.  Use :func:`build_graph` to create
    graphs from edge lists.
    """

    def __new__(cls, n: int, adj: Sequence[int]) -> Graph:
        _check_order(n)
        adj = tuple(adj)  # a stored list would make the graph unhashable
        if len(adj) != n:
            raise GraphError("number of adjacency rows does not match the order")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {v} mentions vertices outside 0..{n - 1}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            while row:
                low = row & -row
                if not adj[low.bit_length() - 1] >> v & 1:
                    raise GraphError(f"edge {v}-{low.bit_length() - 1} is not symmetric")
                row ^= low
        return tuple.__new__(cls, (n, adj))

    def __reduce__(self):
        # unpickling rebuilds the tuple without repeating the checks above
        return (tuple.__new__, (Graph, (self.n, self.adj)), vars(self) or None)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as pairs (u, v) with u < v, in row-major order."""
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return self._degree_sequence

    @cached_property
    def _degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    @cached_property
    def _connected(self) -> bool:
        # one flood from vertex 0, cached since the solvers each ask again
        return self.n <= 1 or sum(_layers_from(self.adj, 1)) == (1 << self.n) - 1

    @cached_property
    def _layers(self) -> tuple[tuple[int, ...], ...]:
        # per source, the vertex masks at distance 0, 1, ... up to its eccentricity
        return tuple(_layers_from(self.adj, 1 << s) for s in range(self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


def _unchecked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A :class:`Graph` of rows valid by construction, without its checks."""
    return tuple.__new__(Graph, (n, adj))


def _layers_from(adj: Sequence[int], seen: int) -> tuple[int, ...]:
    """Breadth-first layers from the vertex set ``seen``, starting with itself."""
    layers, frontier = [seen], seen
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            return tuple(layers)
        seen |= frontier
        layers.append(frontier)


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"order must be between 0 and {MAX_VERTICES}, got {n}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, symmetrising automatically.

    Raises:
        GraphError: on an endpoint outside ``0..n-1``, a self-loop, or
            ``n`` above the 64-vertex cap.
    """
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _unchecked_graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Edge uv present in the result exactly when absent in ``g`` (u != v)."""
    full = (1 << g.n) - 1
    return _unchecked_graph(g.n, tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """The paper's ``G ∪ H``: the vertices of ``g``, then those of ``h``."""
    return blow_up(empty_graph(2), [g, h])


def join(g: Graph, h: Graph) -> Graph:
    """The paper's ``G ∨ H``: their disjoint union plus every edge between them."""
    return blow_up(complete_graph(2), [g, h])


def blow_up(g: Graph, parts: Sequence[Graph]) -> Graph:
    """Substitute the graph ``parts[i]`` for vertex ``i`` of ``g``.

    Part ``i`` keeps its own edges and takes the next ``parts[i].n`` vertex
    labels, so ``parts[0]``'s vertices come first.  Two parts are fully
    joined exactly when their vertices of ``g`` are adjacent.

    Raises:
        GraphError: if ``len(parts) != g.n`` or the total order overflows the cap.
    """
    if len(parts) != g.n:
        raise GraphError(f"expected {g.n} parts, got {len(parts)}")
    offsets = [0]
    for part in parts:
        offsets.append(offsets[-1] + part.n)
    _check_order(offsets[-1])
    masks = [(1 << end) - (1 << start) for start, end in zip(offsets, offsets[1:])]
    rows = []
    for i, part in enumerate(parts):
        outside = sum(masks[j] for j in _bits(g.adj[i]))
        rows += [outside | row << offsets[i] for row in part.adj]
    return _unchecked_graph(offsets[-1], tuple(rows))


def is_connected(g: Graph) -> bool:
    return g._connected


def diameter(g: Graph) -> int:
    """Largest pairwise distance.  Raises on disconnected input."""
    if not is_connected(g):
        raise DisconnectedError("diameter is undefined for disconnected graphs")
    return max(map(len, g._layers), default=1) - 1


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

#: The kinds that combine sub-specs, each with the letter that writes it in
#: the expression language; every other kind is a key of LEAF_KINDS.
_COMBINATORS = {"complement": "~", "union": "U", "join": "J", "blow_up": "B"}


class _FamilySpecFields(NamedTuple):
    kind: str
    params: tuple[int, ...]
    parts: tuple[FamilySpec, ...]


class FamilySpec(_FamilySpecFields):
    """A recursive description of a named graph family instance.

    A leaf kind is a key of :data:`LEAF_KINDS`, with as many integer
    parameters as its ``arity`` asks and no parts.  The combinators
    ``union``, ``join`` and ``complement`` combine sub-specs; the parts of a
    ``blow_up`` are its base spec and then one spec per base vertex
    (counted by :func:`family_order`), the piece that replaces it.  A
    complement has exactly one part, a union or join at least one.  A
    malformed spec raises :class:`GraphError`.
    """

    __slots__ = ()

    def __new__(cls, kind: str, params=(), parts=()) -> FamilySpec:
        params, parts = tuple(params), tuple(parts)
        leaf = LEAF_KINDS.get(kind)
        if leaf is not None:
            if len(params) != leaf.arity and (leaf.arity < 2 or len(params) < 2):
                count = ("no parameters", "one parameter", "at least two parameters")[leaf.arity]
                raise GraphError(f"{leaf.name}{'(...)' if leaf.arity == 2 else ''} needs {count}")
            if parts:
                raise GraphError(f"{kind} is a leaf and has no parts, got {len(parts)}")
        elif kind not in _COMBINATORS:
            raise GraphError(f"unknown family kind {kind!r}")
        elif kind == "complement" and len(parts) != 1:
            raise GraphError(f"complement needs exactly one part, got {len(parts)}")
        elif not parts:
            raise GraphError(f"{kind} needs at least one part")
        for part in parts:
            if not isinstance(part, FamilySpec):
                raise GraphError(f"{kind} parts must be FamilySpecs, got {part!r}")
        if kind == "blow_up":
            order, pieces = family_order(parts[0]), len(parts) - 1
            if pieces != order:
                raise GraphError(f"blow_up needs {order} pieces, one per base vertex, got {pieces}")
        return tuple.__new__(cls, (kind, params, parts))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("paths need at least one vertex")
    _check_order(n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least three vertices")
    _check_order(n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graphs need at least one vertex")
    _check_order(n)
    return _unchecked_graph(n, tuple(((1 << n) - 1) ^ 1 << v for v in range(n)))


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("empty graphs need at least one vertex")
    return build_graph(n, [])


def complete_multipartite_graph(*sizes: int) -> Graph:
    if len(sizes) < 2:
        raise GraphError("complete multipartite graphs need at least two parts")
    return blow_up(complete_graph(len(sizes)), [empty_graph(s) for s in sizes])


def broom_tree(k: int) -> Graph:
    """Rooted tree whose root has degree ``k`` and whose k pendant paths
    have lengths 1..k, so the k leaves sit at distances 1..k from the root.

    The order is 1 + k(k+1)/2 and the tree has a trivial symmetry group for
    every k >= 3 (the pendant paths all have distinct lengths).
    """
    if k < 3:
        raise GraphError(f"broom trees need k >= 3, got {k}")
    _check_order(1 + k * (k + 1) // 2)
    edges = []
    nxt = 1
    for length in range(1, k + 1):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_graph(nxt, edges)


def house_graph() -> Graph:
    """The 5-cycle with one chord: degree sequence (3, 3, 2, 2, 2)."""
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def bull_graph() -> Graph:
    """A triangle with one pendant vertex at each of two of its corners:
    degree sequence (3, 3, 2, 1, 1).  It has no twins, and it is
    isomorphic to its complement."""
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])


class LeafKind(NamedTuple):
    """How one leaf family kind is built, how it is written, and its degrees.

    In the expression language ``name`` is followed by ``arity`` integer
    parameters: none (``bull``), one (``K5``), or at arity 2 a
    parenthesised list of two or more (``K(3,3)``).  ``degrees`` maps the
    same parameters to one degree per vertex of the graph ``build``
    returns, so their count is its order.
    """

    build: Callable[..., Graph]
    name: str
    arity: int
    degrees: Callable[..., tuple[int, ...]]


#: Every leaf family kind.  The expression parser tries the kinds in this
#: order, so a fixed name comes before a kind whose name it extends
#: (``C5'`` before ``C<n>``).
LEAF_KINDS: dict[str, LeafKind] = {
    "house": LeafKind(house_graph, "C5'", 0, lambda: (3, 2, 3, 2, 2)),
    "bull": LeafKind(bull_graph, "bull", 0, lambda: (1, 3, 2, 3, 1)),
    "complete": LeafKind(complete_graph, "K", 1, lambda n: (n - 1,) * n),
    "empty": LeafKind(empty_graph, "E", 1, lambda n: (0,) * n),
    "path": LeafKind(path_graph, "P", 1, lambda n: tuple((v > 0) + (v < n - 1) for v in range(n))),
    "cycle": LeafKind(cycle_graph, "C", 1, lambda n: (2,) * n),
    "broom_tree": LeafKind(broom_tree, "T", 1, lambda k: (k,) + (1,) * k + (2,) * math.comb(k, 2)),
    "complete_multipartite": LeafKind(
        complete_multipartite_graph, "K", 2, lambda *s: tuple(sum(s) - p for p in s for _ in range(p))
    ),
}


def family_order(spec: FamilySpec) -> int:
    """The order of :func:`construct_family` ``(spec)``, read off the spec
    without building anything, so a spec its builders reject still gets one.
    A run of one part object, as ``m*`` writes, is counted once, so nested
    copy counts cost time in the length of an expression, not in its order;
    runs go by identity, as comparing two equal copies would take as long."""
    leaf = LEAF_KINDS.get(spec.kind)
    if leaf is not None:
        return len(leaf.degrees(*spec.params))
    parts = spec.parts[1:] if spec.kind == "blow_up" else spec.parts
    runs = [list(run) for _, run in itertools.groupby(parts, key=id)]
    return sum(family_order(run[0]) * len(run) for run in runs)


def family_degrees(spec: FamilySpec) -> tuple[int, ...]:
    """The vertex degrees of :func:`construct_family` ``(spec)``, read off the
    spec (only a blow-up's base is built); sorted, they are its degree
    sequence, and their count is its order.  A spec with non-negative
    parameters that its builders reject (``P0``, ``C2``, ``U(C2,K3)``) still
    gets one degree per vertex they count, so still gets an order."""
    leaf = LEAF_KINDS.get(spec.kind)
    if leaf is not None:
        return leaf.degrees(*spec.params)
    if spec.kind == "blow_up":
        base = construct_family(spec.parts[0])
        inner = [family_degrees(piece) for piece in spec.parts[1:]]
        outer = [sum(len(inner[j]) for j in _bits(row)) for row in base.adj]
        return tuple(d + out for part, out in zip(inner, outer) for d in part)
    parts = [family_degrees(sub) for sub in spec.parts]
    if spec.kind == "union":
        return sum(parts, ())
    if spec.kind == "join":
        total = sum(map(len, parts))
        return tuple(d + total - len(part) for part in parts for d in part)
    return tuple(len(parts[0]) - 1 - d for d in parts[0])  # complement, of its one part


def construct_family(spec: FamilySpec) -> Graph:
    """Materialise a :class:`FamilySpec` as a concrete graph."""
    leaf = LEAF_KINDS.get(spec.kind)
    if leaf is not None:
        return leaf.build(*spec.params)
    parts = [construct_family(sub) for sub in spec.parts]
    if spec.kind == "complement":
        return complement(parts[0])
    if spec.kind != "blow_up":
        parts.insert(0, (empty_graph if spec.kind == "union" else complete_graph)(len(parts)))
    return blow_up(parts[0], parts[1:])
