"""Automorphism groups, distinguishing colorings, and the resolving-set
coloring that breaks every symmetry of a connected graph.

The group is listed in full.  Orders are tiny at the scales verified
exhaustively here (at most 6! for six vertices), membership scans fail fast,
and sorting the elements by support size means a non-distinguishing coloring
is usually refuted by one of the first few transposition-like elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .graphs import (
    DisconnectedError,
    Graph,
    GraphError,
    OrderLimitError,
    is_connected,
    shortest_path_matrix,
)
from .resolving import is_resolving

#: Full listing stays feasible well past ten vertices when the group is
#: small; the verified constructions reach sixteen vertices with groups of
#: order at most 24, so the vertex cap sits there.  The element cap guards
#: against graphs whose group is too large to list at all.
AUT_MAX_VERTICES = 16
AUT_MAX_GROUP_SIZE = 50_000


class NotResolvingError(GraphError):
    """The supplied vertex set does not resolve the graph."""


@dataclass(frozen=True)
class AutomorphismGroup:
    """Every adjacency-preserving permutation, identity included.

    Elements are one-line image tuples sorted by support size, identity
    first, so fail-fast scans meet transposition-like elements early.
    """

    n: int
    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def nontrivial(self) -> tuple[tuple[int, ...], ...]:
        return self.elements[1:]


@dataclass(frozen=True)
class Coloring:
    """A vertex coloring with colors 1..k; surjectivity is not required."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise GraphError("colorings need at least one color")
        if any(not 1 <= c <= self.k for c in self.colors):
            raise GraphError("vertex colors must lie in 1..k")


def isometries(g: Graph, h: Graph, visit: Callable[[list[int]], bool | None]) -> bool:
    """Pass every distance-preserving bijection from ``g`` onto ``h`` to ``visit``.

    On graphs these bijections are exactly the isomorphisms.  The search
    backtracks over vertex images, filtering candidates by degree and
    distance profile and forcing every assigned pair to preserve distance.
    ``visit`` gets the one-line image list, which the search reuses (copy
    it to keep it), and stops the search by returning True.  Returns True
    exactly when ``visit`` stopped the search.
    """
    n = g.n
    dist_g = shortest_path_matrix(g)
    dist_h = shortest_path_matrix(h)
    profile_g = [(g.degree(v), tuple(sorted(dist_g[v]))) for v in range(n)]
    profile_h = [(h.degree(w), tuple(sorted(dist_h[w]))) for w in range(n)]
    if sorted(profile_g) != sorted(profile_h):
        return False
    candidates = [[w for w in range(n) if profile_h[w] == profile_g[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool | None:
        if i == n:
            return visit(image)
        v = order[i]
        row_v = dist_g[v]
        for w in candidates[v]:
            if used[w]:
                continue
            if all(row_v[u] == dist_h[w][image[u]] for u in order[:i]):
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return bool(extend(0))


@lru_cache(maxsize=8192)
def automorphism_group(g: Graph) -> AutomorphismGroup:
    """List the automorphism group of ``g`` exactly: the isometries from
    ``g`` onto itself.

    Raises:
        OrderLimitError: above the vertex cap, or when the group has more
            elements than can reasonably be listed.
    """
    n = g.n
    if n > AUT_MAX_VERTICES:
        raise OrderLimitError(
            f"automorphism listing is supported up to {AUT_MAX_VERTICES} vertices, got {n}"
        )
    found: list[tuple[int, ...]] = []

    def keep(image: list[int]) -> None:
        found.append(tuple(image))
        if len(found) > AUT_MAX_GROUP_SIZE:
            raise OrderLimitError(f"automorphism group exceeds {AUT_MAX_GROUP_SIZE} elements")

    isometries(g, g, keep)
    found.sort(key=lambda f: (sum(1 for v in range(n) if f[v] != v), f))
    return AutomorphismGroup(n, tuple(found))


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Orbits of the automorphism group acting on the vertices.

    The group is listed in full, so the orbit of ``v`` is its set of images.
    """
    elements = automorphism_group(g).elements
    orbits = {tuple(sorted({f[v] for f in elements})) for v in range(g.n)}
    return [list(orbit) for orbit in sorted(orbits)]


def _supports(group: AutomorphismGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    moved = []
    for f in group.nontrivial():
        moved.append((tuple(v for v in range(group.n) if f[v] != v), f))
    return moved


def _breaks_all(colors: Sequence[int], moved: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> bool:
    for support, f in moved:
        for v in support:
            if colors[f[v]] != colors[v]:
                break
        else:
            return False
    return True


def is_distinguishing(g: Graph, coloring: Coloring) -> bool:
    """True when no non-identity automorphism preserves every color."""
    if len(coloring.colors) != g.n:
        raise GraphError("coloring length does not match the graph order")
    return _breaks_all(coloring.colors, _supports(automorphism_group(g)))


@lru_cache(maxsize=65536)
def distinguishing_number(g: Graph) -> int:
    """Least number of colors admitting a distinguishing coloring.

    Enumerates colorings as functions for ascending k, with vertex 0 pinned
    to color 1 (renaming colors never changes whether a coloring
    distinguishes).  Practical up to eight vertices for arbitrary graphs and
    far beyond for graphs with small groups.
    """
    if g.n == 0:
        raise GraphError("distinguishing number needs at least one vertex")
    moved = _supports(automorphism_group(g))
    if not moved:
        return 1
    n = g.n
    for k in range(1, n + 1):
        for rest in itertools.product(range(1, k + 1), repeat=n - 1):
            if _breaks_all((1,) + rest, moved):
                return k
    raise AssertionError("an all-distinct coloring always distinguishes")


def coloring_from_resolving_set(g: Graph, landmarks: Iterable[int]) -> Coloring:
    """Color a resolving set with distinct colors and the rest uniformly.

    Landmark i (in ascending vertex order) receives color i+1 and every
    other vertex color ``len(S) + 1``.  Any color-preserving automorphism
    would fix all landmarks pointwise and, being an isometry, could not move
    anything else either, so the result always distinguishes.

    Raises:
        DisconnectedError: on disconnected input.
        NotResolvingError: when the vertex set does not resolve the graph,
            since the guarantee only holds for resolving sets.
    """
    if not is_connected(g):
        raise DisconnectedError("the coloring construction needs a connected graph")
    ordered = sorted(set(landmarks))
    if not is_resolving(g, ordered):
        raise NotResolvingError(f"{ordered} does not resolve the graph")
    rest_color = len(ordered) + 1
    colors = [rest_color] * g.n
    for index, v in enumerate(ordered):
        colors[v] = index + 1
    return Coloring(tuple(colors), rest_color)
