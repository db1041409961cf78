"""Resolving sets and exact metric dimension.

A vertex set S resolves a connected graph when every vertex has a distinct
vector of distances to S, that is, when S meets the resolver set
R(u, v) = {w : d(u, w) != d(v, w)} of every pair of distinct vertices.  So
the metric dimension is the size of a minimum hitting set of the resolver
sets (Chartrand, Eroh, Johnson & Oellermann, "Resolvability in graphs and
the metric dimension of a graph", DAM 105 (2000)).  With L_k(x) the vertices
at distance k from x, from the graph's layer table, R(u, v) is the union of
L_k(u) XOR L_k(v) over the k both layer lists reach, as min(d(u, w), d(v, w)) does.

The search first applies the twin rule: any resolving set misses at most
one vertex of each twin class (two twins left outside would share every
distance), and twins are interchangeable, so all but the first member of
every class is forced into the set.  The classes come from
:func:`~symbreak.twins.twin_partition`, the bare partition, not the
labelled twin graph.  What remains is a hitting-set search over the class
representatives, on the pairs the forced vertices leave unresolved.  The result equals the unpruned minimum.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import or_, xor
from typing import Iterable, NamedTuple

from .graphs import DisconnectedError, Graph, GraphError, StepBudget, is_connected
from .twins import twin_partition


class ResolvingWitness(NamedTuple):
    """A minimum resolving set together with its size."""

    dim: int
    witness: tuple[int, ...]


def is_resolving(g: Graph, vertices: Iterable[int]) -> bool:
    """True when the distance vectors to ``vertices`` are pairwise distinct.

    Raises:
        DisconnectedError: metric resolution only makes sense when every
            distance is finite.
        GraphError: on a vertex outside ``0..n-1``.
    """
    if not is_connected(g):
        raise DisconnectedError("resolving sets are defined for connected graphs")
    landmarks = sorted(set(vertices))
    if landmarks and (landmarks[0] < 0 or landmarks[-1] >= g.n):
        outside = next(s for s in landmarks if not 0 <= s < g.n)
        raise GraphError(f"landmark {outside} is outside 0..{g.n - 1}")
    return len(_alike(g, sum(1 << s for s in landmarks))) == g.n


def _alike(g: Graph, mask: int) -> dict[int, list[int]]:
    """``g``'s vertices grouped by their layers within ``mask``, packed from the farthest so empty ones drop out."""
    groups: dict[int, list[int]] = {}
    for v, layers in enumerate(g._layers):
        key = 0
        for layer in reversed(layers):
            key = key << g.n | layer & mask
        groups.setdefault(key, []).append(v)
    return groups


@lru_cache(maxsize=65536)
def metric_dimension(g: Graph) -> ResolvingWitness:
    """Exact metric dimension with a witness attaining it.

    The witness holds the forced twins and a minimum hitting set, over the
    class representatives, of the minimal resolver sets of the pairs the
    forced twins leave unresolved.  The single-vertex graph has dimension 0
    under the empty-set convention.

    Raises:
        DisconnectedError: on disconnected input.
        OrderLimitError: when the hitting-set search goes over its step budget.
    """
    if g.n < 1:
        raise DisconnectedError("metric dimension needs at least one vertex")
    if not is_connected(g):
        raise DisconnectedError("metric dimension is defined for connected graphs")
    classes = twin_partition(g)
    forced = [v for cls in classes for v in cls[1:]]
    reps = sum(1 << cls[0] for cls in classes)
    layers = g._layers
    # vertices the forced twins leave unresolved share their layers restricted to them
    resolvers = {
        reps & reduce(or_, map(xor, layers[u], layers[v]))
        for group in _alike(g, sum(1 << v for v in forced)).values()
        for u, v in itertools.combinations(group, 2)
    }
    minimal: list[int] = []
    for mask in sorted(sorted(resolvers), key=int.bit_count):  # by size, then by value
        for kept in minimal:
            if kept & mask == kept:
                break
        else:
            minimal.append(mask)
    witness = tuple(sorted(forced + _min_hitting_set(minimal)))
    return ResolvingWitness(len(witness), witness)


def _min_hitting_set(sets: list[int]) -> list[int]:
    """A smallest list of vertices that meets every nonempty bitmask in
    ``sets``, in ascending order.

    Vertex ``w`` can be swapped for any ``x`` lying in every set ``w`` meets,
    so only undominated vertices are candidates (the least of equals).  Then
    branch and bound: branch, in ascending order, on the candidates of the
    unhit set with the fewest allowed ones, forbid each tried one in later
    branches, and prune once the chosen count plus a greedy count of
    pairwise-disjoint unhit sets cannot beat the best found; each node filters
    its parent's unhit sets as it scans them, so a pruned one stops early.
    """
    common: dict[int, int] = {}  # the intersection of the sets meeting w
    for mask in sets:
        bits = mask
        while bits:
            low = bits & -bits
            w = low.bit_length() - 1
            common[w] = common.get(w, -1) & mask
            bits ^= low
    kept = 0
    for w, mine in common.items():
        if mine & (1 << w) - 1:  # a lower vertex is at least as good
            continue
        higher = mine >> w + 1
        while higher:  # w stays unless some higher x meets a set that w misses
            low = higher & -higher
            if not common[w + low.bit_length()] >> w & 1:
                break
            higher ^= low
        else:
            kept |= 1 << w
    candidates = sorted(w for w in common if kept >> w & 1)
    best = [kept]
    charge = StepBudget("hitting-set").charge

    def search(unhit: list[int], allowed: int, chosen: int, size: int) -> None:
        charge()
        rest: list[int] = []  # ``unhit`` less the sets the last pick hits
        bound, covered = 0, 0
        target, fewest = 0, len(candidates) + 1
        for mask in unhit:
            if mask & chosen:
                continue
            rest.append(mask)
            options = mask & allowed
            count = options.bit_count()
            if not options & covered:
                bound += 1
                if size + bound >= best[0].bit_count():
                    return
                covered |= options
            if count < fewest:
                target, fewest = options, count
        if not rest:
            best[0] = chosen
        while target:
            bit = target & -target
            search(rest, allowed, chosen | bit, size + 1)
            allowed ^= bit
            target ^= bit

    search(sets, kept, 0, 0)
    return [w for w in candidates if best[0] >> w & 1]
