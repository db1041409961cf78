"""Resolving sets and exact metric dimension.

A vertex set S resolves a connected graph when every vertex has a distinct
vector of distances to S, that is, when S meets the resolver set
R(u, v) = {w : d(u, w) != d(v, w)} of every pair of distinct vertices.  So
the metric dimension is the size of a minimum hitting set of the resolver
sets (Chartrand, Eroh, Johnson & Oellermann, "Resolvability in graphs and
the metric dimension of a graph", DAM 105 (2000)).

The search first applies the twin rule: any resolving set misses at most
one vertex of each twin class (two twins left outside would share every
distance), and twins are interchangeable, so all but the first member of
every class is forced into the set.  What remains is a hitting-set search
over the class representatives, on the pairs the forced vertices leave
unresolved.  The result equals the unpruned minimum.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple

from .graphs import DisconnectedError, Graph, GraphError, StepBudget, is_connected, shortest_path_matrix
from .twins import twin_classes


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
    return len({tuple(row[s] for s in landmarks) for row in shortest_path_matrix(g)}) == g.n


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
    classes = twin_classes(g)
    forced = [v for cls in classes for v in cls[1:]]
    representatives = [cls[0] for cls in classes]
    dist = shortest_path_matrix(g)

    # Vertices the forced twins leave unresolved share one distance vector.
    alike: dict[tuple[float, ...], list[int]] = {}
    for v in range(g.n):
        alike.setdefault(tuple(dist[v][w] for w in forced), []).append(v)
    resolvers = {
        sum(1 << r for r in representatives if dist[u][r] != dist[v][r])
        for group in alike.values()
        for u, v in itertools.combinations(group, 2)
    }
    minimal: list[int] = []
    for mask in sorted(resolvers, key=lambda mask: (mask.bit_count(), mask)):
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    witness = tuple(sorted(forced + _min_hitting_set(minimal, representatives)))
    return ResolvingWitness(len(witness), witness)


def _min_hitting_set(sets: list[int], candidates: list[int]) -> list[int]:
    """A smallest list of ``candidates`` that meets every bitmask in ``sets``
    (each a nonempty set of candidates), in ascending order.

    A candidate that meets only sets some other candidate meets too can be
    swapped for that one, so only undominated candidates are kept (the
    least of equals).  Then branch and bound: branch on the unhit set with
    the fewest allowed candidates, forbid each tried candidate in the later
    branches, and prune when the chosen count plus a greedy count of
    pairwise-disjoint unhit sets cannot beat the best found so far.
    """
    meets = {w: sum(1 << i for i, mask in enumerate(sets) if mask >> w & 1) for w in candidates}
    kept = 0
    for w, mine in meets.items():
        dominated = any(
            mine & theirs == mine and (mine != theirs or x < w)
            for x, theirs in meets.items()
            if x != w
        )
        if mine and not dominated:
            kept |= 1 << w
    candidates = sorted(w for w in candidates if kept >> w & 1)
    best = [kept]
    charge = StepBudget("hitting-set").charge

    def search(unhit: list[int], allowed: int, chosen: int, size: int) -> None:
        charge()
        if not unhit:
            best[0] = chosen
            return
        bound, covered = 0, 0
        target, fewest = 0, len(candidates) + 1
        for mask in unhit:
            options = mask & allowed
            count = options.bit_count()
            if not count:
                return
            if not options & covered:
                bound += 1
                covered |= options
            if count < fewest:
                target, fewest = options, count
        if size + bound >= best[0].bit_count():
            return
        for w in candidates:
            bit = 1 << w
            if target & bit:
                search([mask for mask in unhit if not mask & bit], allowed, chosen | bit, size + 1)
                allowed &= ~bit

    search(sets, kept, 0, 0)
    return [w for w in candidates if best[0] >> w & 1]
