"""Resolving sets and exact metric dimension.

A vertex set S resolves a connected graph when every vertex has a distinct
vector of distances to S.  The minimum search exploits twin classes: any
resolving set misses at most one vertex of each class (two twins left
outside would share every distance), and twins are interchangeable, so the
search fixes all but the first member of every class and only enumerates
the class representatives on top.  The result equals the unpruned minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .graphs import DisconnectedError, Graph, is_connected, shortest_path_matrix, twin_partition


@dataclass(frozen=True)
class ResolvingWitness:
    """A minimum resolving set together with its size."""

    dim: int
    witness: tuple[int, ...]


def is_resolving(g: Graph, vertices: Iterable[int]) -> bool:
    """True when the distance vectors to ``vertices`` are pairwise distinct.

    Raises:
        DisconnectedError: metric resolution only makes sense when every
            distance is finite.
    """
    if not is_connected(g):
        raise DisconnectedError("resolving sets are defined for connected graphs")
    return _resolves(shortest_path_matrix(g), sorted(set(vertices)))


def _resolves(dist: Sequence[Sequence[float]], landmarks: Sequence[int]) -> bool:
    """True when no two rows of ``dist`` agree on every landmark column."""
    seen = set()
    for row in dist:
        vec = tuple(row[s] for s in landmarks)
        if vec in seen:
            return False
        seen.add(vec)
    return True


@lru_cache(maxsize=65536)
def metric_dimension(g: Graph) -> ResolvingWitness:
    """Exact metric dimension with a witness attaining it.

    Searches subsets in ascending size and returns the first success.  The
    single-vertex graph has dimension 0 under the empty-set convention.

    Raises:
        DisconnectedError: on disconnected input.
    """
    if g.n < 1:
        raise DisconnectedError("metric dimension needs at least one vertex")
    if not is_connected(g):
        raise DisconnectedError("metric dimension is defined for connected graphs")
    classes = twin_partition(g)
    base = sorted(v for cls in classes for v in cls[1:])
    representatives = sorted(cls[0] for cls in classes)
    dist = shortest_path_matrix(g)

    for extra_size in range(len(representatives) + 1):
        for extra in itertools.combinations(representatives, extra_size):
            candidate = tuple(sorted(base + list(extra)))
            if _resolves(dist, candidate):
                return ResolvingWitness(len(candidate), candidate)
    raise AssertionError("the full vertex set always resolves a connected graph")
