"""Independent brute-force oracles used to validate the production solvers.

Everything here is deliberately naive and shares no code path with the
package: permutations come from itertools, colorings are enumerated without
any symmetry reduction, and subset searches scan the full powerset.
"""

from __future__ import annotations

import itertools
import math

from symbreak import Graph, build_graph


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving permutations, by scanning n! candidates."""
    perms = []
    for perm in itertools.permutations(range(g.n)):
        if all(
            (g.adj[perm[u]] >> perm[v] & 1) == (g.adj[u] >> v & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            perms.append(perm)
    return perms


def brute_distinguishing_number(g: Graph) -> int:
    """Least k over all k^n colorings, refuting with brute automorphisms."""
    identity = tuple(range(g.n))
    nontrivial = [p for p in brute_automorphisms(g) if p != identity]
    if not nontrivial:
        return 1
    for k in range(1, g.n + 1):
        for colors in itertools.product(range(k), repeat=g.n):
            if all(
                any(colors[p[v]] != colors[v] for v in range(g.n)) for p in nontrivial
            ):
                return k
    raise AssertionError("n distinct colors always distinguish")


def multipartite_distinguishing_number(s: int, m: int) -> int:
    """D(K(s^m)) = min{k : C(k, s) >= m}; Collins & Trenk, EJC 13 (2006) R16."""
    return next(k for k in itertools.count(1) if math.comb(k, s) >= m)


def cycle_distinguishing_number(n: int) -> int:
    """D(C_n) is 3 for n = 3, 4, 5 and 2 from n = 6; Albertson & Collins, EJC 3 (1996) R18."""
    return 3 if n <= 5 else 2


def are_twins(g: Graph, u: int, v: int) -> bool:
    """True when ``u`` and ``v`` have the same neighbours apart from one another."""
    return set(g.neighbors(u)) - {v} == set(g.neighbors(v)) - {u}


def naive_distances(g: Graph) -> list[list[float]]:
    """All-pairs hop distances by Floyd-Warshall over the adjacency bits,
    ``math.inf`` across components."""
    n = g.n
    dist = [[0 if u == v else 1 if g.adj[u] >> v & 1 else math.inf for v in range(n)] for u in range(n)]
    for k in range(n):
        for u in range(n):
            for v in range(n):
                if dist[u][k] + dist[k][v] < dist[u][v]:
                    dist[u][v] = dist[u][k] + dist[k][v]
    return dist


def naive_metric_dimension(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Plain subset enumeration, ascending by size, lexicographic inside."""
    dist = naive_distances(g)
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            vectors = {tuple(dist[v][s] for s in subset) for v in range(g.n)}
            if len(vectors) == g.n:
                return size, subset
    raise AssertionError("the full vertex set always resolves")


def tree_metric_dimension(g: Graph) -> int:
    """Metric dimension of a tree by the leg formula: 0 for one vertex, 1 for
    a path, and otherwise the leaves minus the exterior major vertices (a
    vertex of degree at least 3 joined to some leaf by a path whose inner
    vertices have degree 2).  See Slater, "Leaves of trees" (1975), and
    Khuller, Raghavachari & Rosenfeld, "Landmarks in graphs", DAM 70 (1996).
    """
    n = g.n
    neighbours = [[u for u in range(n) if g.adj[v] >> u & 1] for v in range(n)]
    degree = [len(row) for row in neighbours]
    assert sum(degree) == 2 * (n - 1), "not a tree"
    if n == 1:
        return 0
    if max(degree) <= 2:
        return 1
    leaves = [v for v in range(n) if degree[v] == 1]
    exterior = set()
    for leaf in leaves:
        previous, v = leaf, neighbours[leaf][0]
        while degree[v] == 2:
            previous, v = v, next(u for u in neighbours[v] if u != previous)
        exterior.add(v)
    return len(leaves) - len(exterior)


def edge_list_quotient(g: Graph, classes: list[tuple[int, ...]]) -> Graph:
    """The twin quotient of ``g`` over ``classes`` from an edge list: classes
    ``a < b`` are adjacent when their first members are."""
    pairs = itertools.combinations(range(len(classes)), 2)
    return build_graph(len(classes), [(a, b) for a, b in pairs if g.adj[classes[a][0]] >> classes[b][0] & 1])


def substitution_by_edges(base: Graph, parts: list[Graph]) -> Graph:
    """``parts[i]`` put in place of vertex ``i`` of ``base``, from an edge
    list: part ``i`` takes the labels after those of parts ``0..i-1``, keeps
    its edges, and meets part ``j`` in every pair when ``i ~ j`` in ``base``."""
    starts = [sum(p.n for p in parts[:i]) for i in range(len(parts) + 1)]
    labels = [range(starts[i], starts[i + 1]) for i in range(len(parts))]
    edges = []
    for i, part in enumerate(parts):
        pairs = itertools.combinations(range(part.n), 2)
        edges += [(labels[i][x], labels[i][y]) for x, y in pairs if part.adj[x] >> y & 1]
    for i, j in itertools.combinations(range(base.n), 2):
        if base.adj[i] >> j & 1:
            edges += itertools.product(labels[i], labels[j])
    return build_graph(starts[-1], edges)


def pair_mask(g: Graph) -> int:
    """Row-major upper-triangle bits of ``g`` as one integer (MSB first),
    in ``g``'s own labelling."""
    value = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            value = value << 1 | (g.adj[i] >> j & 1)
    return value


def brute_canonical_value(g: Graph) -> int:
    """Minimum packed row-major upper-triangle value over all n! orderings."""
    n = g.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = None
    for perm in itertools.permutations(range(n)):
        value = 0
        for i, j in pairs:
            value = value << 1 | (g.adj[perm[i]] >> perm[j] & 1)
        if best is None or value < best:
            best = value
    return 0 if best is None else best
