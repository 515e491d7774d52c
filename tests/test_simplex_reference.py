"""`gh_exact` against certified distances from a scaled simplex.

λΔ_k is the k-point space with every distance λ.  For a strict space X of
n points, and λ >= diam X:

- k > n: 2·d_GH(λΔ_k, X) = max(λ, diam X − λ).  Some point of X has two
  partners, which costs λ, and the diameter gap gives diam X − λ; a
  surjection from λΔ_k onto X attains the larger of the two.
- k <= n: 2·d_GH(λΔ_k, X) = P_k, the least over partitions of X into k
  nonempty parts of the larger of the largest part diameter and the
  largest λ − d(x, x') over x, x' in different parts.  A correspondence
  in which some x has two partners costs at least λ; any other is such a
  partition with exactly that distortion, and every partition costs at
  most λ.

The reference enumerates partitions and shares no code with the solver.
On a two-distance space X_G (distance 2 on the edges of a graph G, 1 on
the other pairs) at λ = 2 the partition cost is 2 when a part holds an edge
and 1 otherwise, so 2·d_GH(2Δ_k, X_G) is 1 for χ(G) <= k < n and 2 for
k < χ(G); a colouring backtracker gives χ for the colouring family.
"""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest

from ghkit.generate import random_metric_space, rng_from_seed
from ghkit.solver import gh_exact
from ghkit.spaces import diameter, from_grid


def _simplex(k, lam):
    """λΔ_k."""
    top = lam.numerator
    rows = tuple(tuple(0 if i == j else top for j in range(k)) for i in range(k))
    return from_grid(tuple(f"s{i}" for i in range(k)), lam.denominator, rows)


def _partitions(points, k):
    """Every partition of `points` into k nonempty parts."""
    if k == 0:
        if not points:
            yield []
        return
    if len(points) < k:
        return
    first, rest = points[0], points[1:]
    for partition in _partitions(rest, k - 1):
        yield [[first], *partition]
    for partition in _partitions(rest, k):
        for p in range(len(partition)):
            yield [*partition[:p], [first, *partition[p]], *partition[p + 1 :]]


def _partition_cost(space, parts, lam):
    """The larger of the largest part diameter and the largest λ − d over
    pairs in different parts."""
    d = space.dist
    inner = [d[a][b] for part in parts for a, b in combinations(part, 2)]
    cross = [lam - d[a][b] for p, q in combinations(parts, 2) for a in p for b in q]
    return max(inner + cross, default=F(0))


def _twice_distance(space, k, lam):
    """2·d_GH(λΔ_k, X) by the two identities, for λ >= diam X."""
    n = len(space)
    if k > n:
        return max(lam, diameter(space) - lam)
    partitions = _partitions(list(range(n)), k)
    return min(_partition_cost(space, parts, lam) for parts in partitions)


def _cases():
    cases = []
    for seed in range(30):
        rng = rng_from_seed(900 + seed)
        n = 2 + seed % 5
        space = random_metric_space(rng, n)
        cases.append(pytest.param(space, id=f"{n}pt-{900 + seed}"))
    return cases


@pytest.mark.parametrize("space", _cases())
def test_distances_to_scaled_simplexes_equal_the_identities(space):
    diam = diameter(space)
    for lam in (diam, diam + F(1, 3), 2 * diam):
        for k in range(1, 8):
            simplex, expected = _simplex(k, lam), _twice_distance(space, k, lam) / 2
            assert gh_exact(simplex, space).value == expected, (k, lam)
            assert gh_exact(space, simplex).value == expected, (k, lam)


def _mycielskian(n, edges):
    """The Mycielskian of a graph on 0..n-1: a shadow n + i of each vertex i,
    joined to i's neighbours, and an apex 2n joined to every shadow."""
    shadows = {(i, n + j) for i, j in edges} | {(j, n + i) for i, j in edges}
    return 2 * n + 1, set(edges) | shadows | {(n + i, 2 * n) for i in range(n)}


def _two_distance_space(n, edges):
    """Distance 2 on the edges of a graph, 1 on the other pairs."""
    edges = {frozenset(edge) for edge in edges}
    rows = tuple(
        tuple(0 if i == j else 2 if frozenset((i, j)) in edges else 1 for j in range(n))
        for i in range(n)
    )
    return from_grid(tuple(f"v{i}" for i in range(n)), 1, rows)


def test_mycielski_23_against_simplexes_of_its_chromatic_number():
    """The Mycielskian of the Grötzsch graph (itself the Mycielskian of C5)
    has 23 vertices and χ = 5 by construction.  At λ = 2 = diam X a part
    costs 2 exactly when it holds an edge and every cross pair costs at
    most 1, so d_GH(2Δ_k, X) is 1 for k = 4 < χ and 1/2 for k = 5."""
    groetzsch = _mycielskian(5, [(i, (i + 1) % 5) for i in range(5)])
    space = _two_distance_space(*_mycielskian(*groetzsch))
    assert len(space) == 23 and diameter(space) == 2
    for k, expected in ((4, F(1)), (5, F(1, 2))):
        simplex = _simplex(k, F(2))
        assert gh_exact(simplex, space).value == expected
        assert gh_exact(space, simplex).value == expected


def _colour_graph(n, p, s):
    """The edges of colouring graph n-p-s: pair i < j, i outer, both
    ascending, is an edge when the seeded draw falls below p."""
    rng = random.Random(f"colour/{n}/{p}/{s}")
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


@lru_cache(maxsize=None)
def _chromatic_number(n, p, s):
    """χ of colouring graph n-p-s by DSATUR branch and bound: colour next
    the open vertex with the most distinct colours among its neighbours
    (then the highest degree), try each colour it may take, and open a new
    colour only while the count stays below the best colouring found."""
    neighbours = [set() for _ in range(n)]
    for i, j in _colour_graph(n, p, s):
        neighbours[i].add(j)
        neighbours[j].add(i)
    colour = [None] * n
    best = n

    def saturation(v):
        return len({colour[w] for w in neighbours[v]} - {None}), len(neighbours[v])

    def backtrack(coloured, used):
        nonlocal best
        if coloured == n:
            best = used
            return
        v = max((u for u in range(n) if colour[u] is None), key=saturation)
        taken = {colour[w] for w in neighbours[v]}
        for c in range(min(used + 1, best - 1)):
            if c not in taken:
                colour[v] = c
                backtrack(coloured + 1, max(used, c + 1))
                colour[v] = None

    backtrack(0, 0)
    return best


# (n, p, s, k): k = χ or χ − 1 on graphs of 24-32 vertices that the solver
# decides well inside its budget
_COLOURING_CASES = [
    *((24, 0.5, s, k) for s in range(5) for k in (6, 5)),
    (24, 0.7, 2, 9),
    *((24, 0.7, 3, k) for k in (8, 7)),
    *((28, 0.5, s, 7) for s in range(5)),
    (28, 0.5, 0, 6),
    (28, 0.5, 4, 6),
    (28, 0.7, 2, 10),
    (28, 0.7, 3, 9),
    (32, 0.5, 2, 8),
    (32, 0.5, 3, 6),
    (32, 0.5, 4, 7),
    (32, 0.7, 1, 10),
]


@pytest.mark.parametrize(
    "n, p, s, k",
    _COLOURING_CASES,
    ids=[f"{n}-{p}-{s}-k{k}" for n, p, s, k in _COLOURING_CASES],
)
def test_colouring_graphs_against_simplexes_at_and_below_their_chromatic_number(
    n, p, s, k
):
    chi = _chromatic_number(n, p, s)
    assert k in (chi, chi - 1)
    space = _two_distance_space(n, _colour_graph(n, p, s))
    assert diameter(space) == 2
    expected = F(1, 2) if k == chi else F(1)
    assert gh_exact(_simplex(k, F(2)), space).value == expected
