"""Seeded generators for spaces, correspondences, hedgehogs, and trees.

Random metric spaces are built by sampling points with rational coordinates
and taking the sup-distance, which satisfies the triangle inequality by
construction; everything downstream is therefore valid without rejection.
All generators are deterministic functions of the supplied Random instance.
A request whose output could be over the point cap is refused with
`TooLarge` before sampling, so every generated file fits the readers' guards.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .correspondences import Correspondence, distortion
from .gluing import GluingTree
from .hedgehogs import HedgehogSpec, compile_hedgehog
from .spaces import STRICT, FiniteMetricSpace, as_fraction, check_points, from_grid

DEFAULT_SEED = 7


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def random_metric_space(
    rng: random.Random,
    n: int,
    denominator: int = 6,
    coord_max: int = 60,
    distinct_distances: bool = False,
    label_prefix: str = "p",
) -> FiniteMetricSpace:
    """n distinct points of the box {0..coord_max}^3 scaled by 1/denominator,
    under the sup metric; strict by construction.

    The integer sup rows go to `from_grid` as they are, so no `Fraction` is
    made.  With `distinct_distances`, a draw with a repeated distance is
    redrawn."""
    if n < 1:
        raise ValueError("need at least one point")
    check_points("space has", n)
    if coord_max < 0 or denominator < 1:
        raise ValueError("need coord_max >= 0 and denominator >= 1")
    if n > (coord_max + 1) ** 3:
        raise ValueError(f"the box holds only {(coord_max + 1) ** 3} points")
    if distinct_distances and n * (n - 1) // 2 > coord_max:
        raise ValueError(f"only {coord_max} distinct distances are possible")
    for _ in range(1000):
        points = []
        seen = set()
        while len(points) < n:
            candidate = tuple(rng.randrange(coord_max + 1) for _ in range(3))
            if candidate in seen:
                continue
            seen.add(candidate)
            points.append(candidate)
        rows = tuple(
            [
                tuple([max(abs(a - x), abs(b - y), abs(c - z)) for x, y, z in points])
                for a, b, c in points
            ]
        )
        if distinct_distances:
            upper = [value for i, row in enumerate(rows) for value in row[i + 1 :]]
            if len(set(upper)) < len(upper):
                continue
        labels = tuple(f"{label_prefix}{i}" for i in range(n))
        return from_grid(labels, denominator, rows, STRICT)
    raise ValueError("could not sample a space with the requested properties")


def random_correspondence(
    rng: random.Random,
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
) -> Correspondence:
    """Random covering relation of positive distortion: a map each way plus
    each other pair with probability 1/4."""
    n, m = len(x), len(y)
    for _ in range(1000):
        pairs = {(i, rng.randrange(m)) for i in range(n)}
        pairs.update((rng.randrange(n), j) for j in range(m))
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.25:
                    pairs.add((i, j))
        rel = Correspondence(x, y, frozenset(pairs))
        if distortion(rel) > 0:
            return rel
    raise ValueError("could not sample a correspondence with positive distortion")


def random_gluing_tree(rng: random.Random, n_vertices: int) -> GluingTree:
    """Random tree shape with random 3-point spaces and edge correspondences."""
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    vertices = tuple(
        random_metric_space(rng, 3, label_prefix=f"v{i}p")
        for i in range(n_vertices)
    )
    edges = []
    for w in range(1, n_vertices):
        u = rng.randrange(w)  # attach each vertex below an earlier one
        rel = random_correspondence(rng, vertices[u], vertices[w])
        edges.append((u, w, rel))
    return GluingTree(vertices, tuple(edges))


def grid_hedgehog(eps: int | Fraction, diam: int | Fraction) -> HedgehogSpec:
    """Needles eps, 2*eps, ..., diam (diam must be a multiple of eps)."""
    eps = as_fraction(eps)
    diam = as_fraction(diam)
    if eps <= 0 or diam < eps:
        raise ValueError("need 0 < eps <= diam")
    steps = diam / eps
    if steps.denominator != 1:
        raise ValueError("diam must be an integer multiple of eps")
    check_points("hedgehog has", steps.numerator + 1)
    return HedgehogSpec.from_pairs((eps * k, 1) for k in range(1, steps.numerator + 1))


def dense_hedgehog_spec(
    rng: random.Random,
    count: int,
    max_length: int | Fraction,
) -> HedgehogSpec:
    """Random spec with `count` distinct needle lengths on the 1/8 grid, each
    of multiplicity 1 or 2, so up to 1 + 2*count points."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    check_points("hedgehog may have", 1 + 2 * count)
    max_length = as_fraction(max_length)
    grid_size = int(max_length * 8)
    if count > grid_size:
        raise ValueError("not enough grid points for the requested count")
    numerators = rng.sample(range(1, grid_size + 1), count)
    return HedgehogSpec.from_pairs(
        (Fraction(num, 8), rng.randrange(1, 3)) for num in numerators
    )


def perturbed_hedgehog(
    rng: random.Random,
    spec: HedgehogSpec,
    delta: int | Fraction,
) -> tuple[HedgehogSpec, Correspondence]:
    """Nudge every needle by a multiple of delta/64 smaller than delta;
    return the perturbed spec and the needle-to-needle correspondence
    (centers matched) on compiled spaces.

    Draws move ints on d = 64*q*L (delta = p/q, L = `spec.grid[0]`): a copy
    x is x*d, and a nudge s/64 * delta is s*p*L, reflected if it ends <= 0.
    Both compilations list needles ascending and sorted matching minimizes
    the bottleneck gap on a line, so identity index pairing matches every
    needle within delta of one of its nudged copies; the distortion is then
    below 2*delta, and positive: a draw equal to `spec` (a zero move) is redrawn.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    compiled = compile_hedgehog(spec)  # refuses a spec over the point cap first
    d = 64 * delta.denominator * spec.grid[0]
    copies = [x.numerator * (d // x.denominator) for x in spec.expanded()]
    step = delta.numerator * spec.grid[0]
    for _ in range(1000):
        moved = []
        for x in copies:
            y = x + rng.randrange(-63, 64) * step
            moved.append(Fraction(y if y > 0 else 2 * x - y, d))
        other = HedgehogSpec.from_pairs((x, 1) for x in moved)
        if other != spec:
            pairs = frozenset((i, i) for i in range(spec.point_count))
            return other, Correspondence(compiled, compile_hedgehog(other), pairs)
    raise ValueError("could not build a positive-distortion perturbation")
