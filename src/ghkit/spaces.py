"""Finite metric and pseudometric spaces with exact rational distances.

Every distance is a `fractions.Fraction` at the API, so the identities the
rest of the package relies on (diameter scaling, realized Hausdorff
distances, gluing weights) are checked with equality, never with tolerances.
Hot loops run on each space's cached integer grid instead: one denominator L
and int rows with dist[i][j] == Fraction(rows[i][j], L), which is exact and
compares and adds at machine-integer speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable, Sequence

from .errors import (
    AsymmetricEntry,
    DifferentAmbientSpaces,
    MetricValidationError,
    NegativeEntry,
    NonpositiveScale,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)

STRICT = "strict"
PSEUDO = "pseudo"

_MODES = (STRICT, PSEUDO)
POINT_CAP = 2000  # points one distance matrix may have


def as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def positive_factor(factor: int | Fraction) -> Fraction:
    """The factor as a `Fraction`; `NonpositiveScale` unless it is positive."""
    lam = as_fraction(factor)
    if lam <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {lam}")
    return lam


Grid = tuple[int, tuple[tuple[int, ...], ...]]


def _grid(rows: Sequence[Sequence[int | Fraction]]) -> Grid:
    """(L, int rows) with rows[i][j] / L exact; L is the lcm of the denominators."""
    denom = math.lcm(*{value.denominator for row in rows for value in row})
    # Rows are frozen from lists, here and in every other row builder:
    # tuple(list) allocates at the final size, while a tuple grown from a
    # generator is resized and, once freed, parked on CPython's per-size
    # tuple free lists, which then hold thousands of dead rows.
    return denom, tuple(
        [
            tuple([value.numerator * (denom // value.denominator) for value in row])
            for row in rows
        ]
    )


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with a symmetric matrix of exact distances.

    Instances are immutable; construct through :func:`validate` (axioms
    checked) or one of the derived constructors elsewhere in the package
    (valid by construction).
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    mode: str = STRICT

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        n = len(self.labels)
        if n == 0:
            raise ValueError("a space needs at least one point")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix shape does not match labels")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    @cached_property
    def grid(self) -> Grid:
        """The integer view (L, rows): dist[i][j] == Fraction(rows[i][j], L)."""
        return _grid(self.dist)


def from_grid(
    labels: tuple[str, ...],
    denom: int,
    rows: tuple[tuple[int, ...], ...],
    mode: str = STRICT,
) -> FiniteMetricSpace:
    """The space with distances rows[i][j] / denom, its grid already cached.

    One `Fraction` is built per distinct value and shared by every entry
    holding it.
    """
    values = {value: Fraction(value, denom) for value in set().union(*rows)}
    dist = tuple([tuple([values[value] for value in row]) for row in rows])
    return _primed(FiniteMetricSpace(labels, dist, mode), (denom, rows))


def _primed(space: FiniteMetricSpace, grid: Grid) -> FiniteMetricSpace:
    space.__dict__["grid"] = grid  # what the cached property would store
    return space


def validate(
    matrix: Sequence[Sequence[int | Fraction]],
    mode: str = STRICT,
    labels: Sequence[str] | None = None,
) -> FiniteMetricSpace:
    """Check every metric axiom on `matrix` and build a space.

    On failure raises :class:`MetricValidationError` carrying the full list
    of violations (not just the first), each with witnessing indices.
    Pseudo mode permits zero distances between distinct points.
    """
    rows = tuple(tuple(as_fraction(x) for x in row) for row in matrix)
    if labels is None:
        labels = [str(i) for i in range(len(rows))]
    space = FiniteMetricSpace(tuple(labels), rows, mode)
    _, g = space.grid
    n = len(g)
    cols = tuple(zip(*g))
    violations: list = []
    for i in range(n):
        if g[i][i] != 0:
            violations.append(NonzeroDiagonal(i))
    for i in range(n):
        for j in range(n):
            if i != j and g[i][j] < 0:
                violations.append(NegativeEntry(i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                violations.append(AsymmetricEntry(i, j))
    if mode == STRICT:
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] == 0:
                    violations.append(ZeroDistanceDistinctPoints(i, j))
    for i in range(n):
        row = g[i]
        for j in range(i + 1, n):
            direct = row[j]
            # no detour, not even through i or j, undercuts the direct value
            if direct <= min(map(add, row, cols[j])):
                continue
            for k in range(n):
                if k != i and k != j and direct > row[k] + g[k][j]:
                    violations.append(TriangleViolation(i, j, k))
    if violations:
        raise MetricValidationError(violations)
    return space


def diameter(space: FiniteMetricSpace) -> Fraction:
    """Largest pairwise distance; 0 for a one-point space."""
    denom, rows = space.grid
    return Fraction(max(map(max, rows)), denom)


def scale(space: FiniteMetricSpace, factor: int | Fraction) -> FiniteMetricSpace:
    """Multiply every distance by a positive factor (similarity).

    Works on the integer grid: rows * p / (L * q), reduced by the gcd of the
    new denominator and every entry, is again the grid `_grid` would build.
    """
    lam = positive_factor(factor)
    denom, rows = space.grid
    p, q = lam.numerator, lam.denominator
    common = math.gcd(denom * q, p * math.gcd(*set().union(*rows)))
    scaled = tuple(
        [tuple([value * p // common for value in row]) for row in rows]
    )
    return from_grid(space.labels, denom * q // common, scaled, space.mode)


def one_point_space(label: str = "pt") -> FiniteMetricSpace:
    return FiniteMetricSpace((label,), ((Fraction(0),),), STRICT)


@dataclass(frozen=True)
class SubsetRef:
    """A nonempty subset of one space's points, by index."""

    space: FiniteMetricSpace
    indices: frozenset[int]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("subset must be nonempty")
        n = len(self.space)
        if any(i < 0 or i >= n for i in self.indices):
            raise ValueError("subset index out of range")


def subset(space: FiniteMetricSpace, indices: Iterable[int]) -> SubsetRef:
    return SubsetRef(space, frozenset(indices))


def whole(space: FiniteMetricSpace) -> SubsetRef:
    return SubsetRef(space, frozenset(range(len(space))))


def hausdorff(a: SubsetRef, b: SubsetRef) -> Fraction:
    """Hausdorff distance between two subsets of one space.

    Finite max-min form: the infimum over enclosing radii is attained at
    max(max_a min_b |ab|, max_b min_a |ab|).
    """
    if a.space is not b.space and a.space != b.space:
        raise DifferentAmbientSpaces("subsets live in different spaces")
    denom, g = a.space.grid

    def directed(src: frozenset[int], dst: frozenset[int]) -> int:
        return max(min([g[i][j] for j in dst]) for i in src)

    value = max(directed(a.indices, b.indices), directed(b.indices, a.indices))
    return Fraction(value, denom)
