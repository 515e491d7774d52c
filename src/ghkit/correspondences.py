"""Correspondences (both-ways surjective relations) and their distortion.

Distortions are exact `Fraction`s at the API; they are computed on the two
spaces' cached integer grids rescaled to one shared denominator, which is
also the form the solver and the enumeration oracle search on.

This module owns the cell encoding both searches share: on an n x m grid,
the pair (i, j) is cell c = i*m + j and a set of pairs is the int with bit c
set for each cell.  `line_masks` gives each row's and column's cells,
`covering_masks` sweeps the cell sets meeting all of them, and
`decode_cells` turns a mask back into pairs.  The enumeration oracle fills
a table of every cell set's distortion by a subset recurrence and takes the
first covering minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import TooLarge
from .spaces import FiniteMetricSpace

ENUMERATION_CELL_GUARD = 20

IntRows = Sequence[Sequence[int]]  # distances times a shared denominator


@dataclass(frozen=True)
class Correspondence:
    """A relation between two point sets covering every point on both sides."""

    left: FiniteMetricSpace
    right: FiniteMetricSpace
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a correspondence needs at least one pair")
        n, m = len(self.left), len(self.right)
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"pair ({i}, {j}) out of range")
        if {i for i, _ in self.pairs} != set(range(n)):
            raise ValueError("not surjective onto the left space")
        if {j for _, j in self.pairs} != set(range(m)):
            raise ValueError("not surjective onto the right space")

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))


def distortion(rel: Correspondence) -> Fraction:
    """max over matched pairs (x,y), (x',y') of | |xx'| - |yy'| |."""
    denom, dx, dy = scaled_integer_matrices(rel.left, rel.right)
    return Fraction(grid_distortion(dx, dy, rel.pairs), denom)


def grid_distortion(
    dx: IntRows, dy: IntRows, pairs: Iterable[tuple[int, int]]
) -> int:
    """Distortion of a pair set on integer rows sharing one denominator."""
    pairs = sorted(pairs)
    worst = 0
    for a, (i, j) in enumerate(pairs):
        row_x, row_y = dx[i], dy[j]
        for k, l in pairs[a:]:
            gap = row_x[k] - row_y[l]
            if gap > worst:
                worst = gap
            elif -gap > worst:
                worst = -gap
    return worst


def identity_correspondence(space: FiniteMetricSpace) -> Correspondence:
    return Correspondence(space, space, frozenset((i, i) for i in range(len(space))))


def full_correspondence(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Correspondence:
    return Correspondence(
        x, y, frozenset((i, j) for i in range(len(x)) for j in range(len(y)))
    )


def inverse(rel: Correspondence) -> Correspondence:
    return Correspondence(rel.right, rel.left, frozenset((j, i) for i, j in rel.pairs))


def scaled_integer_matrices(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[int, IntRows, IntRows]:
    """Both cached grids on their shared denominator L = lcm(Lx, Ly).

    Returns (L, X matrix * L, Y matrix * L); exact, and lets hot search
    loops run on machine integers instead of Fractions.  A grid already on L
    is returned as cached, not copied.
    """
    (lx, gx), (ly, gy) = x.grid, y.grid
    denom = math.lcm(lx, ly)
    return denom, rescaled(gx, denom // lx), rescaled(gy, denom // ly)


def rescaled(rows: IntRows, factor: int) -> IntRows:
    """Integer rows multiplied by `factor`; the same rows when it is 1."""
    if factor == 1:
        return rows
    return tuple([tuple([value * factor for value in row]) for row in rows])


def cell_gap_table(n: int, m: int, dx: IntRows, dy: IntRows) -> list[int]:
    """Flat |dx - dy| table over pairs of cells of the n x m grid.

    Cell c = i*m + j stands for the pair (i, j); entry c*n*m + c' is
    |dx[i][k] - dy[j][l]| for c = (i, j), c' = (k, l).
    """
    table: list[int] = []
    for row_x in dx:
        for row_y in dy:
            table.extend([abs(a - b) for a in row_x for b in row_y])
    return table


def _guard_cells(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError("sizes must be positive")
    if n * m > ENUMERATION_CELL_GUARD:
        raise TooLarge(
            f"{n}x{m} grid has {n * m} cells, guard is {ENUMERATION_CELL_GUARD}"
        )


def line_masks(n: int, m: int) -> list[int]:
    """Cell masks of the rows, then of the columns, of the n x m grid."""
    row = (1 << m) - 1
    column = sum(1 << (i * m) for i in range(n))
    return [row << (i * m) for i in range(n)] + [column << j for j in range(m)]


def covering_masks(n: int, m: int) -> Iterator[int]:
    """Cell masks of every both-ways surjective relation, in ascending order.

    Sweeps all 2^(n*m) masks and keeps those meeting every row and column.
    The n*m <= ENUMERATION_CELL_GUARD check runs here, before the sweep is
    iterated.
    """
    _guard_cells(n, m)
    lines = line_masks(n, m)
    return (mask for mask in range(1, 1 << (n * m)) if all(map(mask.__and__, lines)))


def decode_cells(mask: int, m: int) -> frozenset[tuple[int, int]]:
    """The pairs (i, j) whose cells i*m + j are set in `mask`."""
    return frozenset(divmod(c, m) for c in range(mask.bit_length()) if mask >> c & 1)


def enumerate_pair_sets(n: int, m: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield every both-ways surjective relation on an n x m grid exactly once.

    Decodes `covering_masks`, so it is guarded by n*m <= ENUMERATION_CELL_GUARD.
    """
    return (decode_cells(mask, m) for mask in covering_masks(n, m))


def enumerate_correspondences(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> Iterator[Correspondence]:
    pair_sets = enumerate_pair_sets(len(x), len(y))
    return (Correspondence(x, y, pairs) for pairs in pair_sets)


def min_distortion_by_enumeration(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[Fraction, Correspondence]:
    """Exact minimum distortion over ALL correspondences, by full sweep.

    Independent oracle for the threshold-search solver.  The distortion of
    every cell set s, covering or not, follows in increasing order from
    smaller sets: a pair of cells of s avoids its lowest cell, or avoids its
    highest, or is those two, so

        dis[s] = max(dis[s ^ lowest], dis[s ^ highest], gap(lowest, highest)).

    The answer is the first minimizer of dis over `covering_masks`, so ties
    go to the smallest mask.  Same n*m <= ENUMERATION_CELL_GUARD check as
    the enumerators, run before anything is allocated.  The table has one
    entry per cell set, so at the guard of 20 cells it is a 2^20-entry list
    (about 8 MB) and the sweep takes about 2 s.
    """
    n, m = len(x), len(y)
    masks = covering_masks(n, m)
    denom, dx, dy = scaled_integer_matrices(x, y)
    nm = n * m
    gaps = cell_gap_table(n, m, dx, dy)
    dis = [0] * (1 << nm)
    for s in range(1, 1 << nm):
        low, high = (s & -s).bit_length() - 1, s.bit_length() - 1
        dis[s] = max(dis[s ^ (1 << low)], dis[s ^ (1 << high)], gaps[low * nm + high])
    best = min(masks, key=dis.__getitem__)
    return Fraction(dis[best], denom), Correspondence(x, y, decode_cells(best, m))
