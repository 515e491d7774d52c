"""Correspondences (both-ways surjective relations) and their distortion.

Distortions are exact `Fraction`s at the API; they are computed on the two
spaces' cached integer grids rescaled to one shared denominator, which is
also the form the solver and the enumeration oracle search on.
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

    def image(self, i: int) -> frozenset[int]:
        return frozenset(j for a, j in self.pairs if a == i)

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


def _guard_cells(n: int, m: int, max_cells: int) -> None:
    if n < 1 or m < 1:
        raise ValueError("sizes must be positive")
    if n * m > max_cells:
        raise TooLarge(f"{n}x{m} grid has {n * m} cells, guard is {max_cells}")


def enumerate_pair_sets(
    n: int, m: int, max_cells: int = ENUMERATION_CELL_GUARD
) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield every both-ways surjective relation on an n x m grid exactly once.

    Bitmask sweep over all 2^(n*m) subsets, filtered by row/column coverage;
    guarded by n*m <= max_cells.
    """
    _guard_cells(n, m, max_cells)
    cells = [(i, j) for i in range(n) for j in range(m)]
    row_masks = [0] * n
    col_masks = [0] * m
    for bit, (i, j) in enumerate(cells):
        row_masks[i] |= 1 << bit
        col_masks[j] |= 1 << bit
    for mask in range(1, 1 << (n * m)):
        if all(mask & rm for rm in row_masks) and all(mask & cm for cm in col_masks):
            yield frozenset(
                cells[bit] for bit in range(n * m) if mask & (1 << bit)
            )


def enumerate_correspondences(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    max_cells: int = ENUMERATION_CELL_GUARD,
) -> Iterator[Correspondence]:
    for pairs in enumerate_pair_sets(len(x), len(y), max_cells):
        yield Correspondence(x, y, pairs)


def min_distortion_by_enumeration(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    max_cells: int = ENUMERATION_CELL_GUARD,
) -> tuple[Fraction, Correspondence]:
    """Exact minimum distortion over ALL correspondences, by full sweep.

    Independent oracle for the threshold-search solver: visits every
    both-ways surjective relation and tracks the minimum (first minimizer in
    mask order wins ties). Same n*m <= max_cells guard as the enumerators.
    """
    n, m = len(x), len(y)
    _guard_cells(n, m, max_cells)
    denom, dx, dy = scaled_integer_matrices(x, y)
    cells = [(i, j) for i in range(n) for j in range(m)]
    nm = n * m
    diff = cell_gap_table(n, m, dx, dy)
    row_masks = [0] * n
    col_masks = [0] * m
    for bit, (i, j) in enumerate(cells):
        row_masks[i] |= 1 << bit
        col_masks[j] |= 1 << bit

    full_mask = (1 << nm) - 1

    def relation_distortion(mask: int, cutoff: int) -> int:
        """Distortion of the relation; returns cutoff as soon as it is reached."""
        bits = []
        rest = mask
        while rest:
            low = rest & -rest
            bits.append(low.bit_length() - 1)
            rest ^= low
        worst = 0
        for a_idx, a in enumerate(bits):
            base = a * nm
            for b_idx in range(a_idx, len(bits)):
                gap = diff[base + bits[b_idx]]
                if gap > worst:
                    worst = gap
                    if worst >= cutoff:
                        return cutoff
        return worst

    best = relation_distortion(full_mask, 1 << 62)
    best_mask = full_mask
    for mask in range(1, full_mask):
        if not all(mask & rm for rm in row_masks):
            continue
        if not all(mask & cm for cm in col_masks):
            continue
        dis = relation_distortion(mask, best)
        if dis < best:
            best = dis
            best_mask = mask
    witness = frozenset(
        cells[bit] for bit in range(nm) if best_mask & (1 << bit)
    )
    return Fraction(best, denom), Correspondence(x, y, witness)
