"""Correspondences (both-ways surjective relations) and their distortion.

Distortions are exact `Fraction`s at the API; they are computed on the two
spaces' cached integer grids rescaled to one shared denominator, which is
also the form the solver and the enumeration oracle search on.

This module owns the cell encoding both searches share: on an n x m grid,
the pair (i, j) is cell c = i*m + j and a set of pairs is the int with bit c
set for each cell.  `line_masks` gives each row's and column's cells,
`covering_masks` sweeps the cell sets meeting all of them, and
`decode_cells` turns a mask back into pairs.  The enumeration oracle fills
a table of every cell set's distortion one highest cell at a time, taking
cell h's gaps from its two rows when it reaches h, and takes the first
covering minimizer.  No table over pairs of cells is kept: the solver
builds its compatibility masks from the sorted rows instead.

Both exhaustive loops hand the per-mask work to CPython's C code.  The
table grows in blocks: the 2^h sets whose highest cell is h are the sets
below them with cell h added, so each block is one list comprehension.  The
covering sweep ORs one table of line bits over the low half of the cells
with one over the high half, and keeps the masks whose OR is every line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle, repeat
from operator import or_
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

    Cell (i, j) has the line bits 1 << i | 1 << (n + j); a mask covers when
    the OR of its cells' line bits is all n + m lines.  Those ORs come from
    two tables built by doubling, one over the low half of the cells and one
    over the high half, so the sweep of all 2^(n*m) masks runs in C: each
    high entry is repeated once per low entry, the low table is cycled.
    The n*m <= ENUMERATION_CELL_GUARD check runs here, before anything is
    allocated.
    """
    _guard_cells(n, m)
    nm = n * m
    bits = [1 << i | 1 << (n + j) for i in range(n) for j in range(m)]
    k = nm // 2
    low, high = _or_table(bits[:k]), _or_table(bits[k:])
    each_high = chain.from_iterable(map(repeat, high, repeat(len(low))))
    all_lines = (1 << (n + m)) - 1
    covered = map(all_lines.__eq__, map(or_, cycle(low), each_high))
    return compress(range(1 << nm), covered)


def _or_table(bits: Sequence[int]) -> list[int]:
    """The OR of `bits` over every subset, indexed by the subset's mask."""
    table = [0]
    for b in bits:
        table += [t | b for t in table]
    return table


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
    every cell set, covering or not, is built one highest cell h at a time:
    a pair of cells of s | 1 << h (for s < 2^h) lies in s or involves h, so

        dis[s | 1 << h] = max(dis[s], reach[s]),

    where reach[s] is the largest gap between cell h and a cell of s.  The
    reach block doubles over the cells below h, the dis block extends the
    table, and both are list comprehensions.

    The answer is the first minimizer of dis over `covering_masks`, so ties
    go to the smallest mask.  Same n*m <= ENUMERATION_CELL_GUARD check as
    the enumerators, run before anything is allocated.  The table has one
    entry per cell set and each block builds a half-size list next to it:
    a 4x4 pair takes about 20 ms and 1 MB, and at the guard of 20 cells the
    2^20-entry table peaks at about 17 MB and the call takes about 0.3 s
    (measured on a 2-CPU x86-64 VM under CPython 3.11).
    """
    n, m = len(x), len(y)
    masks = covering_masks(n, m)
    denom, dx, dy = scaled_integer_matrices(x, y)
    dis = [0]
    for h in range(n * m):
        i, j = divmod(h, m)
        row = [abs(a - b) for a in dx[i] for b in dy[j]]  # cell h's gaps
        reach = [0]
        for g in row[:h]:
            reach += [r if r > g else g for r in reach]
        dis += [d if d > r else r for d, r in zip(dis, reach)]
    del reach
    best = min(masks, key=dis.__getitem__)
    return Fraction(dis[best], denom), Correspondence(x, y, decode_cells(best, m))
