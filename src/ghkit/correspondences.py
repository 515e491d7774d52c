"""Correspondences (both-ways surjective relations) and their distortion.

Distortions are exact `Fraction`s at the API; they are computed on the two
spaces' cached integer grids rescaled to one shared denominator, which is
also the form the solver and the enumeration oracle search on.

This module owns the cell encoding both searches share: on an n x m grid,
the pair (i, j) is cell c = i*m + j and a set of pairs is the int with bit c
set for each cell.  `line_masks` gives each row's and column's cells,
`covering_masks` yields the cell sets meeting all of them, and
`decode_cells` turns a mask back into pairs.  The line masks and the
oracle's bitsets depend only on the shape (n, m), so each is built once per
shape behind a bounded cache and handed out as tuples, which no caller can
change.

`covering_masks` and the enumeration oracle run on bitsets over all
2^(n*m) cell sets, bit s standing for the set s, so each exhaustive step is
one big-int operation in C: the covering sets are an AND of ORs of cell
bitsets, and the oracle drops the sets holding a pair of cells with one AND.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, count
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .errors import TooLarge
from .spaces import FiniteMetricSpace

ENUMERATION_CELL_GUARD = 20

IntRows = Sequence[Sequence[int]]  # distances times a shared denominator


@dataclass(frozen=True)
class Correspondence:
    """A relation between two point sets covering every point on both sides.

    The pairs are checked and then kept as a frozenset, so relations on the
    same pairs compare equal whatever collection they were given as."""

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
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))


def distortion(rel: Correspondence) -> Fraction:
    """max over matched pairs (x,y), (x',y') of | |xx'| - |yy'| |."""
    denom, dx, dy = scaled_integer_matrices(rel.left, rel.right)
    return Fraction(max_gap(rel.pairs, dx, dy), denom)


def max_gap(pairs: Iterable[tuple[int, int]], dx: IntRows, dy: IntRows) -> int:
    """The largest |dx[i][k] - dy[j][l]| over pairs (i, j), (k, l) of a pair
    set: its distortion on the integer matrices."""
    pairs = list(pairs)
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


@lru_cache(maxsize=256)
def line_masks(n: int, m: int) -> tuple[int, ...]:
    """Cell masks of the rows, then of the columns, of the n x m grid."""
    row = (1 << m) - 1
    column = sum(1 << (i * m) for i in range(n))
    return (*(row << (i * m) for i in range(n)), *(column << j for j in range(m)))


def covering_masks(n: int, m: int) -> Iterator[int]:
    """Cell masks of every both-ways surjective relation, in ascending order.

    The set bits of `_set_bits`'s covering bitset, read off its binary
    digits in C; the guard runs before anything is allocated.
    """
    covering, _ = _set_bits(n, m)
    digits = format(covering, "b")[::-1].encode()
    return compress(count(), digits.translate(bytes.maketrans(b"01", b"\0\1")))


@lru_cache(maxsize=16)
def _set_bits(n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """Bitsets over all 2^(n*m) cell sets: bit s stands for the cell set s.

    `has[c]`, the sets containing cell c, doubles the pattern "2^c zeros,
    then 2^c ones"; `covering`, the sets meeting every line, is the AND over
    the rows and columns of the OR of `has` over each line's cells.  A
    refused shape raises on every call and is never stored.  The cache keeps
    16 shapes: a few hundred KiB for shapes up to 4 x 4, and about 22 MB in
    the worst case of 16 shapes at or near the 20-cell guard.
    """
    _guard_cells(n, m)
    size = 1 << (n * m)
    has = []
    for c in range(n * m):
        run = 1 << c
        pattern, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            pattern |= pattern << width
            width <<= 1
        has.append(pattern)
    lines = [has[i * m : i * m + m] for i in range(n)] + [has[j::m] for j in range(m)]
    return reduce(and_, [reduce(or_, line) for line in lines]), tuple(has)


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

    Independent oracle for the threshold-search solver, on the bitsets of
    `_set_bits`.  A set's distortion is its largest gap |dx[i][k] - dy[j][l]|
    over pairs of its cells (i, j) < (k, l).  `within` starts as every
    covering set, and each cell pair, by gap from the largest, drops the sets
    holding both its cells with one AND.  After a whole gap group it is the
    covering sets of distortion at most the next gap.  The first group that
    would empty it is the answer, and the lowest set left is the first
    covering minimizer in mask order: ties go to the smallest mask.

    Same n*m <= ENUMERATION_CELL_GUARD check as the enumerators, run before
    anything is allocated.  A 4x4 pair takes about 1 ms.  At the guard of
    20 cells the bitsets, 128 KiB each, peak under 5 MB and a call takes
    3-10 ms (measured on a 2-CPU x86-64 VM under CPython 3.11).
    """
    n, m = len(x), len(y)
    covering, has = _set_bits(n, m)
    denom, dx, dy = scaled_integer_matrices(x, y)
    cells = list(enumerate(divmod(c, m) for c in range(n * m)))
    pairs: dict[int, list[tuple[int, int]]] = {}
    for c, (i, j) in cells:
        for d, (k, l) in cells[c + 1 :]:
            pairs.setdefault(abs(dx[i][k] - dy[j][l]), []).append((c, d))
    within, value = covering, 0
    for gap in sorted(pairs.keys() - {0}, reverse=True):
        below = within
        for c, d in pairs[gap]:
            below &= ~(has[c] & has[d])
        if not below:
            value = gap
            break
        within = below
    best = (within & -within).bit_length() - 1
    return Fraction(value, denom), Correspondence(x, y, decode_cells(best, m))
