"""Exact Gromov-Hausdorff distance between finite strict metric spaces.

d_GH(X, Y) = (1/2) min over correspondences R of dis R, and dis R is always
one of the gaps |d_X(x, x') - d_Y(y, y')|.  One decision procedure,
`_extend`, answers "is there a correspondence of distortion <= t that
contains these chosen cells and otherwise uses only these allowed cells?"
on Python-int bitsets over the n*m cells (i, j); the mask of the cells
compatible with a cell at t is built the first time the search reads it.
`gh_exact` asks it at the smallest gap at or above the diameter-gap lower
bound first (tight on scaled copies), then binary-searches the larger gaps;
the largest is the full correspondence's distortion, so it is never asked.
The lexicographically smallest optimal witness comes from the same
procedure on the last feasible probe's masks, asked once per cell in index
order.  Isometries have their own exact backtracking search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterator

from .correspondences import (
    Correspondence,
    cell_gap_table,
    decode_cells,
    distortion,
    line_masks,
    scaled_integer_matrices,
)
from .errors import InvariantBroken, SizeLimitExceeded
from .spaces import STRICT, FiniteMetricSpace, diameter

DEFAULT_SIZE_CAP = 8


@dataclass(frozen=True)
class GHResult:
    value: Fraction
    witness: Correspondence
    lower_bound: Fraction
    nodes_explored: int


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Fraction:
    """Half the diameter gap; never exceeds the exact distance."""
    return abs(diameter(x) - diameter(y)) / 2


def gh_upper_from(rel: Correspondence) -> Fraction:
    """Half the distortion of any correspondence bounds the distance above."""
    return distortion(rel) / 2


def gh_exact(
    x: FiniteMetricSpace, y: FiniteMetricSpace, cap: int = DEFAULT_SIZE_CAP
) -> GHResult:
    """Exact distance, an optimal witness, and search statistics.

    The witness is the lexicographically smallest pair set among all
    correspondences attaining the minimum distortion, so repeated runs (and
    snapshot tests) see one canonical answer.  `nodes_explored` counts the
    branches of the feasibility search over every threshold probe and the
    witness scan.
    """
    if x.mode != STRICT or y.mode != STRICT:
        raise ValueError("gh_exact requires strict spaces")
    n, m = len(x), len(y)
    if max(n, m) > cap:
        raise SizeLimitExceeded(f"sizes {n}x{m} exceed cap {cap}")

    denom, dx, dy = scaled_integer_matrices(x, y)
    lb_int = abs(max(map(max, dx)) - max(map(max, dy)))
    gaps = cell_gap_table(n, m, dx, dy)
    nm = n * m
    bits = [1 << k for k in range(nm)]
    lines = line_masks(n, m)
    everything = (1 << nm) - 1
    tally = [0]
    levels = sorted(gap for gap in set(gaps) if gap >= lb_int)
    lo, hi = 0, len(levels) - 1  # levels[hi] is always feasible
    probe = lo  # the bound first
    compat = _Compat(gaps, bits, levels[hi])  # always the masks at levels[hi]
    while lo < hi:
        trial = _Compat(gaps, bits, levels[probe])
        if _extend(trial, lines, 0, everything, tally):
            hi, compat = probe, trial
        else:
            lo = probe + 1
        probe = (lo + hi) // 2
    best = levels[hi]
    witness_pairs = _lex_min_cells(compat, nm, lines, m, tally)
    return GHResult(
        value=Fraction(best, 2 * denom),
        witness=Correspondence(x, y, witness_pairs),
        lower_bound=Fraction(lb_int, 2 * denom),
        nodes_explored=tally[0],
    )


class _Compat(dict):
    """compat[c] is the mask of the cells whose gap with cell c is <= t,
    built from c's row of the flat gap table on first read, so cells the
    search never reaches cost nothing.  Never empty: a cell's gap with itself
    is 0."""

    __slots__ = ("gaps", "bits", "t")

    def __init__(self, gaps: list[int], bits: list[int], t: int) -> None:
        self.gaps, self.bits, self.t = gaps, bits, t

    def __missing__(self, cell: int) -> int:
        nm = len(self.bits)
        row = self.gaps[cell * nm : cell * nm + nm]
        self[cell] = mask = sum(compress(self.bits, map(self.t.__ge__, row)))
        return mask


def _extend(
    compat: _Compat, lines: list[int], chosen: int, avail: int, tally: list[int]
) -> int:
    """A correspondence within budget containing `chosen`, else 0.

    The budget is the one `compat` was built for; cells outside `chosen`
    come from `avail`, which the caller keeps inside the compat masks of the
    chosen cells.  Branches on the uncovered row or column with the fewest
    candidates and fails as soon as one has none; a candidate that fails is
    dropped for its siblings.  Returns the correspondence's cell mask and
    counts one node per branch in `tally[0]`.
    """
    fewest, count = 0, 0
    for line in lines:
        if not chosen & line:
            candidates = avail & line
            if not candidates:
                return 0
            if not fewest or candidates.bit_count() < count:
                fewest, count = candidates, candidates.bit_count()
    if not fewest:
        return chosen
    while fewest:
        bit = fewest & -fewest
        fewest ^= bit
        tally[0] += 1
        narrowed = avail & compat[bit.bit_length() - 1]
        found = _extend(compat, lines, chosen | bit, narrowed, tally)
        if found:
            return found
        avail ^= bit
    return 0


def _lex_min_cells(
    compat: _Compat, nm: int, lines: list[int], m: int, tally: list[int]
) -> frozenset[tuple[int, int]]:
    """Lexicographically smallest correspondence within the budget of `compat`.

    Cells are scanned in index order; a cell joins the witness whenever the
    prefix (chosen cells, earlier cells excluded) still extends to a full
    correspondence.  `found` is the last such extension: it holds the chosen
    cells and none of the excluded ones, so a cell of it joins with no new
    search.  Prefix-closed comparison: once the chosen set covers both
    sides, any extension sorts later, so the scan stops.
    """
    avail = (1 << nm) - 1
    found = _extend(compat, lines, 0, avail, tally)
    if not found:
        raise InvariantBroken(
            "the distortion budget admits no correspondence (solver bug)"
        )
    chosen = 0
    for cell in range(nm):
        if all(chosen & line for line in lines):
            break
        bit = 1 << cell
        if not found & bit:
            trial = avail & bit and _extend(
                compat, lines, chosen | bit, avail & compat[cell], tally
            )
            if not trial:
                avail &= ~bit
                continue
            found = trial
        chosen |= bit
        avail &= compat[cell]
    return decode_cells(chosen, m)


def isometric_bijections(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> list[tuple[int, ...]]:
    """All distance-preserving bijections X -> Y, as image tuples.

    Empty result means the spaces are not isometric.
    """
    return list(_isometries(x, y))


def are_isometric(x: FiniteMetricSpace, y: FiniteMetricSpace) -> bool:
    return next(_isometries(x, y), None) is not None


def _isometries(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> Iterator[tuple[int, ...]]:
    """Distance-preserving bijections X -> Y in lexicographic order.

    Depth-first backtracking on the shared integer grid with exact mismatch
    pruning: a partial map is abandoned the moment one pair of distances
    disagrees, which never skips a genuine isometry.
    """
    n = len(x)
    if n != len(y):
        return
    _, dx, dy = scaled_integer_matrices(x, y)
    image: list[int] = []
    j = 0  # next image to try for point len(image)
    while True:
        if len(image) == n:
            yield tuple(image)
        else:
            row = dx[len(image)]
            while j < n and (
                j in image or any(row[a] != dy[j][b] for a, b in enumerate(image))
            ):
                j += 1
            if j < n:
                image.append(j)
                j = 0
                continue
        if not image:
            return
        j = image.pop() + 1
