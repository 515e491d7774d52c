"""Exact Gromov-Hausdorff distance between finite strict metric spaces.

d_GH(X, Y) = (1/2) min over correspondences R of dis R, and dis R is always
one of the gaps |a - b| between a distance a of X and a distance b of Y, so
the candidate levels come from the two value sets.  One decision procedure,
`_extend`, answers "is there a correspondence of distortion <= t that
contains these chosen cells and otherwise uses only these allowed cells?"
on Python-int bitsets over the n*m cells (i, j).  One solve state, `_Search`,
packs both sides' rows once into one field per cell (`spaces.pack_rows`) and
makes the one root call of `_extend` in `probe(t)`; the mask of the cells
compatible with a cell at t is built on first read (`_Compat` compares).
`gh_exact` probes first the diameter-gap lower bound, a gap itself and
so the lowest level a correspondence can reach (tight on scaled copies).
The highest, max(diam X, diam Y), is the full correspondence's distortion,
so it is never asked.  Only when the bound fails is the sorted list of the
gaps between the two built and binary-searched, and each feasible probe
drops the bracket's upper end to the distortion of the correspondence it
found, which may sit below the probed level.  The lexicographically
smallest optimal witness comes from the same procedure asked once per cell
in index order, on the masks at the answer's level, starting from the
correspondence the last feasible probe found; a cell compatible with every
cell of that correspondence joins it with no search.  Exact GH is NP-hard,
so two fixed guards bound the work: no side above SIDE_BOUND points (each
node scans all n + m lines, and the gap set has up to Vx * Vy values), and
no more than NODE_BUDGET branches over all probes and the witness scan.
Isometry questions are one probe at t = 0 of the same solve state, under
the same guards, set up from the two spaces' own grid rows at top = the
diameter, so wide values fill wide fields there too.  The tables
that depend on the shape alone, the line masks and `pack_rows`' layouts,
are built once per shape behind bounded caches; nothing that depends on a
space's values outlives its call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .correspondences import (
    Correspondence,
    IntRows,
    decode_cells,
    distortion,
    line_masks,
    max_gap,
    scaled_integer_matrices,
)
from .errors import InvariantBroken, TooLarge
from .spaces import STRICT, FiniteMetricSpace, diameter, pack_rows

SIDE_BOUND = 32  # points a side
NODE_BUDGET = 2**22  # branches of one gh_exact call


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


def gh_exact(x: FiniteMetricSpace, y: FiniteMetricSpace) -> GHResult:
    """Exact distance, an optimal witness, and search statistics.

    The witness is the lexicographically smallest pair set among all
    correspondences attaining the minimum distortion, so repeated runs (and
    snapshot tests) see one canonical answer.  `nodes_explored` counts the
    branches of the feasibility search over every level probe and the
    witness scan.  Raises `TooLarge` before building anything when a side
    has more than SIDE_BOUND points, and once the search passes NODE_BUDGET
    branches; under both, every answer is the same as with no guard.
    """
    _check(x, y, "gh_exact")
    denom, dx, dy = scaled_integer_matrices(x, y)
    diam_x, diam_y = max(map(max, dx)), max(map(max, dy))
    lb_int = abs(diam_x - diam_y)
    # the full relation's distortion is the top level, so it is never
    # probed; `found` is the last feasible probe's correspondence (the full
    # relation until one is feasible), `compat` the masks it was found
    # with, and `best` its distortion
    best = max(diam_x, diam_y)
    search = _Search(dx, dy, best)
    found, compat = search.everything, None
    if lb_int < best:
        extension = search.probe(lb_int)  # the smallest level: a gap itself
        if extension:
            best, found, compat = lb_int, extension, search.compat
        else:
            levels = _levels(dx, dy, lb_int + 1)
            lo, hi = 0, len(levels) - 1  # levels[hi] == best
            while lo < hi:
                mid = (lo + hi) // 2
                extension = search.probe(levels[mid])
                if extension:
                    best = max_gap(decode_cells(extension, search.m), dx, dy)
                    hi = bisect_left(levels, best)
                    found, compat = extension, search.compat
                else:
                    lo = mid + 1
    # the masks at best: the last feasible probe's, unless `found` sits
    # below its level or no probe was feasible; the top level's masks are
    # built only then
    reuse = compat is not None and compat.t == best
    search.compat = compat if reuse else _Compat(search, best)
    witness_pairs = _lex_min_cells(search, found)
    return GHResult(
        value=Fraction(best, 2 * denom),
        witness=Correspondence(x, y, witness_pairs),
        lower_bound=Fraction(lb_int, 2 * denom),
        nodes_explored=search.nodes,
    )


def _check(x: FiniteMetricSpace, y: FiniteMetricSpace, what: str) -> None:
    """Refuse pseudo spaces, then a side above SIDE_BOUND points."""
    if x.mode != STRICT or y.mode != STRICT:
        raise ValueError(f"{what} requires strict spaces")
    n, m = len(x), len(y)
    if max(n, m) > SIDE_BOUND:
        raise TooLarge(f"sizes {n}x{m}: a side has more than {SIDE_BOUND} points")


def _levels(dx: IntRows, dy: IntRows, bound: int) -> list[int]:
    """The distinct cell-pair gaps at or above `bound`, ascending.

    Every gap |a - b| of a distance a of X and a distance b of Y is the gap
    of some pair of cells, since the two cells range independently, so the
    levels come from the two value sets.
    """
    values_y = set(chain.from_iterable(dy))
    gaps = {abs(a - b) for a in set(chain.from_iterable(dx)) for b in values_y}
    return sorted(gap for gap in gaps if gap >= bound)


_FITS = b"1" * 128 + b"0" * 128  # a field's top byte -> 1 if its top bit is clear


class _Compat(dict):
    """compat[c] is the mask of the cells whose gap with cell c is <= t.

    Cell c = (i, j) admits (k, l) when |dx[i][k] - dy[j][l]| <= t.  The n*m
    comparisons of one cell are made at once on the search's packed rows:
    A_i = xs[i] and B_j = ys[j], and K_t holds 2^(w-1) - t - 1 in every
    field.  Field by field, A_i + K_t - B_j holds 2^(w-1) + (a - b - t - 1),
    and |a - b - t - 1| <= 2*top + 1, so by `pack_rows`'s width rule no
    carry or borrow crosses a field and its top bit is set exactly when
    a - b > t.  So the top bit of a field of (A_i + K_t - B_j) | (B_j + K_t
    - A_i) is clear exactly for a compatible cell; the sums are taken as
    K_t +- (A_i - B_j), the same integers.  Each field's top byte, read off
    the big-endian bytes, becomes one binary digit of the mask.  One mask
    costs a few big-int operations over n*m*w bits, O(n*m*w) time, and is
    built on first read, so cells the search never reaches cost nothing.
    Never empty: a cell's gap with itself is 0; no reference to the search.
    """

    __slots__ = ("xs", "ys", "m", "width", "nbytes", "t", "offset")

    def __init__(self, search: _Search, t: int) -> None:
        self.xs, self.ys, self.m = search.xs, search.ys, search.m
        self.width, self.nbytes, self.t = search.width, search.nbytes, t
        self.offset = ((1 << 8 * self.width - 1) - t - 1) * search.ones  # K_t

    def __missing__(self, cell: int) -> int:
        i, j = divmod(cell, self.m)
        gaps, offset = self.xs[i] - self.ys[j], self.offset  # A_i - B_j
        fields = (offset + gaps) | (offset - gaps)
        tops = fields.to_bytes(self.nbytes, "big")[:: self.width]
        mask = int(tops.translate(_FITS), 2)
        self[cell] = mask
        return mask


class _Search:
    """The one state of a solve: both sides' rows, packed once by
    `pack_rows` into one w-bit field per cell (x rows spaced by m, y rows
    tiled n times, so field k*m + l of xs[i] holds dx[i][k] and that of
    ys[j] holds dy[j][l], in the order of the cell bits; nbytes is the bytes
    of all n*m fields, and `top`, the largest entry of dx and dy, sets a
    width that keeps every mask at a level 0 <= t <= top exact, see
    `_Compat`); `everything`, the mask of all cells; the line masks; the
    node count; and the node budget, NODE_BUDGET as it stood when the solve
    started.  `probe(t)` sets `compat` to the masks at t and makes the one
    root call of `_extend`; the witness scan and the per-cell isometry
    searches read the `compat` it leaves."""

    __slots__ = (
        *("xs", "ys", "m", "width", "nbytes", "ones"),
        *("everything", "lines", "compat", "nodes", "budget"),
    )

    def __init__(self, dx: IntRows, dy: IntRows, top: int) -> None:
        n, m = len(dx), len(dy)
        self.width, self.xs, self.ones = pack_rows(dx, top, spacing=m)
        self.ys = pack_rows(dy, top, tiling=n)[1]
        self.m, self.nbytes = m, n * m * self.width
        self.everything, self.lines = (1 << n * m) - 1, line_masks(n, m)
        self.nodes, self.budget = 0, NODE_BUDGET

    def probe(self, t: int) -> int:
        """A correspondence of distortion <= t, as a cell mask, else 0."""
        self.compat = _Compat(self, t)
        return _extend(self, 0, self.everything)


def _extend(search: _Search, chosen: int, avail: int) -> int:
    """A correspondence at the level searched containing `chosen`, else 0.

    Cells outside `chosen` come from `avail`, which the caller keeps inside
    the compat masks of the chosen cells.  Branches on the uncovered row or
    column with the fewest candidates and fails as soon as one has none; a
    candidate that fails is dropped for its siblings.  Returns the
    correspondence's cell mask and counts one node per branch in
    `search.nodes`, raising `TooLarge` past `search.budget`.
    """
    compat = search.compat
    fewest, count = 0, 0
    for line in search.lines:
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
        search.nodes += 1
        if search.nodes > search.budget:
            raise TooLarge(f"the search passed its budget of {search.budget} nodes")
        narrowed = avail & compat[bit.bit_length() - 1]
        found = _extend(search, chosen | bit, narrowed)
        if found:
            return found
        avail ^= bit
    return 0


def _lex_min_cells(search: _Search, found: int) -> frozenset[tuple[int, int]]:
    """Lexicographically smallest correspondence at the level searched.

    `found` is a correspondence at that level, such as the one the last
    feasible probe returned, so the scan starts with no search of its own.
    Cells are scanned in index order; a cell joins the witness whenever the
    prefix (chosen cells, earlier cells excluded) still extends to a full
    correspondence.  `found` stays such an extension: it holds the chosen
    cells and none of the excluded ones, so an available cell whose mask
    holds all of `found` joins with no new search, and `found` with it (a
    cell of `found` is one such).  Prefix-closed comparison: once the chosen
    set covers both sides, any extension sorts later, so the scan stops;
    `uncovered` keeps the lines the chosen set has not met.
    """
    if not found:
        raise InvariantBroken(
            "the distortion level admits no correspondence (solver bug)"
        )
    compat, m = search.compat, search.m
    avail, chosen, uncovered = search.everything, 0, search.lines
    for cell in range(avail.bit_length()):
        if not uncovered:
            break
        bit = 1 << cell
        if not avail & bit:
            continue
        mask = compat[cell]
        if found & ~mask:
            trial = _extend(search, chosen | bit, avail & mask)
            if not trial:
                avail ^= bit
                continue
            found = trial
        found |= bit
        chosen |= bit
        avail &= mask
        uncovered = [line for line in uncovered if not line & bit]
    return decode_cells(chosen, m)


def are_isometric(x: FiniteMetricSpace, y: FiniteMetricSpace) -> bool:
    """Whether some bijection X -> Y preserves every distance.

    On strict spaces a distortion-0 correspondence is such a bijection: two
    partners j, j' of one point i have d(j, j') <= d(i, i) + 0 = 0.  So this
    is one `_extend` search at t = 0, after the size, denominator and
    diameter checks that settle most pairs.  Refuses pseudo spaces (`ValueError`), and
    raises `TooLarge` as `gh_exact` does: before building anything when a
    side has more than SIDE_BOUND points, and once the search passes
    NODE_BUDGET branches.
    """
    return _isometry_search(x, y) is not None


def isometry_cells(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> frozenset[tuple[int, int]]:
    """The pairs (i, j) that some isometry X -> Y maps i to j; empty when
    the spaces are not isometric.

    One `_extend` search per cell that no isometry found so far holds, with
    that cell chosen: at most n^2 searches, however many isometries there
    are.  Refuses and raises as `are_isometric` does, with NODE_BUDGET over
    all the searches.
    """
    isometry = _isometry_search(x, y)
    if isometry is None:
        return frozenset()
    held, search = isometry
    n = len(x)
    for cell in range(n * n):
        if not held >> cell & 1:
            held |= _extend(search, 1 << cell, search.compat[cell])
    return decode_cells(held, n)


def _isometry_search(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[int, _Search] | None:
    """An isometry's cell mask with the t = 0 search state it was found
    with; None when there is no isometry."""
    _check(x, y, "isometry search")
    n = len(x)
    (denom, dx), (denom_y, dy) = x.grid, y.grid
    top = max(map(max, dx))
    # an isometry keeps every distance, so the sizes, the canonical
    # denominators and the diameters agree
    if n != len(y) or denom != denom_y or top != max(map(max, dy)):
        return None
    search = _Search(dx, dy, top)
    found = search.probe(0)
    return (found, search) if found else None
