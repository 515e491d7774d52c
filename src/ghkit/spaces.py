"""Finite metric and pseudometric spaces with exact rational distances.

Every distance is a `fractions.Fraction` at the API, so the identities the
rest of the package relies on (diameter scaling, realized Hausdorff
distances, gluing weights) are checked with equality, never with tolerances.
A space is built from its integer grid: one denominator L and int rows with
dist[i][j] == Fraction(rows[i][j], L), reduced so that L and the entries
share no factor.  Every constructor ends in `from_grid`, which freezes what
it is given, checks the shape and reduces the grid, so a space is the same
whichever builder made it: `validate` reads a matrix's ints and `Fraction`s
straight into a grid (`_grid` sends only other types through
`as_fraction`), and `restrict` cuts a sub-space's block from one.  Hot
loops and equality run on the grid at machine-integer speed, and the
`Fraction` matrix is built from it on first read; only the space file
reader hands over an eager one.
`POINT_CAP` bounds every dense layout: each builder, and the space file
reader, refuses a larger one through `check_points` before it builds
anything.  The axiom check packs each row one field per point with
`pack_rows`, the one packer, which lays out the solver's mask rows too,
and settles each pair's triangle inequalities with one big-int sum, so a
2,000-point space validates in seconds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    AsymmetricEntry,
    DifferentAmbientSpaces,
    MetricValidationError,
    NegativeEntry,
    NonpositiveScale,
    NonzeroDiagonal,
    TooLarge,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)

STRICT = "strict"
PSEUDO = "pseudo"

_MODES = (STRICT, PSEUDO)
POINT_CAP = 2000  # points one distance matrix may have


def check_points(what: str, count: int) -> None:
    """`TooLarge` when `count` is over POINT_CAP; `what` opens the message."""
    if count > POINT_CAP:
        raise TooLarge(f"{what} {count} points, cap is {POINT_CAP}")


def as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def positive_factor(factor: int | Fraction) -> Fraction:
    """The factor as a `Fraction`; `NonpositiveScale` unless it is positive."""
    lam = as_fraction(factor)
    if lam.numerator <= 0:  # a `Fraction`'s denominator is positive
        raise NonpositiveScale(f"scale factor must be positive, got {lam}")
    return lam


Grid = tuple[int, tuple[tuple[int, ...], ...]]


def _grid(rows: Sequence[Sequence[int | Fraction]]) -> Grid:
    """(L, int rows) with rows[i][j] / L exact; L is the lcm of the denominators.

    All-int rows, which `__init__` has frozen, come back as they are, on L = 1."""
    types = {type(value) for row in rows for value in row}
    if types <= {int}:
        return 1, rows
    if not types <= {int, Fraction}:
        rows = [[as_fraction(value) for value in row] for row in rows]  # or TypeError
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


@dataclass(frozen=True, init=False, repr=False)
class FiniteMetricSpace:
    """Labeled points with a symmetric matrix of exact distances.

    A frozen dataclass over labels, mode and the canonical grid (L, rows)
    that `_grid` builds, so equality and hash compare (labels, mode, grid):
    the relation of equal `Fraction` matrices, since the grid is canonical.
    Every constructor ends in :func:`from_grid`, which freezes its input.
    No field holds a matrix: `dist`, the `Fraction` view, is built from the
    grid on first read unless the space file reader hands its own to
    :func:`validate_grid`.  Construct through :func:`validate` or
    :func:`validate_grid` (axioms checked), :func:`from_grid` or a derived
    constructor elsewhere in the package (valid by construction).
    """

    labels: tuple[str, ...]
    mode: str
    grid: Grid

    def __init__(
        self,
        labels: Sequence[str],
        dist: Sequence[Sequence[int | Fraction]],
        mode: str = STRICT,
    ) -> None:
        grid = _grid(tuple([tuple(row) for row in dist]))  # read each row once
        self.__dict__.update(vars(from_grid(labels, *grid, mode)))

    def __repr__(self) -> str:
        return (
            f"FiniteMetricSpace(labels={self.labels!r}, dist={self.dist!r}, "
            f"mode={self.mode!r})"
        )

    def __len__(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The `Fraction` matrix, one `Fraction` per distinct value shared by
        every entry holding it."""
        denom, rows = self.grid
        values = {value: Fraction(value, denom) for value in set().union(*rows)}
        return tuple([tuple([values[value] for value in row]) for row in rows])


def from_grid(
    labels: Iterable[str],
    denom: int,
    rows: Sequence[Sequence[int]],
    mode: str = STRICT,
) -> FiniteMetricSpace:
    """The space with distances rows[i][j] / denom; every constructor ends here.

    Labels are read once and rows frozen into tuples (a tuple row is kept); the
    grid is reduced by the gcd of `denom` and every entry, so it is canonical;
    the gcd is taken row by row and stops at the first row that brings it to
    1.  No `Fraction` is built until `dist` is first read.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    labels = tuple(labels)
    if not labels:
        raise ValueError("a space needs at least one point")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if len(rows) != len(labels) or any(len(row) != len(rows) for row in rows):
        raise ValueError("distance matrix shape does not match labels")
    rows = tuple([tuple(row) for row in rows])  # see `_grid` on freezing lists
    common = denom
    for row in rows:
        common = math.gcd(common, *row)
        if common == 1:
            break
    if common > 1:
        denom //= common
        rows = tuple([tuple([value // common for value in row]) for row in rows])
    space = object.__new__(FiniteMetricSpace)
    space.__dict__.update(labels=labels, mode=mode, grid=(denom, rows))
    return space


def restrict(
    space: FiniteMetricSpace,
    indices: Iterable[int],
    labels: Iterable[str],
    mode: str = STRICT,
) -> FiniteMetricSpace:
    """The points at `indices`, in that order (repeats only in `PSEUDO` mode),
    as a space: their block of `space.grid`, reduced by `from_grid`.

    The indices are read once; one outside 0 .. n - 1 is a `ValueError`
    naming it, and so is a repeated one in `STRICT` mode.
    """
    denom, rows = space.grid
    indices, seen = tuple(indices), set()
    for index in indices:
        if not 0 <= index < len(rows):
            raise ValueError(f"index {index} is out of range for {len(rows)} points")
        if mode == STRICT and index in seen:
            raise ValueError(f"index {index} is repeated, which needs {PSEUDO!r} mode")
        seen.add(index)
    block = tuple([tuple([rows[a][b] for b in indices]) for a in indices])
    return from_grid(labels, denom, block, mode)


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
    if labels is None:
        labels = [str(i) for i in range(len(matrix))]
    space = FiniteMetricSpace(labels, matrix, mode)
    _check_axioms(space.grid[1], mode)
    return space


def validate_grid(
    labels: tuple[str, ...],
    grid: Grid,
    dist: tuple[tuple[Fraction, ...], ...],
    mode: str = STRICT,
) -> FiniteMetricSpace:
    """:func:`validate` for a caller that holds the canonical grid and the
    `Fraction` view already (the space file reader builds both from its
    distinct tokens): the same shape and axiom checks, with the same errors,
    and no conversion of the entries; the space keeps `dist` as its view."""
    space = from_grid(labels, *grid, mode)
    _check_axioms(space.grid[1], mode)
    space.__dict__["dist"] = dist
    return space


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # bytes -> `struct` code
_unpack = partial(int.from_bytes, byteorder="little")


def pack_rows(
    rows: Sequence[Sequence[int]], top: int, spacing: int = 1, tiling: int = 1
) -> tuple[int, list[int], int]:
    """(width, packed, ones): each row of ints in 0 .. top as one int of
    little-endian fields of `width` bytes, and `ones`, 1 in every field of a
    packed row; every row has the first row's length.

    w = 8 * width is the smallest multiple of 8 with w - 1 >= bitlen(2*top
    + 1), so 2^(w-1) >= 2*top + 2 and one byte holds top <= 63.  A field
    value 2^(w-1) + s with |s| <= 2*top + 1 then lies in 0 .. 2^w - 1, and
    its top bit is set exactly when s >= 0.  So when every field of a sum of
    packed rows and integer multiples of `ones` works out to such a value,
    the sum's w-bit digits are exactly those values, whatever the order of
    the operations: no carry or borrow crosses a field, and one AND against
    the top bits reads every sign at once.

    Entry k fills the `spacing` fields from k * spacing on, and the row is
    laid down `tiling` times.  A `struct` width packs the row spaced at C
    speed, entry k in field k * spacing and pad bytes after it, and one
    multiply by `spread`, 1 in each of the first `spacing` fields, copies
    each entry into its fields with no carry; other widths join each entry's
    bytes `spacing` times over.
    """
    width = ((2 * top + 1).bit_length() + 8) // 8
    spaced, spread, ones = _layout(width, len(rows[0]), spacing, tiling)
    if spaced:
        chunks = [spaced.pack(*row) * tiling for row in rows]
    else:
        chunks = [
            b"".join([v.to_bytes(width, "little") * spacing for v in row]) * tiling
            for row in rows
        ]
    packed = list(map(_unpack, chunks))
    return width, [row * spread for row in packed] if spread > 1 else packed, ones


@lru_cache(maxsize=256)
def _layout(
    width: int, length: int, spacing: int, tiling: int
) -> tuple[struct.Struct | None, int, int]:
    """`pack_rows`' tables for one layout, never for a value: the spaced
    `struct` layout of a row (None with no `struct` code), spread and ones."""
    one, pad = (1).to_bytes(width, "little"), (spacing - 1) * width
    ones = _unpack(one * (length * spacing * tiling))
    code = _STRUCT_CODES.get(width)
    if not code:
        return None, 1, ones
    fields = f"{code}{pad}x" * length if pad else f"{length}{code}"  # unspaced: one code
    return struct.Struct("<" + fields), _unpack(one * spacing), ones


def _check_axioms(g: tuple[tuple[int, ...], ...], mode: str) -> None:
    """`MetricValidationError` listing every violated axiom of the grid rows.

    Each kind of violation is first tested on whole rows at C speed, and
    only a kind that fails runs its listing loop, so the violations and
    their order are those of the loops alone.  The triangle test of a pair
    i < j is one sum of packed rows (see `pack_rows`): field k of P_i + Q_j
    + (2^(w-1) - d(i, j)) * ones, P_i row i and Q_j column j, holds 2^(w-1)
    + d(i, k) + d(k, j) - d(i, j), so its top bit is set for every k exactly
    when no detour, not even through i or j, undercuts the direct value.
    Only a pair that fails runs the per-k loop.  Negative entries are packed
    offset by c = -min, and the constant takes the two offsets back.
    """
    n = len(g)
    diagonal = [row[i] for i, row in enumerate(g)]
    violations: list = [NonzeroDiagonal(i) for i in range(n) if diagonal[i] != 0]
    low = min(map(min, g))
    if low < 0:
        for i in range(n):
            for j in range(n):
                if i != j and g[i][j] < 0:
                    violations.append(NegativeEntry(i, j))
    symmetric = g == tuple(zip(*g))
    if not symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    violations.append(AsymmetricEntry(i, j))
    if mode == STRICT and sum([row.count(0) for row in g]) > diagonal.count(0):
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] == 0:
                    violations.append(ZeroDistanceDistinctPoints(i, j))
    if n > 2:  # a triangle needs a third point
        # offset entries lie in 0 .. top - c and d(i, j) + 2c in 0 .. top, so
        # each field's d(i, k) + d(k, j) - d(i, j) is within 2*top of 0
        c = max(0, -low)
        shifted = [[value + c for value in row] for row in g] if c else g
        top = max(map(max, g)) + 2 * c
        width, heads, ones = pack_rows(shifted, top)
        tails = heads
        if not symmetric:  # one column at a time: the transpose is never held
            tails = [pack_rows((column,), top)[1][0] for column in zip(*shifted)]
        signs = ones << 8 * width - 1
        lift = signs - 2 * c * ones
        for i in range(n):
            row, base = g[i], heads[i] + lift
            for j in range(i + 1, n):
                direct = row[j]
                if (base + tails[j] - direct * ones) & signs == signs:
                    continue
                for k in range(n):
                    if k != i and k != j and direct > row[k] + g[k][j]:
                        violations.append(TriangleViolation(i, j, k))
    if violations:
        raise MetricValidationError(violations)


def diameter(space: FiniteMetricSpace) -> Fraction:
    """Largest pairwise distance; 0 for a one-point space."""
    denom, rows = space.grid
    return Fraction(max(map(max, rows)), denom)


def scale(space: FiniteMetricSpace, factor: int | Fraction) -> FiniteMetricSpace:
    """Multiply every distance by a positive factor (similarity).

    Works on the integer grid: rows * p / (L * q), which `from_grid` reduces.
    """
    lam = positive_factor(factor)
    denom, rows = space.grid
    p = lam.numerator
    scaled = tuple([tuple([value * p for value in row]) for row in rows])
    return from_grid(space.labels, denom * lam.denominator, scaled, space.mode)


def one_point_space(label: str = "pt") -> FiniteMetricSpace:
    return from_grid((label,), 1, ((0,),))


@dataclass(frozen=True)
class SubsetRef:
    """A nonempty subset of one space's points, by index."""

    space: FiniteMetricSpace
    indices: frozenset[int]

    def __post_init__(self) -> None:
        self.__dict__.update(indices=frozenset(self.indices))
        if not self.indices:
            raise ValueError("subset must be nonempty")
        if min(self.indices) < 0 or max(self.indices) >= len(self.space):
            raise ValueError("subset index out of range")


def subset(space: FiniteMetricSpace, indices: Iterable[int]) -> SubsetRef:
    return SubsetRef(space, indices)


def whole(space: FiniteMetricSpace) -> SubsetRef:
    return SubsetRef(space, range(len(space)))


def hausdorff(a: SubsetRef, b: SubsetRef) -> Fraction:
    """Hausdorff distance between two subsets of one space.

    Finite max-min form: the infimum over enclosing radii is attained at
    max(max_a min_b |ab|, max_b min_a |ab|), taken on the integer grid with
    each source row's entries gathered by one `itemgetter` over the target.
    A directed pass skips the source points in the target, as d(p, p) = 0
    (pseudo spaces too) is the least value; nested subsets skip it whole.
    """
    if a.space is not b.space and a.space != b.space:
        raise DifferentAmbientSpaces("subsets live in different spaces")
    denom, g = a.space.grid

    def directed(src: frozenset[int], dst: frozenset[int]) -> int:
        if not (src := src - dst):
            return 0
        picked = map(itemgetter(*dst), map(g.__getitem__, src))
        # itemgetter of one index returns the entry itself, not a 1-tuple
        return max(picked if len(dst) == 1 else map(min, picked))

    value = max(directed(a.indices, b.indices), directed(b.indices, a.indices))
    return Fraction(value, denom)
