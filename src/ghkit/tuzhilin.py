"""The Tuzhilin two-space family: hedgehog-type spaces at small Hausdorff gaps.

Needle n carries the coordinates {1 + 1/k : 1 <= k <= n}. The first space
uses needles 1..N+1; the second replaces needle N+1 with a long needle whose
coordinates are {1 + 1/k : k <= K} together with the limit coordinate 1.
Points on one needle are at |x - x'|, points on different needles at x + x'
(intrinsic metric through the center, which is not itself a point).

Re-slotting the long needle onto needle m (and shifting needles m..N up by
one) is distance-preserving and realizes Hausdorff distance exactly 1/m
against the first space, witnessed by the pair (m, 1) vs (m, 1 + 1/m).

Points are built as ints (needle, k): k >= 1 stands for 1 + 1/k, k = 0 for
the limit 1, and a space whose largest k is t lies on D = lcm(1..t) as
D + D // k (D for the limit).  A config builds both spaces' points, labels
and rows once, on the common D = lcm(1..max(n + 1, k)), on its first shift,
and keeps them.  Each shift then builds only the long needle's block: the
ambient is the first space plus the long needle's points the first space
lacks, spliced into the first space's cached rows; the second space's
cached rows are checked row by row against the ambient's at their images.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import IndexOutOfRange, TooLarge
from .spaces import FiniteMetricSpace, SubsetRef, check_points, from_grid, hausdorff

INF_NEEDLE = "inf"
GRID_BITS_CAP = 4 * 10**8  # points² × bits of the denominator, per space

Harmonic = tuple[str, int]  # (needle id, k): coordinate 1 + 1/k, or 1 for k = 0
Placed = tuple[str, int, int]  # (needle id, coordinate * D, k)
Rows = tuple[tuple[int, ...], ...]
Side = tuple[tuple[Placed, ...], tuple[str, ...], Rows]  # points, labels, rows


@dataclass(frozen=True)
class TuzhilinConfig:
    n: int  # finite needles 1..n are shared; the first space also has needle n+1
    k: int  # truncation depth of the long needle

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.k < self.n:
            raise ValueError("k must be at least n")
        _check_size("Tuzhilin spaces have", self.point_count, max(self.k, self.n + 1))

    @property
    def point_count(self) -> int:
        """|X| + |Y|: (n+1)(n+2)/2 points in the first space, n(n+1)/2 + k + 1
        in the second."""
        return (self.n + 1) ** 2 + self.k + 1

    @cached_property
    def _sides(self) -> tuple[int, Side, Side]:
        """D = lcm(1..max(n + 1, k)) and each space on it, as
        `_harmonic_grid` gives it: what every shift shares, built on the
        first shift, not on construction, and kept for the config's life."""
        denom = math.lcm(*range(1, max(self.n + 1, self.k) + 1))  # k of either
        return (
            denom,
            _harmonic_grid(_x_points(self), denom),
            _harmonic_grid(_y_points(self), denom),
        )


def _check_size(what: str, points: int, top: int) -> None:
    """`TooLarge` when the points are over the point cap, or else when
    points² × bits of lcm(1..top) is over GRID_BITS_CAP."""
    check_points(what, points)
    bits = math.lcm(*range(1, top + 1)).bit_length()
    if points * points * bits > GRID_BITS_CAP:
        raise TooLarge(
            f"{what} {points} points on a {bits}-bit denominator, "
            f"{points}² × {bits} is over the cap {GRID_BITS_CAP}"
        )


def _block(points: Sequence[tuple], placed: Sequence[tuple]) -> Rows:
    """The rows of `points` over the columns `placed`, distinct points sorted
    by (needle, coordinate) so that each needle is one span; every point is
    a tuple starting (needle, coordinate * denom)."""
    coords = [p[1] for p in placed]
    span: dict[str, list[int]] = {}  # needle -> [first, last + 1] position
    for g, p in enumerate(placed):
        span.setdefault(p[0], [g, g])[1] = g + 1
    rows = []
    for p in points:
        a = p[1]
        row = [a + b for b in coords]  # through the center
        if p[0] in span:
            first, end = span[p[0]]
            row[first:end] = [abs(a - b) for b in coords[first:end]]
        rows.append(tuple(row))
    return tuple(rows)


def _rows(placed: Sequence[tuple]) -> Rows:
    """The full rows of a space's placed points."""
    return _block(placed, placed)


def _labels(placed: Sequence[Placed]) -> tuple[str, ...]:
    # the labels str(Fraction) gives: 1 + 1/k is (k + 1)/k in lowest terms
    names = {0: "1", 1: "2"}
    return tuple(
        [f"{needle}:{names.get(k) or f'{k + 1}/{k}'}" for needle, _, k in placed]
    )


def _harmonic_grid(points: Iterable[Harmonic], denom: int) -> Side:
    """The distinct points sorted by (needle, coordinate) as (needle,
    coordinate on denom: D + D // k, or D for the limit, k), their labels and
    their rows on denom."""
    placed = tuple(
        sorted(
            (needle, denom + denom // k if k else denom, k)
            for needle, k in set(points)
        )
    )
    return placed, _labels(placed), _rows(placed)


def _harmonic_space(
    points: Iterable[Harmonic],
) -> tuple[tuple[Placed, ...], FiniteMetricSpace]:
    """`_harmonic_grid`'s points, and their space on D = lcm(1..largest k)."""
    distinct = set(points)
    denom = math.lcm(*range(1, max(k for _, k in distinct) + 1))
    placed, labels, rows = _harmonic_grid(distinct, denom)
    return placed, from_grid(labels, denom, rows)


def _x_points(cfg: TuzhilinConfig) -> list[Harmonic]:
    return [(str(n), k) for n in range(1, cfg.n + 2) for k in range(1, n + 1)]


def _y_points(cfg: TuzhilinConfig) -> list[Harmonic]:
    pts = [(str(n), k) for n in range(1, cfg.n + 1) for k in range(1, n + 1)]
    pts.extend((INF_NEEDLE, k) for k in range(cfg.k + 1))  # k = 0: the limit 1
    return pts


def tuzhilin_spaces(
    cfg: TuzhilinConfig,
) -> tuple[FiniteMetricSpace, FiniteMetricSpace]:
    """The first and second space, from the config's cached sides; `from_grid`
    reduces each to its own denominator."""
    denom, (_, x_labels, x_rows), (_, y_labels, y_rows) = cfg._sides
    return from_grid(x_labels, denom, x_rows), from_grid(y_labels, denom, y_rows)


def _relocate(m: int, point: Harmonic) -> Harmonic:
    needle, k = point
    if needle == INF_NEEDLE:
        return (str(m), k)
    n = int(needle)
    return point if n < m else (str(n + 1), k)


@dataclass(frozen=True)
class TuzhilinEmbedding:
    """The re-slotted second space placed beside the first in one ambient space."""

    ambient: FiniteMetricSpace
    x_part: SubsetRef
    image_part: SubsetRef
    mapping: tuple[tuple[str, str], ...]  # second-space label -> ambient label
    distance_preserving: bool
    hausdorff_value: Fraction
    expected: Fraction


def tuzhilin_isometry(cfg: TuzhilinConfig, m: int) -> TuzhilinEmbedding:
    """Embed the second space via the needle shift h_m and measure the gap.

    The ambient is the first space plus the long needle's points it lacks,
    (m, 0) and (m, k) for m < k <= cfg.k.  Their coordinates, D and
    D + D // k, lie below the first space's on needle m, so in (needle,
    coordinate) order they form one run just before that needle's block.
    Only that run's rows and its columns in the first space's cached rows
    are built, and spliced in there; the ambient's int rows then serve
    `from_grid` and the distance check, which compares the second space's
    cached rows in full with the ambient's rows and columns at its images.
    """
    if not (1 <= m <= cfg.n):
        raise IndexOutOfRange(f"m must be in 1..{cfg.n}, got {m}")
    denom, (x_placed, x_labels, x_rows), (y_placed, y_labels, y_rows) = cfg._sides
    slot = str(m)
    # ascending coordinates: the limit, then k = cfg.k down to m + 1
    run = ((slot, denom, 0),) + tuple(
        [(slot, denom + denom // k, k) for k in range(cfg.k, m, -1)]
    )
    at = bisect_left(x_placed, (slot,))  # the first space's needle m
    placed = x_placed[:at] + run + x_placed[at:]
    labels = x_labels[:at] + _labels(run) + x_labels[at:]
    spliced = [
        row[:at] + cols + row[at:] for row, cols in zip(x_rows, _block(x_placed, run))
    ]
    rows = tuple(spliced[:at]) + _block(run, placed) + tuple(spliced[at:])
    ambient = from_grid(labels, denom, rows)
    index = {(needle, k): g for g, (needle, _, k) in enumerate(placed)}
    image = [index[_relocate(m, (needle, k))] for needle, _, k in y_placed]
    x_part = SubsetRef(ambient, frozenset([index[p[0], p[2]] for p in x_placed]))
    image_part = SubsetRef(ambient, frozenset(image))
    mapping = tuple(zip(y_labels, map(ambient.labels.__getitem__, image)))
    preserved = tuple(map(itemgetter(*image), map(rows.__getitem__, image))) == y_rows

    return TuzhilinEmbedding(
        ambient=ambient,
        x_part=x_part,
        image_part=image_part,
        mapping=mapping,
        distance_preserving=preserved,
        hausdorff_value=hausdorff(x_part, image_part),
        expected=Fraction(1, m),
    )


def needle_set_hausdorff(n: int, m: int) -> Fraction:
    """Hausdorff distance between needle sets n and m placed on one needle.

    Both coordinate sets live on a single line with |x - y| distances; the
    value is exactly |1/n - 1/m|.  The line has max(n, m) points: above the
    point cap, or above GRID_BITS_CAP as points² × bits of its denominator,
    `TooLarge` is raised before any coordinate is built.
    """
    if n < 1 or m < 1:
        raise ValueError("needle indices must be positive")
    top = max(n, m)
    _check_size("needle line has", top, top)
    placed, line = _harmonic_space(("1", k) for k in range(1, top + 1))
    index = {k: g for g, (_, _, k) in enumerate(placed)}
    a = SubsetRef(line, frozenset([index[k] for k in range(1, n + 1)]))
    b = SubsetRef(line, frozenset([index[k] for k in range(1, m + 1)]))
    return hausdorff(a, b)
