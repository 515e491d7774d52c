"""The Tuzhilin two-space family: hedgehog-type spaces at small Hausdorff gaps.

Needle n carries the coordinates {1 + 1/k : 1 <= k <= n}. The first space
uses needles 1..N+1; the second replaces needle N+1 with a long needle whose
coordinates are {1 + 1/k : k <= K} together with the limit coordinate 1.
Points on one needle are at |x - x'|, points on different needles at x + x'
(intrinsic metric through the center, which is not itself a point).

Re-slotting the long needle onto needle m (and shifting needles m..N up by
one) is distance-preserving and realizes Hausdorff distance exactly 1/m
against the first space, witnessed by the pair (m, 1) vs (m, 1 + 1/m).

Every coordinate is an int on one denominator D: k >= 1 stands for
1 + 1/k, at D + D // k, and k = 0 for the limit 1, at D.  A config works on
D = lcm(1..max(n + 1, k)), and on its first shift, never on construction,
builds two int tables and keeps them: for each coordinate, its sums with
every coordinate (through the center) and its gaps |a - b| (along one
needle), columns in ascending order.  Every needle of either space is a run
of those columns, so both spaces' rows are sliced from the tables' rows and
hold the same int objects.  A shift computes no entry: the ambient is the
first space plus the long needle's points it lacks on needle m, its rows
the first space's rows with the run's columns sliced from the tables, and
the run's rows sliced from them too.  The distance check compares the
second space's rows in full with the ambient's at their images; as both
hold the tables' ints, each compare meets one int object twice.  The single
needle line of `needle_set_hausdorff` is built apart, by the same rule on
D = lcm(1..max(n, m)): its gaps |a - b| and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import IndexOutOfRange, TooLarge
from .spaces import FiniteMetricSpace, SubsetRef, check_points, from_grid, hausdorff

INF_NEEDLE = "inf"
GRID_BITS_CAP = 4 * 10**8  # points² × bits of the denominator, per space

Rows = tuple[tuple[int, ...], ...]


class _Tables(NamedTuple):
    """A config's ints on D = lcm(1..top), top = max(n + 1, k), that no shift
    changes.  The columns are the coordinates in ascending order, the limit D
    and then D + D // k for k = top down to 1, so needle v, k = v..1, is the
    last v of them; row k (0 for the limit) holds coordinate k's `sums` with
    each, and its `gaps` |a - b|.  `long_sums` and `long_gaps` are the same
    rows over the long needle's columns, the limit and k = cfg.k down to 1:
    the same tuples, unless top = n + 1 is the first space's alone."""

    denom: int
    sums: Rows
    gaps: Rows
    long_sums: Rows
    long_gaps: Rows


class _Side(NamedTuple):
    """A space sliced from the tables: labels, each point's k and rows, each
    needle's first row and point count in row order, and `through`, whose
    row k holds coordinate k's sums with every point, through the center."""

    labels: tuple[str, ...]
    ks: tuple[int, ...]
    needles: dict[str, tuple[int, int]]
    rows: Rows
    through: Rows


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
    def _tables(self) -> _Tables:
        """What every shift shares, built on the first shift, not on
        construction, and kept for the config's life."""
        return _coordinate_tables(self)

    @cached_property
    def _sides(self) -> tuple[_Side, _Side]:
        """The first and the second space, sliced from `_tables`."""
        finite = [str(v) for v in range(1, self.n + 1)]
        return (
            _side(self._tables, finite + [str(self.n + 1)]),
            _side(self._tables, finite + [INF_NEEDLE]),
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


def _coordinate_tables(cfg: TuzhilinConfig) -> _Tables:
    top = max(cfg.n + 1, cfg.k)
    denom = math.lcm(*range(1, top + 1))
    coords = [denom] + [denom + denom // k for k in range(1, top + 1)]  # by k
    cols = coords[:1] + coords[:0:-1]
    sums = tuple([tuple([a + b for b in cols]) for a in coords])
    gaps = tuple([tuple([abs(a - b) for b in cols]) for a in coords])
    if top == cfg.k:
        return _Tables(denom, sums, gaps, sums, gaps)
    # column 1 is k = top = n + 1, on the first space's needle n + 1 only
    return _Tables(
        denom,
        sums,
        gaps,
        tuple([row[:1] + row[2:] for row in sums]),
        tuple([row[:1] + row[2:] for row in gaps]),
    )


def _side(tables: _Tables, needles: Iterable[str]) -> _Side:
    """The space on `needles`, each finite needle v holding k = v..1 and the
    long needle the limit and k = cfg.k..1, in (needle, coordinate) order;
    each row is coordinate k's `through` row with its own needle's span
    replaced by its gaps there."""
    top = len(tables.sums) - 1
    layout = []  # (needle, its ks in coordinate order, its tables, first column)
    for needle in sorted(needles):
        if needle == INF_NEEDLE:
            ks = (0, *range(len(tables.long_sums[0]) - 1, 0, -1))
            layout.append((needle, ks, tables.long_sums, tables.long_gaps, 0))
        else:
            ks = range(int(needle), 0, -1)
            layout.append((needle, ks, tables.sums, tables.gaps, top + 1 - len(ks)))
    spans = [(sums, first) for _, _, sums, _, first in layout]
    through = tuple(
        [
            tuple(chain.from_iterable([sums[k][first:] for sums, first in spans]))
            for k in range(top + 1)
        ]
    )
    labels: list[str] = []
    point_ks: list[int] = []
    needle_rows: dict[str, tuple[int, int]] = {}
    rows: list[tuple[int, ...]] = []
    for needle, ks, _, gaps, first in layout:
        at, end = len(rows), len(rows) + len(ks)
        needle_rows[needle] = (at, len(ks))
        labels += [_label(needle, k) for k in ks]
        point_ks += ks
        rows += [through[k][:at] + gaps[k][first:] + through[k][end:] for k in ks]
    return _Side(tuple(labels), tuple(point_ks), needle_rows, tuple(rows), through)


def _label(needle: str, k: int) -> str:
    # the label str(Fraction) gives: 1 + 1/k is (k + 1)/k in lowest terms
    return f"{needle}:{'1' if k == 0 else '2' if k == 1 else f'{k + 1}/{k}'}"


def tuzhilin_spaces(
    cfg: TuzhilinConfig,
) -> tuple[FiniteMetricSpace, FiniteMetricSpace]:
    """The first and second space, from the config's cached sides; `from_grid`
    reduces each to its own denominator."""
    denom = cfg._tables.denom
    return tuple([from_grid(side.labels, denom, side.rows) for side in cfg._sides])


def _slot(m: int, needle: str) -> str:
    """The first-space needle that the shift h_m sends a second-space needle
    to: the long needle to m, needles m..n each up by one."""
    if needle == INF_NEEDLE:
        return str(m)
    return needle if int(needle) < m else str(int(needle) + 1)


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
    the run (m, 0) and (m, k) for k = cfg.k down to m + 1.  Their
    coordinates lie below the first space's on needle m, so the run goes
    just before that needle, which then holds the whole long needle.  The
    ambient's rows are the first space's rows with the run's columns, sliced
    from the config's tables, put in there, and the run's rows are its
    `through` rows with the long needle's gaps put in; no entry is computed.
    Each needle of the second space lands on the last points of the ambient
    needle `_slot` sends it to, and the distance check compares the
    second space's rows in full with the ambient's rows and columns there.
    """
    if not (1 <= m <= cfg.n):
        raise IndexOutOfRange(f"m must be in 1..{cfg.n}, got {m}")
    tables = cfg._tables
    x, y = cfg._sides
    slot = str(m)
    at = x.needles[slot][0]
    run = (0, *range(cfg.k, m, -1))
    cut = len(run)
    run_sums = [row[:cut] for row in tables.long_sums]
    run_gaps = [row[:cut] for row in tables.long_gaps]
    spliced = [
        row[:at] + (run_gaps if at <= g < at + m else run_sums)[k] + row[at:]
        for g, (k, row) in enumerate(zip(x.ks, x.rows))
    ]
    run_rows = [
        x.through[k][:at] + tables.long_gaps[k] + x.through[k][at + m :] for k in run
    ]
    rows = tuple(spliced[:at] + run_rows + spliced[at:])
    labels = x.labels[:at] + tuple([_label(slot, k) for k in run]) + x.labels[at:]
    ambient = from_grid(labels, tables.denom, rows)
    image: list[int] = []
    for needle, (_, count) in y.needles.items():
        first, size = x.needles[_slot(m, needle)]
        end = first + size + (cut if first >= at else 0)
        image += range(end - count, end)
    x_part = SubsetRef(ambient, frozenset([*range(at), *range(at + cut, len(rows))]))
    image_part = SubsetRef(ambient, frozenset(image))
    mapping = tuple(zip(y.labels, map(labels.__getitem__, image)))
    preserved = tuple(map(itemgetter(*image), map(rows.__getitem__, image))) == y.rows

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
    denom = math.lcm(*range(1, top + 1))
    coords = [denom + denom // k for k in range(top, 0, -1)]  # ascending
    rows = tuple([tuple([abs(a - b) for b in coords]) for a in coords])
    line = from_grid(tuple([_label("1", k) for k in range(top, 0, -1)]), denom, rows)
    a = SubsetRef(line, frozenset(range(top - n, top)))  # k = n..1
    b = SubsetRef(line, frozenset(range(top - m, top)))
    return hausdorff(a, b)
