"""The Tuzhilin two-space family: hedgehog-type spaces at small Hausdorff gaps.

Needle n carries the coordinates {1 + 1/k : 1 <= k <= n}. The first space
uses needles 1..N+1; the second replaces needle N+1 with a long needle whose
coordinates are {1 + 1/k : k <= K} together with the limit coordinate 1.
Points on one needle are at |x - x'|, points on different needles at x + x'
(intrinsic metric through the center, which is not itself a point).

Re-slotting the long needle onto needle m (and shifting needles m..N up by
one) is distance-preserving and realizes Hausdorff distance exactly 1/m
against the first space, witnessed by the pair (m, 1) vs (m, 1 + 1/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondences import scaled_integer_matrices
from .errors import IndexOutOfRange, TooLarge
from .spaces import POINT_CAP, FiniteMetricSpace, SubsetRef, from_grid, hausdorff

INF_NEEDLE = "inf"

Point = tuple[str, Fraction]  # (needle id, coordinate)


@dataclass(frozen=True)
class TuzhilinConfig:
    n: int  # finite needles 1..n are shared; the first space also has needle n+1
    k: int  # truncation depth of the long needle

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.k < self.n:
            raise ValueError("k must be at least n")
        if self.point_count > POINT_CAP:
            raise TooLarge(
                f"Tuzhilin spaces have {self.point_count} points, "
                f"cap is {POINT_CAP}"
            )

    @property
    def point_count(self) -> int:
        """|X| + |Y|: (n+1)(n+2)/2 points in the first space, n(n+1)/2 + k + 1
        in the second."""
        return (self.n + 1) ** 2 + self.k + 1


def _coords(depth: int) -> list[Fraction]:
    return [1 + Fraction(1, k) for k in range(1, depth + 1)]


def _on_grid(points: Sequence[Point]) -> tuple[int, list[tuple[str, int, Fraction]]]:
    """The coordinates' common denominator D, and the distinct points sorted
    by (needle, coordinate) as (needle, coordinate * D, coordinate)."""
    denom = math.lcm(*{coord.denominator for _, coord in points})
    distinct = {
        (needle, coord.numerator * (denom // coord.denominator)): coord
        for needle, coord in points
    }
    return denom, sorted((needle, v, coord) for (needle, v), coord in distinct.items())


def needle_space(points: Sequence[Point]) -> FiniteMetricSpace:
    """Metric space on labeled needle points: same needle |x-x'|, else x+x'."""
    denom, placed = _on_grid(points)
    labels = tuple(f"{needle}:{coord}" for needle, _, coord in placed)
    coords = [v for _, v, _ in placed]
    span: dict[str, list[int]] = {}  # needle -> [first, last + 1] position
    for g, (needle, _, _) in enumerate(placed):
        span.setdefault(needle, [g, g])[1] = g + 1
    rows = []
    for needle, a, _ in placed:
        row = list(map(a.__add__, coords))  # through the center
        first, end = span[needle]
        row[first:end] = [abs(a - b) for b in coords[first:end]]
        rows.append(tuple(row))
    return from_grid(labels, denom, tuple(rows))


def _x_points(cfg: TuzhilinConfig) -> list[Point]:
    return [
        (str(n), c) for n in range(1, cfg.n + 2) for c in _coords(n)
    ]


def _y_points(cfg: TuzhilinConfig) -> list[Point]:
    pts: list[Point] = [
        (str(n), c) for n in range(1, cfg.n + 1) for c in _coords(n)
    ]
    pts.extend((INF_NEEDLE, c) for c in _coords(cfg.k))
    pts.append((INF_NEEDLE, Fraction(1)))
    return pts


def tuzhilin_spaces(
    cfg: TuzhilinConfig,
) -> tuple[FiniteMetricSpace, FiniteMetricSpace]:
    return needle_space(_x_points(cfg)), needle_space(_y_points(cfg))


def _relocate(m: int, point: Point) -> Point:
    needle, coord = point
    if needle == INF_NEEDLE:
        return (str(m), coord)
    n = int(needle)
    return (str(n), coord) if n < m else (str(n + 1), coord)


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
    """Embed the second space via the needle shift h_m and measure the gap."""
    if not (1 <= m <= cfg.n):
        raise IndexOutOfRange(f"m must be in 1..{cfg.n}, got {m}")
    x_points = _x_points(cfg)
    y_points = _y_points(cfg)
    y_space = needle_space(y_points)
    image_points = [_relocate(m, p) for p in y_points]
    ambient = needle_space(x_points + image_points)
    index = {label: g for g, label in enumerate(ambient.labels)}

    def locate(p: Point) -> int:
        return index[f"{p[0]}:{p[1]}"]

    x_part = SubsetRef(ambient, frozenset(locate(p) for p in x_points))
    image_part = SubsetRef(ambient, frozenset(locate(p) for p in image_points))

    # ambient index of the image of each point of y_space, in its order
    image = [
        locate(_relocate(m, (needle, coord)))
        for needle, _, coord in _on_grid(y_points)[1]
    ]
    mapping = tuple(
        (label, ambient.labels[g]) for label, g in zip(y_space.labels, image)
    )

    _, gy, ga = scaled_integer_matrices(y_space, ambient)
    preserved = all(
        tuple(map(ga[g].__getitem__, image)) == row for g, row in zip(image, gy)
    )

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
    value is exactly |1/n - 1/m|.  The line has max(n, m) points: above
    POINT_CAP, `TooLarge` is raised before any coordinate is built.
    """
    if n < 1 or m < 1:
        raise ValueError("needle indices must be positive")
    if max(n, m) > POINT_CAP:
        raise TooLarge(f"needle line has {max(n, m)} points, cap is {POINT_CAP}")
    coords = sorted(set(_coords(n)) | set(_coords(m)))
    line = needle_space([("1", c) for c in coords])
    idx = {c: line.index_of(f"1:{c}") for c in coords}
    a = SubsetRef(line, frozenset(idx[c] for c in _coords(n)))
    b = SubsetRef(line, frozenset(idx[c] for c in _coords(m)))
    return hausdorff(a, b)
