"""Discrete hedgehogs: needle multisets compiled to exact metric spaces.

A hedgehog is a center point plus one point per needle copy; the center is
at distance x from a needle of length x, and distinct needle points sit at
distance x1 + x2 (the intrinsic metric through the center).  Isometry theory
is multiset equality of needles, which the bucket construction turns into
quantitative closeness: matching needles within length buckets of width eps
yields a correspondence of distortion at most 2*eps.  `HedgehogSpec.grid`
puts the needle lengths on their common denominator (`from_pairs` sorts by
those ints): compiling, bucket matching and center location read it, and build
`Fraction`s only for the values they return.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Iterable

from .correspondences import Correspondence
from .errors import BucketMismatch, PremiseViolated
from .gluing import GluedSpace, glue_pair
from .spaces import (
    STRICT,
    FiniteMetricSpace,
    as_fraction,
    check_points,
    from_grid,
    positive_factor,
)

CENTER_LABEL = "0"


@dataclass(frozen=True)
class HedgehogSpec:
    """Multiset of needle lengths: ((length, multiplicity), ...) sorted by length;
    `grid` is (L, one int x per distinct length), length == x / L with L the
    lcm of the denominators, and is not compared, hashed or shown."""

    needles: tuple[tuple[Fraction, int], ...]
    grid: tuple[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        needles = tuple([(as_fraction(x), mult) for x, mult in self.needles])
        if not needles:
            raise ValueError("a hedgehog needs at least one needle")
        denom = math.lcm(*[x.denominator for x, _ in needles])
        lengths = [x.numerator * (denom // x.denominator) for x, _ in needles]
        if min(lengths) <= 0:
            raise ValueError("needle lengths must be positive")
        if not all(isinstance(mult, int) for _, mult in needles):
            raise ValueError("multiplicities must be integers")
        if any(mult < 1 for _, mult in needles):
            raise ValueError("multiplicities must be positive")
        if any(a >= b for a, b in pairwise(lengths)):
            raise ValueError("needles must be sorted with distinct lengths")
        self.__dict__.update(needles=needles, grid=(denom, tuple(lengths)))

    @classmethod
    def of(cls, *lengths: int | Fraction) -> "HedgehogSpec":
        return cls.from_pairs((x, 1) for x in lengths)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int | Fraction, int]]) -> "HedgehogSpec":
        """Merge repeated lengths on the int key (numerator, denominator)."""
        merged: dict[tuple[int, int], list] = {}  # key -> [length, multiplicity]
        for length, mult in pairs:
            # checked per pair: a merged sum can hide a zero or negative count
            if not isinstance(mult, int):
                raise ValueError("multiplicities must be integers")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            x = as_fraction(length)
            merged.setdefault((x.numerator, x.denominator), [x, 0])[1] += mult
        denom = math.lcm(*(d for _, d in merged))  # sort on the grid's ints
        order = sorted(merged, key=lambda key: key[0] * (denom // key[1]))
        return cls(tuple([tuple(merged[key]) for key in order]))

    @property
    def point_count(self) -> int:
        return 1 + sum(mult for _, mult in self.needles)

    def expanded(self) -> tuple[Fraction, ...]:
        """Needle lengths repeated by multiplicity, ascending."""
        return tuple(length for length, mult in self.needles for _ in range(mult))

    def scaled(self, factor: int | Fraction) -> "HedgehogSpec":
        lam = positive_factor(factor)
        return HedgehogSpec(tuple((x * lam, mult) for x, mult in self.needles))


def compile_hedgehog(spec: HedgehogSpec) -> FiniteMetricSpace:
    """Center plus one point per needle copy, intrinsic metric through the center.

    Refuses a spec over the point cap with `TooLarge` before building anything.
    """
    check_points("hedgehog has", spec.point_count)
    labels = (CENTER_LABEL,) + tuple(
        str(length) if mult == 1 else f"{length}#{copy}"
        for length, mult in spec.needles
        for copy in range(1, mult + 1)
    )
    denom, lengths = spec.grid
    grid = [0] + _copies(spec, lengths)
    rows = []
    for i, a in enumerate(grid):
        row = [a + b for b in grid]  # through the center, which sits at 0
        row[i] = 0
        rows.append(tuple(row))
    return from_grid(labels, denom, tuple(rows), STRICT)


def _copies(spec: HedgehogSpec, values: Iterable) -> list:
    """One value per distinct length, repeated by multiplicity (compiled order)."""
    return [v for v, (_, mult) in zip(values, spec.needles) for _ in range(mult)]


def hedgehog_isometric(a: HedgehogSpec, b: HedgehogSpec) -> bool:
    """Compiled hedgehogs are isometric exactly when the needle multisets agree:
    the same grid ints (so the same lengths) with the same multiplicities."""
    return a.grid == b.grid and [k for _, k in a.needles] == [k for _, k in b.needles]


def bucket_correspondence(
    a: HedgehogSpec, b: HedgehogSpec, eps: int | Fraction
) -> Correspondence:
    """Match needles within common length buckets; centers match each other.

    Bucket n is the half-open ((n-1)*eps, n*eps].  Requires equal per-bucket
    counts (with multiplicity), else `BucketMismatch` names the first bucket
    that differs; only a matched pair is compiled.  Both compilations list
    copies ascending, so the match is copy i <-> copy i.  Matched lengths
    differ by less than eps, hence the distortion is at most 2*eps.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    counts = []
    for spec in (a, b):
        check_points("hedgehog has", spec.point_count)  # before any copy is listed
        denom, lengths = spec.grid  # x / L is in bucket ceil(x / (L * eps))
        per = [-(-x * eps.denominator // (denom * eps.numerator)) for x in lengths]
        counts.append(Counter(_copies(spec, per)))
    count_a, count_b = counts
    if count_a != count_b:
        n = min(count_a.items() ^ count_b.items())[0]  # the first differing bucket
        raise BucketMismatch(n, count_a[n], count_b[n])
    pairs = frozenset((i, i) for i in range(a.point_count))
    return Correspondence(compile_hedgehog(a), compile_hedgehog(b), pairs)


# ---------------------------------------------------------------------------
# center location


@dataclass(frozen=True)
class FarNeedleWitness:
    """A needle of length >= 5M and its closest non-center partner."""

    label: str
    length: Fraction
    partner_label: str
    partner_length: Fraction
    carrier_distance: Fraction
    within_m: bool
    center_excluded: bool  # the other center is at distance >= M from this needle


@dataclass(frozen=True)
class NearNeedleWitness:
    """A needle of length >= 2*eps with a partner needle of nearby length."""

    label: str
    length: Fraction
    partner_label: str
    partner_length: Fraction
    length_gap: Fraction  # length - partner_length, must lie in (-2*eps, 2*eps)
    within_band: bool


@dataclass(frozen=True)
class CenterLocationReport:
    m: Fraction
    center_distance: Fraction
    center_bound_ok: bool  # |0_A 0_B| < 4M
    far_needles: tuple[FarNeedleWitness, ...]
    coverage_ok: bool  # every far needle has a non-center partner within M
    near_probe: tuple[NearNeedleWitness, ...] | None  # only if centers matched
    near_probe_ok: bool | None
    glued: GluedSpace

    @property
    def passed(self) -> bool:
        ok = self.center_bound_ok and self.coverage_ok
        return ok and self.near_probe_ok is not False


def check_center_location(
    a: HedgehogSpec, b: HedgehogSpec, rel: Correspondence, m: int | Fraction
) -> CenterLocationReport:
    """Locate the second hedgehog's center and far needles inside a gluing.

    Premises (raise PremiseViolated when broken): the first hedgehog has at
    least two needle points of length >= 2M, and inside the glued carrier
    every point of the first copy lies within < M of the second copy.

    Conclusions reported: the two centers are closer than 4M, and every
    needle of length >= 5M has a non-center partner within < M.  When the
    correspondence matches center to center, the carrier additionally
    certifies, for every needle of length >= 2M, a partner needle whose
    length differs by less than 2M (the near-needle probe with eps = M).
    """
    m = as_fraction(m)
    if m <= 0:
        raise ValueError("M must be positive")
    compiled_a, compiled_b = compile_hedgehog(a), compile_hedgehog(b)
    if rel.left != compiled_a or rel.right != compiled_b:
        raise ValueError("correspondence does not match the compiled hedgehogs")

    def at_least(k: int, denom: int) -> int:  # the least int d with d / denom >= k*M
        return -(-k * m.numerator * denom // m.denominator)

    denom, lengths = a.grid
    big = _copies(a, [x >= at_least(2, denom) for x in lengths])
    if big.count(True) < 2:
        raise PremiseViolated(
            "need at least two needles of length >= 2M",
            f"lengths >= 2M: {[str(x) for x, y in zip(a.expanded(), big) if y]}",
        )

    glued = glue_pair(rel.left, rel.right, rel)  # equal to the compilations
    na = len(compiled_a)
    denom, grid = glued.carrier.grid
    # the carrier lists the first copy, then the second (glue_tree's attach
    # order), so row i of the cross block is point i of A against all of B,
    # and each center's row holds its needle lengths
    cross = [row[na:] for row in grid[:na]]
    m_grid, two_m, four_m, five_m = (at_least(k, denom) for k in (1, 2, 4, 5))

    for label, row in zip(compiled_a.labels, cross):
        if min(row) >= m_grid:
            raise PremiseViolated(
                "first copy not inside the open M-neighborhood of the second",
                f"point {label} at distance {Fraction(min(row), denom)} >= {m}",
            )

    lengths_a, lengths_b = grid[0][1:na], grid[na][na:]
    partners = b.expanded()  # the report's lengths: point j of B has partners[j - 1]
    matched = (0, 0) in rel.pairs
    far, probe = [], []
    rows = zip(compiled_a.labels[1:], a.expanded(), lengths_a, cross[1:])
    for label, length, x, row in rows:
        if x < two_m:  # every far needle (>= 5M) is also >= 2M
            continue
        j = row.index(min(row[1:]), 1)  # first closest non-center partner
        if x >= five_m:
            far.append(
                FarNeedleWitness(
                    label=label,
                    length=length,
                    partner_label=compiled_b.labels[j],
                    partner_length=partners[j - 1],
                    carrier_distance=Fraction(row[j], denom),
                    within_m=row[j] < m_grid,
                    center_excluded=row[0] >= m_grid,
                )
            )
        if matched:
            gap = x - lengths_b[j]
            probe.append(
                NearNeedleWitness(
                    label=label,
                    length=length,
                    partner_label=compiled_b.labels[j],
                    partner_length=partners[j - 1],
                    length_gap=Fraction(gap, denom),
                    within_band=abs(gap) < two_m,
                )
            )

    return CenterLocationReport(
        m=m,
        center_distance=Fraction(cross[0][0], denom),
        center_bound_ok=cross[0][0] < four_m,
        far_needles=tuple(far),
        coverage_ok=all(w.within_m and w.center_excluded for w in far),
        near_probe=tuple(probe) if matched else None,
        near_probe_ok=all(w.within_band for w in probe) if matched else None,
        glued=glued,
    )
