"""Discrete hedgehogs: needle multisets compiled to exact metric spaces.

A hedgehog is a center point plus one point per needle copy; the center is
at distance x from a needle of length x, and distinct needle points sit at
distance x1 + x2 (the intrinsic metric through the center).  Isometry theory
is multiset equality of needles, which the bucket construction turns into
quantitative closeness: matching needles within length buckets of width eps
yields a correspondence of distortion at most 2*eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .correspondences import Correspondence
from .errors import BucketMismatch, PremiseViolated, TooLarge
from .gluing import GluedSpace, glue_pair
from .spaces import (
    POINT_CAP,
    STRICT,
    FiniteMetricSpace,
    as_fraction,
    from_grid,
    positive_factor,
)

CENTER_LABEL = "0"


@dataclass(frozen=True)
class HedgehogSpec:
    """Multiset of needle lengths: ((length, multiplicity), ...) sorted by length."""

    needles: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if not self.needles:
            raise ValueError("a hedgehog needs at least one needle")
        lengths = [length for length, _ in self.needles]
        if any(length <= 0 for length in lengths):
            raise ValueError("needle lengths must be positive")
        if not all(isinstance(mult, int) for _, mult in self.needles):
            raise ValueError("multiplicities must be integers")
        if any(mult < 1 for _, mult in self.needles):
            raise ValueError("multiplicities must be positive")
        if lengths != sorted(set(lengths)):
            raise ValueError("needles must be sorted with distinct lengths")

    @classmethod
    def of(cls, *lengths: int | Fraction) -> "HedgehogSpec":
        return cls.from_pairs((as_fraction(x), 1) for x in lengths)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int | Fraction, int]]
    ) -> "HedgehogSpec":
        merged: dict[Fraction, int] = {}
        for length, mult in pairs:
            # checked per pair: a merged sum can hide a zero or negative count
            if not isinstance(mult, int):
                raise ValueError("multiplicities must be integers")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            key = as_fraction(length)
            merged[key] = merged.get(key, 0) + mult
        return cls(tuple(sorted(merged.items())))

    @property
    def point_count(self) -> int:
        return 1 + sum(mult for _, mult in self.needles)

    def expanded(self) -> tuple[Fraction, ...]:
        """Needle lengths repeated by multiplicity, ascending."""
        return tuple(
            length for length, mult in self.needles for _ in range(mult)
        )

    def scaled(self, factor: int | Fraction) -> "HedgehogSpec":
        lam = positive_factor(factor)
        return HedgehogSpec(
            tuple((length * lam, mult) for length, mult in self.needles)
        )


def compile_hedgehog(spec: HedgehogSpec) -> FiniteMetricSpace:
    """Center plus one point per needle copy, intrinsic metric through the center.

    Refuses with `TooLarge`, before building anything, a spec of more than
    POINT_CAP points.
    """
    if spec.point_count > POINT_CAP:
        raise TooLarge(
            f"hedgehog has {spec.point_count} points, cap is {POINT_CAP}"
        )
    labels = [CENTER_LABEL]
    lengths = [Fraction(0)]
    for length, mult in spec.needles:
        if mult == 1:
            labels.append(str(length))
            lengths.append(length)
        else:
            for copy in range(1, mult + 1):
                labels.append(f"{length}#{copy}")
                lengths.append(length)
    denom = math.lcm(*(length.denominator for length, _ in spec.needles))
    grid = [x.numerator * (denom // x.denominator) for x in lengths]
    rows = []
    for i, a in enumerate(grid):
        row = list(map(a.__add__, grid))  # through the center, which sits at 0
        row[i] = 0
        rows.append(tuple(row))
    return from_grid(tuple(labels), denom, tuple(rows), STRICT)


def hedgehog_isometric(a: HedgehogSpec, b: HedgehogSpec) -> bool:
    """Compiled hedgehogs are isometric exactly when the needle multisets agree."""
    return a.needles == b.needles


def hedgehog_scale_isometry_check(spec: HedgehogSpec, factor: int | Fraction) -> bool:
    """Is the scaled hedgehog isometric to the original?

    For a finite nonempty spec this holds only at factor 1: scaling must fix
    both the largest and smallest needle length.
    """
    return hedgehog_isometric(spec.scaled(factor), spec)


def bucket_index(length: Fraction, eps: Fraction) -> int:
    """1-based index of the half-open bucket ((n-1)*eps, n*eps] containing length."""
    return math.ceil(length / eps)


def bucket_correspondence(
    a: HedgehogSpec, b: HedgehogSpec, eps: int | Fraction
) -> Correspondence:
    """Match needles within common length buckets; centers match each other.

    Requires equal per-bucket counts (with multiplicity) and matches within a
    bucket ascending by length, so the result is deterministic.  Matched
    lengths differ by less than eps, hence the distortion is at most 2*eps.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    compiled_a = compile_hedgehog(a)
    compiled_b = compile_hedgehog(b)

    def by_bucket(spec: HedgehogSpec) -> dict[int, list[int]]:
        buckets: dict[int, list[int]] = {}
        # compiled order: center, then needle copies ascending
        for idx, length in enumerate(_compiled_lengths(spec)):
            if idx == 0:
                continue
            buckets.setdefault(bucket_index(length, eps), []).append(idx)
        return buckets

    buckets_a = by_bucket(a)
    buckets_b = by_bucket(b)
    pairs = {(0, 0)}
    for n in sorted(set(buckets_a) | set(buckets_b)):
        left = buckets_a.get(n, [])
        right = buckets_b.get(n, [])
        if len(left) != len(right):
            raise BucketMismatch(n, len(left), len(right))
        pairs.update(zip(left, right))
    return Correspondence(compiled_a, compiled_b, frozenset(pairs))


def _compiled_lengths(spec: HedgehogSpec) -> list[Fraction]:
    return [Fraction(0), *spec.expanded()]


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
        if not (self.center_bound_ok and self.coverage_ok):
            return False
        return self.near_probe_ok is not False


def check_center_location(
    a: HedgehogSpec,
    b: HedgehogSpec,
    rel: Correspondence,
    m: int | Fraction,
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
    compiled_a = compile_hedgehog(a)
    compiled_b = compile_hedgehog(b)
    if rel.left != compiled_a or rel.right != compiled_b:
        raise ValueError("correspondence does not match the compiled hedgehogs")

    big = [x for x in a.expanded() if x >= 2 * m]
    if len(big) < 2:
        raise PremiseViolated(
            "need at least two needles of length >= 2M",
            f"lengths >= 2M: {[str(x) for x in big]}",
        )

    glued = glue_pair(rel.left, rel.right, rel)
    na, nb = len(compiled_a), len(compiled_b)
    denom, grid = glued.carrier.grid
    # carrier rows of the first copy's points, restricted to the second copy
    b_global = [glued.locate(1, j) for j in range(nb)]
    to_b = [[grid[glued.locate(0, i)][g] for g in b_global] for i in range(na)]

    for i in range(na):
        closest = Fraction(min(to_b[i]), denom)
        if closest >= m:
            raise PremiseViolated(
                "first copy not inside the open M-neighborhood of the second",
                f"point {compiled_a.labels[i]} at distance {closest} >= {m}",
            )

    lengths_a = _compiled_lengths(a)
    lengths_b = _compiled_lengths(b)
    center_distance = Fraction(to_b[0][0], denom)

    def nearest_needle(i: int) -> int:
        """First non-center point of the second copy closest to point i."""
        row = to_b[i]
        return min(range(1, nb), key=row.__getitem__)

    far = []
    coverage_ok = True
    for i in range(1, na):
        if lengths_a[i] < 5 * m:
            continue
        best_j = nearest_needle(i)
        best_d = Fraction(to_b[i][best_j], denom)
        witness = FarNeedleWitness(
            label=compiled_a.labels[i],
            length=lengths_a[i],
            partner_label=compiled_b.labels[best_j],
            partner_length=lengths_b[best_j],
            carrier_distance=best_d,
            within_m=best_d < m,
            center_excluded=Fraction(to_b[i][0], denom) >= m,
        )
        far.append(witness)
        if not (witness.within_m and witness.center_excluded):
            coverage_ok = False

    near_probe = None
    near_probe_ok = None
    if (0, 0) in rel.pairs:
        eps = m
        probe = []
        near_probe_ok = True
        for i in range(1, na):
            if lengths_a[i] < 2 * eps:
                continue
            best_j = nearest_needle(i)
            gap = lengths_a[i] - lengths_b[best_j]
            witness = NearNeedleWitness(
                label=compiled_a.labels[i],
                length=lengths_a[i],
                partner_label=compiled_b.labels[best_j],
                partner_length=lengths_b[best_j],
                length_gap=gap,
                within_band=-2 * eps < gap < 2 * eps,
            )
            probe.append(witness)
            if not witness.within_band:
                near_probe_ok = False
        near_probe = tuple(probe)

    return CenterLocationReport(
        m=m,
        center_distance=center_distance,
        center_bound_ok=center_distance < 4 * m,
        far_needles=tuple(far),
        coverage_ok=coverage_ok,
        near_probe=near_probe,
        near_probe_ok=near_probe_ok,
        glued=glued,
    )
