"""Shared exception types and metric-axiom violation records."""

from __future__ import annotations

from dataclasses import dataclass


class GhkitError(Exception):
    """Base class for every error raised by this package."""


class InvariantBroken(GhkitError):
    """An internal invariant failed: a defect in ghkit, not in the input."""


# ---------------------------------------------------------------------------
# metric validation


@dataclass(frozen=True)
class AsymmetricEntry:
    i: int
    j: int

    def __str__(self) -> str:
        return f"dist[{self.i}][{self.j}] != dist[{self.j}][{self.i}]"


@dataclass(frozen=True)
class NonzeroDiagonal:
    i: int

    def __str__(self) -> str:
        return f"dist[{self.i}][{self.i}] != 0"


@dataclass(frozen=True)
class NegativeEntry:
    i: int
    j: int

    def __str__(self) -> str:
        return f"dist[{self.i}][{self.j}] < 0"


@dataclass(frozen=True)
class TriangleViolation:
    i: int
    j: int
    k: int

    def __str__(self) -> str:
        return (
            f"dist[{self.i}][{self.j}] > "
            f"dist[{self.i}][{self.k}] + dist[{self.k}][{self.j}]"
        )


@dataclass(frozen=True)
class ZeroDistanceDistinctPoints:
    i: int
    j: int

    def __str__(self) -> str:
        return f"dist[{self.i}][{self.j}] = 0 for distinct points (strict mode)"


Violation = (
    AsymmetricEntry
    | NonzeroDiagonal
    | NegativeEntry
    | TriangleViolation
    | ZeroDistanceDistinctPoints
)


class MetricValidationError(GhkitError):
    """Raised by validate(); carries the full list of violated axioms."""

    def __init__(self, violations) -> None:
        self.violations: tuple[Violation, ...] = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


# ---------------------------------------------------------------------------
# operation errors


class NonpositiveScale(GhkitError):
    pass


class DifferentAmbientSpaces(GhkitError):
    pass


class TooLarge(GhkitError):
    """Refused by a fixed size guard: an exact solve with a side above
    SIDE_BOUND points or a search past NODE_BUDGET nodes, enumeration above
    n*m cells, a distance matrix over the point cap (checked in one place,
    `spaces.check_points`, by every dense builder and generator and by the
    space file reader), a Tuzhilin space or needle line whose points² ×
    denominator bits exceed GRID_BITS_CAP, or a center iterate whose power
    lam^n could exceed CENTER_POWER_BITS."""


class ZeroDistortion(GhkitError):
    """Gluing is undefined for a distortion-0 correspondence."""


class NotATree(GhkitError):
    pass


class DistortionBudgetExceeded(GhkitError):
    def __init__(self, leaf: int, message: str | None = None) -> None:
        self.leaf = leaf
        super().__init__(message or f"leaf {leaf}: distortion not below 2M")


class BucketMismatch(GhkitError):
    def __init__(self, bucket: int, count_a: int, count_b: int) -> None:
        self.bucket = bucket
        self.count_a = count_a
        self.count_b = count_b
        super().__init__(
            f"bucket {bucket}: {count_a} needle(s) on the left, {count_b} on the right"
        )


class PremiseViolated(GhkitError):
    def __init__(self, premise: str, witness: str) -> None:
        self.premise = premise
        self.witness = witness
        super().__init__(f"{premise} (witness: {witness})")


class IndexOutOfRange(GhkitError):
    pass


class ThreadCapExceeded(GhkitError):
    def __init__(self, count: int, cap: int) -> None:
        self.count = count
        self.cap = cap
        super().__init__(f"chain generates {count} threads, cap is {cap}")
