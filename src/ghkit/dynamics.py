"""Chains of correspondences, their finite limits, and scaling dynamics.

A chain X_1 -R_1-> X_2 -> ... -> X_k induces threads (one point per layer,
consecutive points linked).  The last-layer distance is a pseudometric on
threads; its zero-distance quotient is the chain's finite limit, and each
layer n gets a certificate: half the distortion of the relation matching
limit classes to layer-n points.  Under the budget dis R_n < 1/2^n the
certificate at layer n is below 1/2^(n-1).  `thread_limit` reads all of
this off one backward pass over the links and builds no thread; the threads
are enumerated on first read, up to THREAD_CAP of them.

The scaling side is closed-form, with no solver call: d(lam) = d_GH(X, lam*X)
is |1 - lam| * diam X / 2, which the diameter gap bounds below and the
identity correspondence above.  Center iteration with a certified Cauchy
tail rests on it.  An isometry keeps the diameter, so lam*X is isometric to
X only when lam = 1 or diam X = 0.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .correspondences import Correspondence, distortion
from .errors import IndexOutOfRange, ThreadCapExceeded, TooLarge
from .hedgehogs import HedgehogSpec
from .spaces import (
    POINT_CAP,
    PSEUDO,
    STRICT,
    FiniteMetricSpace,
    as_fraction,
    diameter,
    positive_factor,
    restrict,
    scale,
)

THREAD_CAP = 10**6  # threads `Threads` will enumerate
CENTER_POWER_BITS = 10_000  # bits any lam^n computed here may take: ~3,000 digits


@dataclass(frozen=True)
class ThreadChain:
    """Consecutively linked spaces; budget_checked records dis R_n < 1/2^n."""

    spaces: tuple[FiniteMetricSpace, ...]
    links: tuple[Correspondence, ...]
    budget_checked: bool = field(init=False)

    def __post_init__(self) -> None:
        self.__dict__.update(spaces=tuple(self.spaces), links=tuple(self.links))
        if not self.spaces:
            raise ValueError("a chain needs at least one space")
        if len(self.links) != len(self.spaces) - 1:
            raise ValueError("a chain of k spaces needs k-1 links")
        for n, link in enumerate(self.links):
            if link.left != self.spaces[n] or link.right != self.spaces[n + 1]:
                raise ValueError(f"link {n + 1} does not join spaces {n + 1} and {n + 2}")
        budget = all(
            distortion(link) < Fraction(1, 2 ** (n + 1))
            for n, link in enumerate(self.links)
        )
        object.__setattr__(self, "budget_checked", budget)

    @property
    def depth(self) -> int:
        return len(self.spaces)


class Threads(Sequence):
    """A chain's threads in lexicographic order.

    `len()` is the thread count from `thread_limit`.  Indexing, iteration,
    `==` and `hash` read one tuple of all threads, enumerated on first use
    and refused above THREAD_CAP; `repr` does not enumerate.
    """

    def __init__(self, width: int, successors: list[list[list[int]]], count: int):
        self._width = width  # points of the first layer
        self._successors = successors  # per link: point -> sorted successors
        self._count = count

    @cached_property
    def _all(self) -> tuple[tuple[int, ...], ...]:
        if self._count > THREAD_CAP:
            raise ThreadCapExceeded(self._count, THREAD_CAP)
        return _enumerate_threads(self._width, self._successors)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._all[index]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._all)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Threads):
            other = other._all
        return self._all == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._all)

    def __repr__(self) -> str:
        return f"Threads(count={self._count})"


def _enumerate_threads(
    width: int, successors: list[list[list[int]]]
) -> tuple[tuple[int, ...], ...]:
    """Every thread, depth-first in lexicographic order, without recursion:
    stack[n] walks the choices at layer n + 1 after path[:n], and the last
    layer is drained in one loop."""
    k = len(successors) + 1
    threads: list[tuple[int, ...]] = []
    path = [0] * k
    stack: list[Iterator[int]] = [iter(range(width))]
    while stack:
        layer = len(stack) - 1
        if layer == k - 1:
            for p in stack.pop():
                path[layer] = p
                threads.append(tuple(path))
            continue
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
        else:
            path[layer] = p
            stack.append(iter(successors[layer][p]))
    return tuple(threads)


@dataclass(frozen=True)
class ThreadLimitResult:
    chain: ThreadChain  # determines every other field: == and hash read only it
    threads: Threads = field(compare=False)
    approx: FiniteMetricSpace = field(compare=False)
    projections: tuple[Correspondence, ...] = field(compare=False)  # limit -> layer n
    certificates: tuple[Fraction, ...] = field(compare=False)  # half of each dis

    @cached_property
    def thread_classes(self) -> tuple[int, ...]:
        """Thread index -> limit class, the zero class of its last point."""
        _, assignment = _zero_classes(self.chain.spaces[-1])
        return tuple([assignment[thread[-1]] for thread in self.threads])

    def layer_distance(self, t1: int, t2: int, layer: int) -> Fraction:
        """Pseudodistance between two threads read off at a 1-based layer;
        `IndexOutOfRange` for a layer or a thread the chain does not have."""
        depth, count = self.chain.depth, len(self.threads)
        if not 1 <= layer <= depth:
            raise IndexOutOfRange(f"layer must be in 1..{depth}, got {layer}")
        for t in (t1, t2):
            if not 0 <= t < count:
                raise IndexOutOfRange(f"thread must be in 0..{count - 1}, got {t}")
        denom, rows = self.chain.spaces[layer - 1].grid
        a, b = self.threads[t1][layer - 1], self.threads[t2][layer - 1]
        return Fraction(rows[a][b], denom)

    def thread_space(self) -> FiniteMetricSpace:
        """The pre-quotient pseudometric space of all threads (small chains only)."""
        count = len(self.threads)
        if count > POINT_CAP:
            raise ThreadCapExceeded(count, POINT_CAP)
        labels = tuple(
            "|".join(self.chain.spaces[n].labels[p] for n, p in enumerate(thread))
            for thread in self.threads
        )
        ends = [thread[-1] for thread in self.threads]
        return restrict(self.chain.spaces[-1], ends, labels, PSEUDO)


def _zero_classes(space: FiniteMetricSpace) -> tuple[list[int], list[int]]:
    """(representative index per class, class id per point) for d = 0 grouping.

    Zero distance is transitive in a pseudometric, so the first zero in a
    grid row is the smallest point of that row's class: its representative.
    """
    first = [row.index(0) for row in space.grid[1]]
    reps = [p for p, rep in enumerate(first) if p == rep]
    number = {rep: cls for cls, rep in enumerate(reps)}
    return reps, [number[rep] for rep in first]


def thread_limit(chain: ThreadChain) -> ThreadLimitResult:
    """Count threads, quotient by zero distance, certify every layer.

    One backward pass over the links carries, for each layer-n point, the
    number of threads that start there and the set of limit classes they
    end in; the layer-n projection pairs each point with that set.  The
    threads themselves are enumerated only when first read.
    """
    spaces = chain.spaces
    last = spaces[-1]
    reps, assignment = _zero_classes(last)
    approx = restrict(last, reps, tuple([last.labels[r] for r in reps]))

    successors: list[list[list[int]]] = []
    for n, link in enumerate(chain.links):
        table: list[list[int]] = [[] for _ in range(len(spaces[n]))]
        for i, j in sorted(link.pairs):
            table[i].append(j)
        successors.append(table)

    counts = [1] * len(last)
    ends = [{c} for c in assignment]
    projections = []
    for n in range(len(spaces) - 1, -1, -1):
        if n < len(successors):
            counts = [sum([counts[j] for j in outs]) for outs in successors[n]]
            ends = [set().union(*[ends[j] for j in outs]) for outs in successors[n]]
        pairs = frozenset([(c, p) for p, classes in enumerate(ends) for c in classes])
        projections.append(Correspondence(approx, spaces[n], pairs))
    projections.reverse()

    return ThreadLimitResult(
        chain=chain,
        threads=Threads(len(spaces[0]), successors, sum(counts)),
        approx=approx,
        projections=tuple(projections),
        certificates=tuple([distortion(p) / 2 for p in projections]),
    )


# ---------------------------------------------------------------------------
# scaling dynamics


@dataclass(frozen=True)
class LambdaProbe:
    space: FiniteMetricSpace
    samples: tuple[tuple[Fraction, Fraction], ...]  # (lam, d(lam))

    def value(self, lam: int | Fraction) -> Fraction:
        lam = as_fraction(lam)
        for factor, dval in self.samples:
            if factor == lam:
                return dval
        raise KeyError(f"lambda {lam} was not sampled")


def d_lambda(space: FiniteMetricSpace, lam: int | Fraction) -> Fraction:
    """d(lam) = d_GH(X, lam*X) = |1 - lam| * diam X / 2, exactly; refuses
    lam <= 0 (`NonpositiveScale`) and a pseudo space (`ValueError`)."""
    return d_lambda_probe(space, [lam]).samples[0][1]


def d_lambda_probe(
    space: FiniteMetricSpace, factors: Sequence[int | Fraction]
) -> LambdaProbe:
    """d(lam) per factor, in order, from one read of the diameter; the mode
    is checked at the first factor, so an empty probe is never refused."""
    samples = []
    for lam in map(positive_factor, factors):
        if not samples:
            if space.mode != STRICT:
                raise ValueError("d_lambda requires a strict space")
            half = diameter(space) / 2
        samples.append((lam, abs(1 - lam) * half))
    return LambdaProbe(space, tuple(samples))


def _check_power_bits(lam: Fraction, n: int) -> None:
    # p^n and q^n have at most n * bit_length bits each
    bits = n * max(lam.numerator.bit_length(), lam.denominator.bit_length())
    if bits > CENTER_POWER_BITS:
        raise TooLarge(f"lambda^n may need {bits} bits, cap is {CENTER_POWER_BITS}")


@dataclass(frozen=True)
class CenterIterate:
    iterate: FiniteMetricSpace  # scale(X, lam^n)
    tail_bound: Fraction  # lam^n * d(lam) / (1 - lam)
    step_distance: Fraction  # d(lam)


def center_iterate(
    space: FiniteMetricSpace, lam: int | Fraction, n: int
) -> CenterIterate:
    """n-th contraction iterate with the Cauchy tail certifying convergence.

    Refuses with `TooLarge`, before computing any distance or power, an n at
    which lam^n could take more than CENTER_POWER_BITS bits.
    """
    lam = as_fraction(lam)
    if not (0 < lam < 1):
        raise ValueError("lambda must lie strictly between 0 and 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_power_bits(lam, n)
    base = d_lambda(space, lam)
    return CenterIterate(
        iterate=scale(space, lam**n),
        tail_bound=lam**n * base / (1 - lam),
        step_distance=base,
    )


@dataclass(frozen=True)
class StabilizerReport:
    accepted: tuple[Fraction, ...]  # factors whose scaled copy is isometric
    candidates: tuple[Fraction, ...]  # the distinct sampled factors and 1, ascending
    zero_distance_sampled: tuple[Fraction, ...]
    finite_sampled: tuple[Fraction, ...]
    note: str


DEFAULT_SAMPLED_FACTORS = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
)


def stabilizer_finite(
    obj: FiniteMetricSpace | HedgehogSpec,
    sampled: Sequence[int | Fraction] = DEFAULT_SAMPLED_FACTORS,
) -> StabilizerReport:
    """Factors lam with lam*X isometric to X, among the sampled factors and 1.

    An isometry keeps the diameter and diam(lam*X) = lam * diam X, so lam is
    accepted exactly when lam = 1 or X is a one-point space.  A hedgehog has
    a needle, so it accepts only 1.
    """
    sampled_factors = tuple(as_fraction(x) for x in sampled)
    hedgehog = isinstance(obj, HedgehogSpec)
    if not hedgehog and obj.mode != STRICT:
        raise ValueError("stabilizer_finite requires a strict space")
    positive_factor(min(sampled_factors, default=1))  # names the smallest <= 0
    candidates = tuple(sorted({*sampled_factors, Fraction(1)}))
    accepted = (Fraction(1),) if hedgehog or len(obj) > 1 else candidates
    zero_sampled = tuple(lam for lam in sampled_factors if lam in accepted)
    note = (
        "zero-distance stabilizer is {1} for positive diameter, everything "
        "for a one-point space; every factor keeps a finite space at finite distance"
    )
    return StabilizerReport(
        accepted=accepted,
        candidates=candidates,
        zero_distance_sampled=zero_sampled,
        finite_sampled=sampled_factors,
        note=note,
    )
