"""Executable verification suite: every acceptance check, seeded and exact.

Each check states a mathematical claim, runs a deterministic battery of
instances, and returns None (pass) or a witness string describing the first
failure.  All comparisons are exact rational equalities or inequalities; no
check uses a tolerance.  Identities among solver values are compared on one
integer grid per space: each value times the lcm of that space's value
denominators, an exact int.  The CLI `verify` subcommand and the acceptance
test module both run this suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .correspondences import (
    Correspondence,
    distortion,
    identity_correspondence,
    min_distortion_by_enumeration,
)
from .dynamics import (
    DEFAULT_SAMPLED_FACTORS,
    StabilizerReport,
    ThreadChain,
    center_iterate,
    d_lambda_probe,
    stabilizer_finite,
    thread_limit,
)
from .generate import (
    DEFAULT_SEED,
    dense_hedgehog_spec,
    grid_hedgehog,
    perturbed_hedgehog,
    random_correspondence,
    random_gluing_tree,
    random_metric_space,
    rng_from_seed,
)
from .gluing import glue_pair, glue_star, glue_tree
from .hedgehogs import (
    HedgehogSpec,
    check_center_location,
    bucket_correspondence,
    compile_hedgehog,
    hedgehog_isometric,
)
from .solver import are_isometric, gh_exact, gh_upper_from, isometry_cells
from .spaces import (
    STRICT,
    FiniteMetricSpace,
    diameter,
    hausdorff,
    one_point_space,
    restrict,
    scale,
    validate,
)
from .tuzhilin import TuzhilinConfig, needle_set_hausdorff, tuzhilin_isometry

F = Fraction


@dataclass(frozen=True)
class CheckResult:
    name: str
    claim: str
    passed: bool
    witness: str | None
    seconds: float


@dataclass(frozen=True)
class SuiteReport:
    """The results read once and kept as a tuple, whatever iterable they
    were given as."""

    results: tuple[CheckResult, ...]

    def __post_init__(self) -> None:
        self.__dict__.update(results=tuple(self.results))

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


# ---------------------------------------------------------------------------
# checks


def check_oracle_equivalence(seed: int) -> str | None:
    """Solver value equals half the minimum distortion over full enumeration."""
    rng = rng_from_seed(seed)
    trials = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(200)]
    trials += [(4, 4)] * 20
    for index, (n, m) in enumerate(trials):
        x = random_metric_space(rng, n, label_prefix="x")
        y = random_metric_space(rng, m, label_prefix="y")
        oracle, _ = min_distortion_by_enumeration(x, y)
        result = gh_exact(x, y)
        if 2 * result.value != oracle:
            return (
                f"trial {index}: solver 2*value {2 * result.value} != "
                f"enumerated min distortion {oracle}"
            )
        if distortion(result.witness) != 2 * result.value:
            return f"trial {index}: witness does not attain the reported value"
    return None


def check_diameter_identities(seed: int) -> str | None:
    """Point-space, max-diameter, diameter-gap, scaled-copy, and equivariance identities."""
    rng = rng_from_seed(seed)
    point = one_point_space()
    for index in range(100):
        x = random_metric_space(rng, rng.randint(2, 6))
        if 2 * gh_exact(point, x).value != diameter(x):
            return f"one-point identity failed on space {index}"
    for index in range(30):
        x = random_metric_space(rng, rng.randint(1, 4), label_prefix="x")
        y = random_metric_space(rng, rng.randint(1, 4), label_prefix="y")
        result = gh_exact(x, y)
        if 2 * result.value > max(diameter(x), diameter(y)):
            return f"pair {index}: 2*value exceeds max diameter"
        if result.lower_bound > result.value:
            return f"pair {index}: lower bound above exact value"
    lams = (F(1, 2), F(2, 3), F(1), F(3, 2))
    for index in range(12):
        x = random_metric_space(rng, rng.randint(2, 6))
        diam, copies = diameter(x), [scale(x, lam) for lam in lams]
        for lam, x_lam in zip(lams, copies):
            for mu, x_mu in zip(lams, copies):
                value = gh_exact(x_lam, x_mu).value
                if 2 * value != abs(lam - mu) * diam:
                    return (
                        f"space {index}: scaled copies {lam},{mu} gave {value}, "
                        f"expected {abs(lam - mu) * diam / 2}"
                    )
    for index in range(15):
        x = random_metric_space(rng, rng.randint(1, 4), label_prefix="x")
        y = random_metric_space(rng, rng.randint(1, 4), label_prefix="y")
        base = gh_exact(x, y).value
        for lam in (F(2), F(1, 3)):
            if gh_exact(scale(x, lam), scale(y, lam)).value != lam * base:
                return f"pair {index}: equivariance failed at {lam}"
    return None


def _restriction_matches(glued, vertex: int, space) -> bool:
    indices = [glued.locate(vertex, p) for p in range(len(space))]
    return restrict(glued.carrier, indices, space.labels, space.mode) == space


def check_gluing_realization(seed: int) -> str | None:
    """Glued carriers are strict metrics realizing half-distortion Hausdorff gaps."""
    rng = rng_from_seed(seed)
    for index in range(200):
        x = random_metric_space(rng, rng.randint(2, 5), label_prefix="x")
        y = random_metric_space(rng, rng.randint(2, 5), label_prefix="y")
        rel = random_correspondence(rng, x, y)
        glued = glue_pair(x, y, rel)
        try:
            validate(glued.carrier.grid[1], STRICT, glued.carrier.labels)
        except Exception as exc:  # MetricValidationError carries the details
            return f"pair {index}: carrier is not a strict metric: {exc}"
        if hausdorff(glued.part(0), glued.part(1)) != distortion(rel) / 2:
            return f"pair {index}: realized Hausdorff gap is not half the distortion"
        if not (_restriction_matches(glued, 0, x) and _restriction_matches(glued, 1, y)):
            return f"pair {index}: carrier does not restrict to the inputs"
    for index in range(20):
        tree = random_gluing_tree(rng, 4)
        glued = glue_tree(tree)
        try:
            validate(glued.carrier.grid[1], STRICT, glued.carrier.labels)
        except Exception as exc:
            return f"tree {index}: carrier is not a strict metric: {exc}"
        for e, (u, v, rel) in enumerate(tree.edges):
            if hausdorff(glued.part(u), glued.part(v)) != tree.weight(e):
                return f"tree {index}: edge ({u},{v}) gap differs from its weight"
    for index in range(10):
        center = random_metric_space(rng, 4, label_prefix="c")
        leaves = []
        for leaf_no in range(3):
            factor = 1 + F(leaf_no + 1, 17)
            leaf = scale(center, factor)
            rel = Correspondence(
                center, leaf, frozenset((i, i) for i in range(len(center)))
            )
            budget = distortion(rel) * F(3, 4)
            leaves.append((leaf, rel, budget))
        glued = glue_star(center, leaves)
        for leaf_no, (_, rel, _) in enumerate(leaves):
            gap = hausdorff(glued.part(0), glued.part(leaf_no + 1))
            if gap != distortion(rel) / 2:
                return f"star {index}: leaf {leaf_no} gap {gap} is not half the distortion"
        smaller = glue_star(center, leaves[:2]).carrier
        prefix = restrict(glued.carrier, range(len(smaller)), smaller.labels)
        if prefix != smaller:
            return f"star {index}: adding a leaf moved existing points"
    return None


def check_hedgehog_rigidity(seed: int) -> str | None:
    """Needle-multiset equality matches the exact search's isometry cells."""
    lengths = (F(1), F(2), F(3), F(4))
    specs = []
    for mults in product((0, 1, 2), repeat=4):
        if any(mults):
            specs.append(
                HedgehogSpec.from_pairs(
                    (length, mult)
                    for length, mult in zip(lengths, mults)
                    if mult
                )
            )
    compiled = [compile_hedgehog(s) for s in specs]
    for i in range(len(specs)):
        for j in range(i, len(specs)):
            a, b = specs[i], specs[j]
            expected = hedgehog_isometric(a, b)
            if a.point_count != b.point_count:
                if expected:
                    return f"specs {i},{j}: equal multisets but different sizes"
                continue
            cells = isometry_cells(compiled[i], compiled[j])
            if bool(cells) != expected:
                return (
                    f"specs {i},{j}: multiset equality {expected} but "
                    f"{len(cells)} cells held by isometries"
                )
            if expected and a.point_count >= 3:
                lengths_a = [F(0), *a.expanded()]
                lengths_b = [F(0), *b.expanded()]
                for p, q in sorted(cells):
                    if (p == 0) != (q == 0):
                        return f"specs {i},{j}: an isometry moves the center"
                    if lengths_b[q] != lengths_a[p]:
                        return f"specs {i},{j}: an isometry changes a needle length"
    return None


def check_bucket_construction(seed: int) -> str | None:
    """Bucket matching of eps-close grids has distortion <= 2*eps (bound <= eps)."""
    for eps in (F(1), F(1, 2), F(1, 4), F(1, 8)):
        a = grid_hedgehog(eps, 8 * eps)
        b = HedgehogSpec.from_pairs(
            (eps * F(2 * k - 1, 2), 1) for k in range(1, 9)
        )
        rel = bucket_correspondence(a, b, eps)
        if distortion(rel) > 2 * eps:
            return f"eps {eps}: distortion {distortion(rel)} above 2*eps"
        if gh_upper_from(rel) > eps:
            return f"eps {eps}: upper bound above eps"
        same = bucket_correspondence(a, a, eps)
        if distortion(same) != 0:
            return f"eps {eps}: identical grids did not match identically"
    # rational thirds vs a dyadic multiset with equal per-bucket counts
    eps = F(1, 2)
    thirds = HedgehogSpec.from_pairs((F(k, 3), 1) for k in range(1, 7))
    dyadic = HedgehogSpec.from_pairs(
        (x, 1) for x in (F(1, 2), F(3, 4), F(1), F(5, 4), F(7, 4), F(2))
    )
    rel = bucket_correspondence(thirds, dyadic, eps)
    if distortion(rel) > 2 * eps or gh_upper_from(rel) > eps:
        return "thirds vs dyadic: bucket correspondence exceeded its bound"
    return None


def check_center_location_trials(seed: int) -> str | None:
    """Center distance < 4M, far-needle coverage, and the near-needle band probe."""
    rng = rng_from_seed(seed)
    m = F(1, 4)
    for trial in range(100):
        base = dense_hedgehog_spec(rng, count=6, max_length=3)
        spec = HedgehogSpec.from_pairs(
            tuple(base.needles) + ((F(2), 1), (F(5, 2), 1))
        )
        other, rel = perturbed_hedgehog(rng, spec, m)
        report = check_center_location(spec, other, rel, m)
        if not report.center_bound_ok:
            return f"trial {trial}: centers at {report.center_distance} >= 4M"
        if not report.coverage_ok:
            return f"trial {trial}: a far needle lacks a close non-center partner"
        if report.near_probe is None:
            return f"trial {trial}: centers were not matched by the correspondence"
        if not report.near_probe_ok:
            bad = [w for w in report.near_probe if not w.within_band]
            return f"trial {trial}: near-needle band failed at {bad[0].label}"
    return None


def check_tuzhilin_example(seed: int) -> str | None:
    """Every needle shift is distance-preserving and realizes the 1/m gap."""
    cfg = TuzhilinConfig(10, 20)
    for m in range(1, 11):
        embedding = tuzhilin_isometry(cfg, m)
        if not embedding.distance_preserving:
            return f"m={m}: the shift does not preserve distances"
        if embedding.hausdorff_value != F(1, m):
            return (
                f"m={m}: realized gap {embedding.hausdorff_value}, expected {F(1, m)}"
            )
    for n in range(1, 11):
        for m in range(1, 11):
            expected = abs(F(1, n) - F(1, m))
            if needle_set_hausdorff(n, m) != expected:
                return f"needle sets {n},{m}: gap differs from |1/n - 1/m|"
    return None


def check_thread_limits(seed: int) -> str | None:
    """Constant chains reproduce their space; contraction certificates stay in budget."""
    rng = rng_from_seed(seed)
    x = random_metric_space(rng, 4)
    constant = ThreadChain(
        (x,) * 5, tuple(identity_correspondence(x) for _ in range(4))
    )
    result = thread_limit(constant)
    if gh_exact(result.approx, x).value != 0:
        return "constant chain limit is not isometric to the base space"
    if any(cert != 0 for cert in result.certificates):
        return "constant chain produced nonzero certificates"

    base = random_metric_space(rng, 3, denominator=6, coord_max=6)  # diam <= 1
    lam = F(1, 2)
    depth = 20
    spaces = tuple(scale(base, lam**n) for n in range(1, depth + 1))
    links = tuple(
        Correspondence(
            spaces[i], spaces[i + 1], frozenset((p, p) for p in range(len(base)))
        )
        for i in range(depth - 1)
    )
    chain = ThreadChain(spaces, links)
    if not chain.budget_checked:
        return "contraction chain does not satisfy the 1/2^n link budget"
    result = thread_limit(chain)
    if diameter(result.approx) != lam**depth * diameter(base):
        return (
            f"contraction limit diameter {diameter(result.approx)} != "
            f"{lam**depth * diameter(base)}"
        )
    for layer, cert in enumerate(result.certificates, start=1):
        if cert > F(1, 2 ** (layer - 1)):
            return f"layer {layer}: certificate {cert} above 1/2^(n-1)"
    return None


def check_scaling_dynamics(seed: int) -> str | None:
    """Scaling-probe identities, the closed form, and Cauchy tails.

    The solver is asked once per factor of one table: 1, the grid, the
    inverses and the products lam*mu.  The identities among its values are
    compared as ints I = d * D, D the lcm of one space's value denominators.
    """
    rng = rng_from_seed(seed)
    grid = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3), F(4))
    # every factor read, once; at[f] is f's place in the table
    inverses, products = [1 / lam for lam in grid], [a * b for a in grid for b in grid]
    factors = list(dict.fromkeys((F(1), *grid, *inverses, *products)))
    at = {lam: k for k, lam in enumerate(factors)}
    probed = [(lam.numerator, lam.denominator, at[lam], at[1 / lam]) for lam in grid]
    subdivisions = [
        (lam, mu, lam.numerator, lam.denominator, at[lam], at[mu], at[lam * mu])
        for lam in grid
        for mu in grid
    ]
    for index in range(20):
        x = random_metric_space(rng, 4)
        diam = diameter(x)
        d = [gh_exact(x, scale(x, lam)).value for lam in factors]
        denom = math.lcm(*(v.denominator for v in d))
        ints = [v.numerator * (denom // v.denominator) for v in d]
        top, bottom = diam.numerator * denom, diam.denominator

        if ints[at[1]]:
            return f"space {index}: d(1) != 0"
        samples = d_lambda_probe(x, grid).samples
        for (lam, closed), (p, q, k, inverse) in zip(samples, probed):
            # d(1/lam) * lam = d(lam) and 2 * d(lam) = |lam - 1| * diam
            if p * ints[inverse] != q * ints[k]:
                return f"space {index}: inversion identity failed at {lam}"
            if 2 * q * bottom * ints[k] != abs(p - q) * top:
                return f"space {index}: closed form failed at {lam}"
            if closed != d[k]:
                return f"space {index}: d_lambda gave {closed}, the solver {d[k]}"
        for lam, mu, p, q, k, l, kl in subdivisions:
            # d(lam*mu) <= d(lam) + lam * d(mu), times q * D
            if q * ints[kl] > q * ints[k] + p * ints[l]:
                return f"space {index}: subdivision bound failed at {lam},{mu}"
        half = F(1, 2)
        for larger, smaller in ((1, 0), (2, 1), (4, 2), (6, 3)):
            state = center_iterate(x, half, smaller)
            actual = gh_exact(scale(x, half**larger), state.iterate).value
            closed = (half**smaller - half**larger) * diam / 2
            if actual != closed:
                return f"space {index}: iterate gap is not the closed form"
            if actual > state.tail_bound:
                return f"space {index}: tail bound fails to dominate the gap"
    return None


def _isometric_factors(report: StabilizerReport, x: FiniteMetricSpace) -> tuple:
    """The candidates lam for which an isometry search finds lam*X isometric to X."""
    return tuple(lam for lam in report.candidates if are_isometric(scale(x, lam), x))


def check_stabilizers(seed: int) -> str | None:
    """Finite positive-diameter spaces have trivial stabilizer; a point accepts all."""
    rng = rng_from_seed(seed)
    for index in range(50):
        x = random_metric_space(rng, 4, distinct_distances=True)
        report = stabilizer_finite(x)
        found = _isometric_factors(report, x)
        if report.accepted != (F(1),) or found != report.accepted:
            return f"space {index}: accepted {report.accepted}, found {found}"
    hedgehogs = (
        HedgehogSpec.of(1, 2),
        HedgehogSpec.from_pairs(((F(1), 2),)),
        grid_hedgehog(F(1, 4), 2),
        dense_hedgehog_spec(rng, 6, 3),
    )
    for spec in hedgehogs:
        report = stabilizer_finite(spec)
        found = _isometric_factors(report, compile_hedgehog(spec))
        if report.accepted != (F(1),) or found != report.accepted:
            return f"hedgehog {spec.needles}: accepted {report.accepted}, found {found}"
    point = one_point_space()
    report = stabilizer_finite(point)
    found = _isometric_factors(report, point)
    if found != report.accepted:
        return f"one-point space: accepted {report.accepted}, found {found}"
    missing = [lam for lam in DEFAULT_SAMPLED_FACTORS if lam not in report.accepted]
    if missing:
        return f"one-point space rejected factors {missing}"
    if tuple(report.zero_distance_sampled) != tuple(DEFAULT_SAMPLED_FACTORS):
        return "one-point space: a sampled factor is not at zero distance"
    return None


# ---------------------------------------------------------------------------
# registry


CHECKS: dict[str, tuple[str, Callable[[int], str | None]]] = {
    "solver-oracle-equivalence": (
        "exact solver = half the minimum distortion over all correspondences",
        check_oracle_equivalence,
    ),
    "diameter-identities": (
        "2*d(point, X) = diam X; 2*d <= max diam; diameter gap bounds below; "
        "d(aX, bX) = |a-b|/2 * diam X; d(aX, aY) = a*d(X, Y)",
        check_diameter_identities,
    ),
    "gluing-realization": (
        "glued carriers are strict metrics; each edge realizes d_H = dis/2; "
        "star gaps stay below their budgets",
        check_gluing_realization,
    ),
    "hedgehog-rigidity": (
        "hedgehog isometry = needle multiset equality; isometries fix the center "
        "and the needle lengths (3+ points)",
        check_hedgehog_rigidity,
    ),
    "bucket-construction": (
        "bucket matching of eps-close needle sets has distortion <= 2*eps",
        check_bucket_construction,
    ),
    "center-location": (
        "inside a gluing within M: centers < 4M apart, far needles have "
        "non-center partners within M, needle lengths agree within 2M",
        check_center_location_trials,
    ),
    "tuzhilin-example": (
        "the needle shift preserves distances and realizes d_H = 1/m; "
        "common-needle sets realize |1/n - 1/m|",
        check_tuzhilin_example,
    ),
    "thread-limits": (
        "constant chains reproduce their space; contraction chains contract "
        "exactly with certificates <= 1/2^(n-1)",
        check_thread_limits,
    ),
    "scaling-dynamics": (
        "d(1) = 0, d(1/a) = d(a)/a, d(ab) <= d(a) + a*d(b), 2*d(a) = |a-1|*diam, "
        "Cauchy tails dominate iterate gaps",
        check_scaling_dynamics,
    ),
    "stabilizers": (
        "finite spaces of positive diameter accept only factor 1; a one-point "
        "space accepts every factor",
        check_stabilizers,
    ),
}


def run_check(name: str, seed: int = DEFAULT_SEED) -> CheckResult:
    claim, fn = CHECKS[name]
    start = time.perf_counter()
    try:
        witness = fn(seed)
    except Exception as exc:  # a crash is a failure with the exception as witness
        witness = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        claim=claim,
        passed=witness is None,
        witness=witness,
        seconds=elapsed,
    )


def suite_names(selector: str = "all") -> list[str]:
    if selector == "all":
        return list(CHECKS)
    names = [token.strip() for token in selector.split(",") if token.strip()]
    if not names:
        raise ValueError(f"no checks selected by {selector!r}")
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    return names


def run_suite(selector: str = "all", seed: int = DEFAULT_SEED) -> SuiteReport:
    return SuiteReport(run_check(name, seed) for name in suite_names(selector))
