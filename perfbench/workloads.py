"""The benchmark's workloads: seeded inputs, the items that use them, and the
exact checks on every output.

Inputs come from the benchmark's own generators (each a `random.Random`
seeded from the workload name and a seed), so a change to `ghkit.generate`
cannot change what is measured.  The library sees only the generated inputs.

Every workload is a sweep: a list of passes, each a list of items.  An item
calls the library through a `lib` namespace (see `bind`) whose functions are
the library's own, or traced wrappers of them, and raises `WrongOutput` when
an exact check fails.  The item's main call runs under a time limit; a call
past it raises `TimeLimit` and the item counts as undecided.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from ghkit import (
    correspondences,
    dynamics,
    gluing,
    hedgehogs,
    io,
    solver,
    spaces,
    tuzhilin,
    verification,
)
from ghkit.correspondences import Correspondence
from ghkit.dynamics import ThreadChain
from ghkit.errors import MetricValidationError
from ghkit.gluing import GluingTree
from ghkit.hedgehogs import HedgehogSpec
from ghkit.spaces import STRICT, FiniteMetricSpace

DEFAULT_SEED = 7  # the seed the golden file is frozen at
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "solve-corpus-seed7.json"

# Time limits, in reference seconds (see calibrate.py):
SOLVE_LIMIT_S = 0.1  # per gh_exact call on solve-corpus
CONSTRUCT_LIMIT_S = 10.0  # per construction call on construct
CHECK_LIMIT_S = 60.0  # per run_check call on verify-suite

FAMILIES = ("random", "near_scaled", "hedgehog")
# A solve-corpus or construct sweep takes about 10 s on a 2-CPU machine, a
# third of a run; a verify-suite sweep takes about 30 s.
SOLVE_BATCHES = 24  # passes in the solve-corpus sweep
SOLVE_ROUNDS = 2  # pairs of each family and size in one pass
SOLVE_SIZES = (6, 7, 8)  # points per space, all within DEFAULT_SIZE_CAP
CONSTRUCT_BATCHES = 10
TREES_PER_PASS = 4
CENTER_TRIALS_PER_PASS = 10
TUZHILIN_N, TUZHILIN_K = 10, 20
CHAIN_DEPTH = 16  # 3 points, 2 successors each: 3 * 2**15 = 98304 threads
CHECK_SEEDS = 3  # verify-suite passes, each the whole suite at one seed
CHECK_SEED_STRIDE = 100_003  # apart, so no two workload seeds share a check seed


class TimeLimit(BaseException):
    """A limited call ran past its limit.

    Derived from BaseException so that `run_check`, which turns any
    `Exception` into a failed check, lets it through.
    """


class WrongOutput(Exception):
    """An exact check on a library output failed."""


def _raise_time_limit(signum, frame):
    raise TimeLimit


def install_time_limit() -> None:
    """Route SIGALRM to `TimeLimit`; call once, from the main thread."""
    signal.signal(signal.SIGALRM, _raise_time_limit)


def limited(fn: Callable, seconds: float, scale: Callable[[], float]) -> Callable:
    """`fn` aborted with `TimeLimit` once it has run `seconds` reference
    seconds: `seconds * scale()` of wall time, where `scale()` is how many
    times slower than nominal the machine runs now (see calibrate.py).

    Safe for the pure library functions used here: an aborted call leaves no
    state behind.
    """

    def call(*args, **kwargs):
        signal.setitimer(signal.ITIMER_REAL, seconds * scale())
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    return call


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def bind(
    wrap: Callable[[str, Callable], Callable], scale: Callable[[], float]
) -> SimpleNamespace:
    """The library calls the items make, each bound through `wrap(name, fn)`;
    `scale` stretches the time limits (see `limited`)."""
    return SimpleNamespace(
        parse_space=wrap("io.parse_space", io.parse_space),
        gh_exact=wrap(
            "solver.gh_exact", limited(solver.gh_exact, SOLVE_LIMIT_S, scale)
        ),
        distortion=wrap("correspondences.distortion", correspondences.distortion),
        validate=wrap("spaces.validate", spaces.validate),
        hausdorff=wrap("spaces.hausdorff", spaces.hausdorff),
        glue_tree=wrap(
            "gluing.glue_tree", limited(gluing.glue_tree, CONSTRUCT_LIMIT_S, scale)
        ),
        part=wrap("gluing.part", gluing.GluedSpace.part),
        compile_hedgehog=wrap("hedgehogs.compile", hedgehogs.compile_hedgehog),
        check_center_location=wrap(
            "hedgehogs.center_location",
            limited(hedgehogs.check_center_location, CONSTRUCT_LIMIT_S, scale),
        ),
        tuzhilin_isometry=wrap(
            "tuzhilin.isometry",
            limited(tuzhilin.tuzhilin_isometry, CONSTRUCT_LIMIT_S, scale),
        ),
        thread_limit=wrap(
            "dynamics.thread_limit",
            limited(dynamics.thread_limit, CONSTRUCT_LIMIT_S, scale),
        ),
        run_check={
            name: wrap(
                f"verification.{name}",
                limited(verification.run_check, CHECK_LIMIT_S, scale),
            )
            for name in verification.suite_names("all")
        },
    )


class Tally:
    """Counts the items report, and the per-instance records of the solves."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.instances: dict[str, dict] = {}

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def get(self, key: str) -> int:
        return self.counts.get(key, 0)


@dataclass(frozen=True)
class Item:
    id: str
    family: str
    run: Callable[[SimpleNamespace, Tally], None]  # run(lib, tally)


Sweep = list[list[Item]]  # a workload: its passes, in order; a run repeats it


# ---------------------------------------------------------------------------
# input generators (the benchmark's own, independent of ghkit.generate)

Rows = tuple[tuple[Fraction, ...], ...]


def _points(rng: random.Random, n: int, coord_max: int = 60, dims: int = 3):
    points: list[tuple[int, ...]] = []
    seen = set()
    while len(points) < n:
        point = tuple(rng.randrange(coord_max + 1) for _ in range(dims))
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points


def _sup_rows(points, denominator: int = 6) -> Rows:
    """Sup-metric distances of distinct integer points: strict by construction."""
    return tuple(
        tuple(
            Fraction(max(abs(a - b) for a, b in zip(p, q)), denominator)
            for q in points
        )
        for p in points
    )


def _hedgehog_rows(lengths) -> Rows:
    """Center plus one point per needle; needle points meet through the center."""
    coords = (Fraction(0), *lengths)
    return tuple(
        tuple(
            Fraction(0) if i == j else (a if j == 0 else b if i == 0 else a + b)
            for j, b in enumerate(coords)
        )
        for i, a in enumerate(coords)
    )


def _perturbed(rng: random.Random, lengths, delta: Fraction, denominator: int = 64):
    """Every length moved by less than delta, kept positive."""
    moved = []
    for length in lengths:
        step = Fraction(rng.randrange(-denominator + 1, denominator), denominator)
        shift = step * delta
        moved.append(length + shift if length + shift > 0 else length - shift)
    return moved


def _msp(labels, rows: Rows) -> str:
    lines = [f"points {len(labels)} strict", " ".join(labels)]
    lines.extend(" ".join(str(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# solve-corpus


@dataclass(frozen=True)
class Pair:
    id: str
    family: str
    labels: tuple[tuple[str, ...], tuple[str, ...]]
    rows: tuple[Rows, Rows]  # as the library gets them
    texts: tuple[str, str]
    inputs: str  # digest of the default-seed texts, as in the golden file
    relabelled: bool


def _random_pair(rng: random.Random, n: int, m: int):
    return _sup_rows(_points(rng, n)), _sup_rows(_points(rng, m))


def _near_scaled_pair(rng: random.Random, n: int, m: int):
    """X and 5X with one point of 5X moved by one grid unit (m is unused: n = m)."""
    points = _points(rng, n)
    scaled = [[5 * c for c in point] for point in points]
    moved = rng.randrange(len(scaled))
    scaled[moved][rng.randrange(3)] += rng.choice((-1, 1))
    return _sup_rows(points), _sup_rows([tuple(point) for point in scaled])


def _hedgehog_pair(rng: random.Random, n: int, m: int):
    """An n-point hedgehog and a copy with every needle nudged by < 1/4."""
    lengths = sorted(Fraction(rng.randint(1, 24), 8) for _ in range(n - 1))
    moved = _perturbed(rng, lengths, Fraction(1, 4))
    return _hedgehog_rows(lengths), _hedgehog_rows(moved)


_PAIR_MAKERS = {
    "random": _random_pair,
    "near_scaled": _near_scaled_pair,
    "hedgehog": _hedgehog_pair,
}


def _relabel(rows: Rows, order: list[int]) -> Rows:
    return tuple(tuple(rows[p][q] for q in order) for p in order)


def solve_corpus_pairs(seed: int) -> list[list[Pair]]:
    """SOLVE_BATCHES passes, shuffled, each with SOLVE_ROUNDS pairs of every
    family at every size in SOLVE_SIZES.  Random pairs take their second size
    from a shuffled copy of SOLVE_SIZES.

    The spaces are drawn once, at DEFAULT_SEED; every other seed shuffles
    the points of every space.  Solve times span four orders of magnitude,
    so a fresh draw of a few hundred pairs moved item_ms.p50 by up to 2x
    between seeds (6.3 to 12.1 ms over seeds 1-5), far past any bound.  A
    relabelling keeps each pair's value, so the golden file checks every
    run, while the solver's search order, and so its nodes and time, change.
    """
    draw = random.Random(f"solve-corpus/{DEFAULT_SEED}")
    shuffle = random.Random(f"solve-corpus/labels/{seed}")
    relabelled = seed != DEFAULT_SEED
    batches = []
    for batch in range(SOLVE_BATCHES):
        shapes = []
        for _ in range(SOLVE_ROUNDS):
            partners = draw.sample(SOLVE_SIZES, len(SOLVE_SIZES))
            for n, m in zip(SOLVE_SIZES, partners):
                shapes += [("random", n, m), ("near_scaled", n, n), ("hedgehog", n, n)]
        draw.shuffle(shapes)
        pairs = []
        for index, (family, n, m) in enumerate(shapes):
            rows = _PAIR_MAKERS[family](draw, n, m)
            labels = tuple(
                tuple(f"{side}{i}" for i in range(len(r)))
                for side, r in zip("xy", rows)
            )
            inputs = hashlib.sha256(
                "".join(map(_msp, labels, rows)).encode()
            ).hexdigest()[:16]
            if relabelled:
                rows = tuple(
                    _relabel(r, shuffle.sample(range(len(r)), len(r))) for r in rows
                )
            texts = tuple(map(_msp, labels, rows))
            pair_id = f"{batch}.{index}"
            pairs.append(Pair(pair_id, family, labels, rows, texts, inputs, relabelled))
        batches.append(pairs)
    return batches


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH) as f:
        return {entry["id"]: entry for entry in json.load(f)["pairs"]}


def _solve_pair(pair: Pair, golden: dict, lib, tally: Tally) -> None:
    """Parse both texts, solve, check the witness, and check the value (and
    at DEFAULT_SEED the lex-min witness) against the golden file."""
    x = lib.parse_space(pair.texts[0])
    y = lib.parse_space(pair.texts[1])
    for space, labels, rows in zip((x, y), pair.labels, pair.rows):
        expect(
            space.labels == labels and space.dist == rows and space.mode == STRICT,
            "parsed space differs from the generated one",
        )
    record = {"family": pair.family, "sizes": [len(x), len(y)]}
    record.update(nodes=None, value=None)
    tally.instances.setdefault(pair.id, record)
    try:
        result = lib.gh_exact(x, y)
    except TimeLimit:
        tally.add("solver.timeouts")
        raise
    nodes = result.nodes_explored
    tally.instances[pair.id] = dict(record, nodes=nodes, value=str(result.value))
    tally.add("solver.decided")
    tally.add("solver.nodes", nodes)
    tally.add(f"solver.nodes.{pair.family}", nodes)
    tally.peak("solver.nodes.max", nodes)
    tally.add("solver.lb_tight", int(result.lower_bound == result.value))
    expect(
        lib.distortion(result.witness) == 2 * result.value,
        f"witness distortion is not 2 * value {result.value}",
    )
    expect(result.lower_bound <= result.value, "lower bound above the value")
    entry = golden.get(pair.id)
    expect(
        entry is not None and entry["inputs"] == pair.inputs,
        "pair is not in the golden corpus",
    )
    if entry["value"] is not None:
        expect(str(result.value) == entry["value"], "value differs from golden")
        expect(
            pair.relabelled
            or [list(p) for p in result.witness.sorted_pairs()] == entry["witness"],
            "witness differs from golden",
        )


def solve_corpus(seed: int) -> Sweep:
    golden = load_golden()
    return [
        [
            Item(pair.id, pair.family, partial(_solve_pair, pair, golden))
            for pair in batch
        ]
        for batch in solve_corpus_pairs(seed)
    ]


# ---------------------------------------------------------------------------
# construct


def _space(rows: Rows, prefix: str) -> FiniteMetricSpace:
    labels = tuple(f"{prefix}{i}" for i in range(len(rows)))
    return FiniteMetricSpace(labels, rows, STRICT)


def _distortion(rows_x: Rows, rows_y: Rows, pairs) -> Fraction:
    return max(abs(rows_x[i][k] - rows_y[j][l]) for i, j in pairs for k, l in pairs)


def _gluing_tree(rng: random.Random, vertices: int = 6, points: int = 4) -> GluingTree:
    """Random tree of 4-point spaces; each edge a covering relation, dis > 0."""
    rows = [_sup_rows(_points(rng, points)) for _ in range(vertices)]
    edges = []
    for w in range(1, vertices):
        u = rng.randrange(w)
        while True:
            pairs = {(i, rng.randrange(points)) for i in range(points)}
            pairs.update((rng.randrange(points), j) for j in range(points))
            pairs.update(
                (i, j)
                for i in range(points)
                for j in range(points)
                if rng.random() < 0.25
            )
            if _distortion(rows[u], rows[w], pairs) > 0:
                break
        edges.append((u, w, frozenset(pairs)))
    spaces_ = tuple(_space(r, f"v{v}p") for v, r in enumerate(rows))
    return GluingTree(
        spaces_,
        tuple((u, w, Correspondence(spaces_[u], spaces_[w], p)) for u, w, p in edges),
    )


def _glue(tree: GluingTree, lib, tally: Tally) -> None:
    glued = lib.glue_tree(tree)
    carrier = glued.carrier
    expect(len(carrier) == sum(len(v) for v in tree.vertices), "carrier size")
    try:
        lib.validate(carrier.dist, STRICT, carrier.labels)
    except MetricValidationError as exc:
        raise WrongOutput(f"carrier is not a strict metric: {exc}") from None
    for u, v, rel in tree.edges:
        weight = lib.distortion(rel) / 2
        gap = lib.hausdorff(lib.part(glued, u), lib.part(glued, v))
        expect(gap == weight, f"edge ({u},{v}) realizes {gap}, weight {weight}")
    tally.add("gluing.carrier_points", len(carrier))


M_CENTER = Fraction(1, 4)


def _center_trial(rng: random.Random):
    """A dense hedgehog with needles 2 and 5/2, and a copy nudged by < M."""
    numerators = rng.sample(range(1, 25), 6)
    spec = HedgehogSpec.from_pairs(
        [(Fraction(k, 8), rng.randint(1, 2)) for k in numerators]
        + [(Fraction(2), 1), (Fraction(5, 2), 1)]
    )
    while True:
        moved = _perturbed(rng, spec.expanded(), M_CENTER)
        if moved != list(spec.expanded()):
            break
    other = HedgehogSpec.from_pairs((length, 1) for length in moved)
    rel = Correspondence(
        hedgehogs.compile_hedgehog(spec),
        hedgehogs.compile_hedgehog(other),
        frozenset((i, i) for i in range(spec.point_count)),
    )
    return spec, other, rel


def _locate_center(spec, other, rel, lib, tally: Tally) -> None:
    for hh in (spec, other):
        compiled = lib.compile_hedgehog(hh)
        expect(compiled.dist == _hedgehog_rows(hh.expanded()), "compiled hedgehog")
    report = lib.check_center_location(spec, other, rel, M_CENTER)
    expect(report.passed, "center location report did not pass")


def _needle_shift(cfg, m: int, lib, tally: Tally) -> None:
    embedding = lib.tuzhilin_isometry(cfg, m)
    expect(embedding.distance_preserving, f"m={m}: shift is not distance-preserving")
    expect(embedding.hausdorff_value == Fraction(1, m), f"m={m}: gap is not 1/m")
    tally.add("tuzhilin.ambient_points", len(embedding.ambient))


def _contraction_chain(rng: random.Random) -> tuple[ThreadChain, int]:
    """Halving copies of a 3-point space (diameter < 1), two successors per
    point; returns the chain and its thread count by dynamic programming."""
    base = _sup_rows(_points(rng, 3), denominator=120)
    spaces_ = tuple(
        _space(tuple(tuple(d / 2**n for d in row) for row in base), f"L{n}p")
        for n in range(1, CHAIN_DEPTH + 1)
    )
    links, counts = [], [1, 1, 1]
    for n in range(CHAIN_DEPTH - 1):
        pairs = frozenset((p, p) for p in range(3)) | frozenset(
            (p, (p + rng.randint(1, 2)) % 3) for p in range(3)
        )
        links.append(Correspondence(spaces_[n], spaces_[n + 1], pairs))
        nxt = [0, 0, 0]
        for i, j in pairs:
            nxt[j] += counts[i]
        counts = nxt
    chain = ThreadChain(spaces_, tuple(links))
    if not chain.budget_checked:
        raise RuntimeError("generated chain breaks the 1/2^n link budget")
    return chain, sum(counts)


def _limit(chain: ThreadChain, expected: int, lib, tally: Tally) -> None:
    result = lib.thread_limit(chain)
    count = len(result.threads)
    expect(count == expected, f"{count} threads, DP says {expected}")
    for layer, cert in enumerate(result.certificates, start=1):
        budget = Fraction(1, 2 ** (layer - 1))
        expect(cert <= budget, f"layer {layer}: certificate {cert} above {budget}")
    tally.add("dynamics.threads", count)


def construct(seed: int) -> Sweep:
    rng = random.Random(f"construct/{seed}")
    cfg = tuzhilin.TuzhilinConfig(TUZHILIN_N, TUZHILIN_K)
    passes = []
    for batch in range(CONSTRUCT_BATCHES):
        items = [
            Item(f"{batch}.tree{i}", "glue_tree", partial(_glue, _gluing_tree(rng)))
            for i in range(TREES_PER_PASS)
        ]
        items += [
            Item(
                f"{batch}.center{i}",
                "center_location",
                partial(_locate_center, *_center_trial(rng)),
            )
            for i in range(CENTER_TRIALS_PER_PASS)
        ]
        items += [
            Item(f"{batch}.tuzhilin{m}", "tuzhilin", partial(_needle_shift, cfg, m))
            for m in range(1, TUZHILIN_N + 1)
        ]
        chain = partial(_limit, *_contraction_chain(rng))
        items.append(Item(f"{batch}.chain", "thread_limit", chain))
        rng.shuffle(items)
        passes.append(items)
    return passes


# ---------------------------------------------------------------------------
# verify-suite


def _check(name: str, seed: int, lib, tally: Tally) -> None:
    result = lib.run_check[name](name, seed)
    if not result.passed:
        tally.add("verification.failed_checks")
    expect(result.passed, f"{name}: {result.witness}")


def verify_suite(seed: int) -> Sweep:
    """One pass per check seed: the suite at the workload seed, then at
    CHECK_SEEDS - 1 seeds further on.

    A check draws its instances from its seed, and over seeds 1-5
    diameter-identities alone took 0.27 to 1.44 reference seconds of a
    10-second suite; one check seed per run spread the suite's time by 0.105
    (interquartile range over median) over ten seeds.  Three check seeds,
    each a pass, averaged, make a run less hostage to one seed.
    """
    passes = []
    for k in range(CHECK_SEEDS):
        check_seed = seed + k * CHECK_SEED_STRIDE
        passes.append(
            [
                Item(f"{name}@{check_seed}", name, partial(_check, name, check_seed))
                for name in verification.suite_names("all")
            ]
        )
    return passes


WORKLOADS = {
    "solve-corpus": solve_corpus,
    "construct": construct,
    "verify-suite": verify_suite,
}
# Sweeps a timed run makes at least: enough that each item's median runs lie
# a sweep apart.  A verify-suite sweep, three suites, already takes a run.
MIN_SWEEPS = {"solve-corpus": 3, "construct": 3, "verify-suite": 1}
