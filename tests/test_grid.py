"""The integer grid behind every space against plain-Fraction references.

Each reference below is the textbook definition written on `Fraction`s, with
no grid anywhere, so the grid-based library must agree with it exactly on
spaces whose distances mix denominators.
"""

import copy
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghkit.correspondences import Correspondence, distortion
from ghkit.dynamics import ThreadChain, thread_limit
from ghkit.errors import (
    AsymmetricEntry,
    MetricValidationError,
    NegativeEntry,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from ghkit.generate import (
    perturbed_hedgehog,
    random_correspondence,
    random_metric_space,
    rng_from_seed,
)
from ghkit.gluing import GluingTree, glue_pair, glue_tree
from ghkit.hedgehogs import HedgehogSpec, check_center_location, compile_hedgehog
from ghkit.io import parse_space
from ghkit.spaces import (
    PSEUDO,
    STRICT,
    FiniteMetricSpace,
    SubsetRef,
    _grid,
    from_grid,
    hausdorff,
    one_point_space,
    restrict,
    scale,
    validate,
    validate_grid,
)
from ghkit.tuzhilin import TuzhilinConfig, tuzhilin_isometry, tuzhilin_spaces

DENOMINATORS = (1, 2, 3, 5, 7, 12)
examples = settings(max_examples=60, deadline=None)


@st.composite
def mixed_spaces(draw, min_points=1, max_points=8):
    """Sup distance on lattice points whose three axes have their own unit
    1/d, so one space mixes denominators."""
    n = draw(st.integers(min_points, max_points))
    units = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=3, max_size=3))
    points = draw(
        st.lists(
            st.tuples(*(st.integers(0, 12) for _ in range(3))),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    rows = tuple(
        tuple(max(F(abs(a - b), d) for a, b, d in zip(p, q, units)) for q in points)
        for p in points
    )
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), rows, STRICT)


def nonempty_subset(draw, n):
    return frozenset(
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    )


@st.composite
def correspondences(draw, x, y):
    n, m = len(x), len(y)
    pairs = {(i, draw(st.integers(0, m - 1))) for i in range(n)}
    pairs |= {(draw(st.integers(0, n - 1)), j) for j in range(m)}
    pairs |= set(
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    )
    return Correspondence(x, y, frozenset(pairs))


def assert_grid_exact(space: FiniteMetricSpace) -> None:
    denom, rows = space.grid
    assert isinstance(denom, int) and denom > 0
    assert all(type(v) is int for row in rows for v in row)
    assert space.dist == tuple(tuple(F(v, denom) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# plain-Fraction references


def reference_violations(rows, mode):
    n = len(rows)
    found = [NonzeroDiagonal(i) for i in range(n) if rows[i][i] != 0]
    found += [
        NegativeEntry(i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rows[i][j] < 0
    ]
    found += [
        AsymmetricEntry(i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rows[i][j] != rows[j][i]
    ]
    if mode == STRICT:
        found += [
            ZeroDistanceDistinctPoints(i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rows[i][j] == 0
        ]
    found += [
        TriangleViolation(i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if k not in (i, j) and rows[i][j] > rows[i][k] + rows[k][j]
    ]
    return found


def reference_hausdorff(dist, a, b):
    def directed(src, dst):
        return max(min(dist[i][j] for j in dst) for i in src)

    return max(directed(a, b), directed(b, a))


def reference_distortion(x, y, pairs):
    return max(
        abs(x.dist[i][k] - y.dist[j][l]) for i, j in pairs for k, l in pairs
    )


def reference_glued(tree, order):
    """Shortest paths over the disjoint union: each vertex metric, plus every
    edge's cross distances |xx'| + dis R / 2 + |y'y| at its best pair; rows
    and columns in `order`, a list of (vertex, local index)."""
    offsets, total = [], 0
    for space in tree.vertices:
        offsets.append(total)
        total += len(space)
    dist = [[None] * total for _ in range(total)]
    for v, space in enumerate(tree.vertices):
        for p in range(len(space)):
            for q in range(len(space)):
                dist[offsets[v] + p][offsets[v] + q] = space.dist[p][q]
    for u, w, rel in tree.edges:
        x, y = tree.vertices[u], tree.vertices[w]
        omega = reference_distortion(x, y, rel.pairs) / 2
        for p in range(len(x)):
            for q in range(len(y)):
                value = min(x.dist[p][i] + omega + y.dist[j][q] for i, j in rel.pairs)
                dist[offsets[u] + p][offsets[w] + q] = value
                dist[offsets[w] + q][offsets[u] + p] = value
    for k in range(total):
        for i in range(total):
            if dist[i][k] is None:
                continue
            for j in range(total):
                if dist[k][j] is None:
                    continue
                through = dist[i][k] + dist[k][j]
                if dist[i][j] is None or through < dist[i][j]:
                    dist[i][j] = through
    at = [offsets[v] + p for v, p in order]
    return tuple(tuple(dist[a][b] for b in at) for a in at)


def reference_needle_rows(points):
    placed = sorted(set(points))
    return tuple(
        tuple(abs(a - b) if na == nb else a + b for nb, b in placed)
        for na, a in placed
    )


# ---------------------------------------------------------------------------
# exactness against the references


@st.composite
def perturbed_matrices(draw):
    """A metric with up to four entries overwritten, some by plain ints."""
    space = draw(mixed_spaces())
    n = len(space)
    rows = [list(row) for row in space.dist]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(
            st.integers(-2, 12)
            | st.builds(F, st.integers(-3, 30), st.sampled_from(DENOMINATORS))
        )
    return rows, draw(st.sampled_from([STRICT, PSEUDO]))


@examples
@given(perturbed_matrices())
def test_validate_matches_reference(case):
    rows, mode = case
    expected = reference_violations([[F(v) for v in row] for row in rows], mode)
    try:
        space = validate(rows, mode)
    except MetricValidationError as exc:
        assert list(exc.violations) == expected
    else:
        assert expected == []
        assert space.dist == tuple(tuple(F(v) for v in row) for row in rows)
        assert_grid_exact(space)


@examples
@given(st.data())
def test_hausdorff_matches_reference(data):
    space = data.draw(mixed_spaces())
    a = nonempty_subset(data.draw, len(space))
    b = nonempty_subset(data.draw, len(space))
    value = hausdorff(SubsetRef(space, a), SubsetRef(space, b))
    assert type(value) is F
    assert value == reference_hausdorff(space.dist, a, b)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "kind",
    [
        "singletons",
        "singleton-set",
        "set-singleton",
        "equal",
        "random",
        "overlapping",
        "nested",
        "identical",
        "pseudo-random",
        "pseudo-overlapping",
        "pseudo-nested",
        "pseudo-identical",
    ],
)
def test_hausdorff_matches_reference_on_seeded_subsets(seed, kind):
    rng = rng_from_seed(seed)
    space = random_metric_space(rng, rng.randint(1, 9), denominator=12)
    if kind.startswith("pseudo-"):
        # every point copied one to three times, point 0 at least twice, so
        # distinct points sit at 0 from each other
        copies = [0] + [i for i in range(len(space)) for _ in range(rng.randint(1, 3))]
        rows = [[space.dist[i][j] for j in copies] for i in copies]
        space = validate(rows, PSEUDO)
        assert rows[0][1] == 0
        kind = kind.removeprefix("pseudo-")
    n = len(space)

    def one():
        return frozenset({rng.randrange(n)})

    def some():
        return frozenset(rng.sample(range(n), rng.randint(1, n)))

    a = one() if kind in ("singletons", "singleton-set") else some()
    if kind == "equal":
        b = a
    elif kind == "identical":
        b = frozenset(sorted(a))  # equal, but another object
    elif kind == "overlapping":
        b = some() | {rng.choice(sorted(a))}
    elif kind == "nested":
        b = a | some()
    else:
        b = one() if kind in ("singletons", "set-singleton") else some()
    value = hausdorff(SubsetRef(space, a), SubsetRef(space, b))
    assert value == reference_hausdorff(space.dist, a, b)
    assert value == hausdorff(SubsetRef(space, b), SubsetRef(space, a))
    if kind in ("equal", "identical"):
        assert value == 0


@examples
@given(st.data())
def test_distortion_matches_reference(data):
    x = data.draw(mixed_spaces())
    y = data.draw(mixed_spaces())
    rel = data.draw(correspondences(x, y))
    value = distortion(rel)
    assert type(value) is F
    assert value == reference_distortion(x, y, rel.pairs)


@st.composite
def gluing_trees(draw):
    count = draw(st.integers(1, 4))
    vertices = tuple(draw(mixed_spaces(max_points=4)) for _ in range(count))
    edges = []
    for w in range(1, count):
        u = draw(st.integers(0, w - 1))
        rel = draw(correspondences(vertices[u], vertices[w]))
        assume(reference_distortion(vertices[u], vertices[w], rel.pairs) > 0)
        # some edges listed child-first, so the walk must turn their pairs round
        if draw(st.booleans()):
            flipped = frozenset((j, i) for i, j in rel.pairs)
            edges.append((w, u, Correspondence(rel.right, rel.left, flipped)))
        else:
            edges.append((u, w, rel))
    return GluingTree(vertices, tuple(draw(st.permutations(edges))))


@examples
@given(gluing_trees())
def test_glue_tree_carrier_matches_reference(tree):
    glued = glue_tree(tree)
    assert glued.carrier.dist == reference_glued(tree, glued.provenance)
    assert_grid_exact(glued.carrier)
    for e, (u, w, rel) in enumerate(tree.edges):
        x, y = tree.vertices[u], tree.vertices[w]
        assert tree.weight(e) == reference_distortion(x, y, rel.pairs) / 2



def deep_gluing_tree(seed, shape):
    """A seeded path- or star-shaped tree of 6-8 vertices with 2-6 points each,
    on mixed denominators.  The shape is laid over a shuffled vertex order, so
    vertex 0 may sit inside the path or at a leaf of the star, and some edges
    are listed child-first."""
    rng = rng_from_seed(seed)
    count = rng.randint(6, 8)
    vertices = tuple(
        random_metric_space(
            rng,
            rng.randint(2, 6),
            denominator=rng.choice(DENOMINATORS),
            coord_max=12,
            label_prefix=f"v{v}p",
        )
        for v in range(count)
    )
    order = rng.sample(range(count), count)
    if shape == "path":
        links = list(zip(order, order[1:]))
    else:
        links = [(order[0], w) for w in order[1:]]
    edges = []
    for u, w in links:
        if rng.random() < 0.5:
            u, w = w, u
        edges.append((u, w, random_correspondence(rng, vertices[u], vertices[w])))
    return GluingTree(vertices, tuple(edges))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", ["path", "star"])
def test_glue_tree_matches_reference_through_many_vertices(shape, seed):
    # distances between far vertices run through up to six edges here,
    # which the small drawn trees above never reach
    tree = deep_gluing_tree(seed, shape)
    glued = glue_tree(tree)
    assert glued.carrier.dist == reference_glued(tree, glued.provenance)
    assert_grid_exact(glued.carrier)


@st.composite
def tuzhilin_configs(draw):
    n = draw(st.integers(2, 6))
    return TuzhilinConfig(n, draw(st.integers(n, n + 6)))


def tuzhilin_points(cfg):
    """Both spaces' points as (needle, coordinate): needle v holds 1 + 1/k,
    k = 1..v; the long needle, 1 + 1/k for k = 1..cfg.k and the limit 1."""
    finite = [
        (str(v), 1 + F(1, k)) for v in range(1, cfg.n + 1) for k in range(1, v + 1)
    ]
    extra = [(str(cfg.n + 1), 1 + F(1, k)) for k in range(1, cfg.n + 2)]
    long = [("inf", 1 + F(1, k)) for k in range(1, cfg.k + 1)] + [("inf", F(1))]
    return finite + extra, finite + long


@examples
@given(tuzhilin_configs())
def test_tuzhilin_spaces_match_reference(cfg):
    for space, points in zip(tuzhilin_spaces(cfg), tuzhilin_points(cfg)):
        assert space.dist == reference_needle_rows(points)
        assert space.labels == tuple(f"{v}:{c}" for v, c in sorted(set(points)))
        assert_grid_exact(space)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_needle_shift_across_grid_denominators(n):
    # with k = n the first space's extra needle n + 1 puts the ambient space
    # on a finer grid than the second space
    cfg = TuzhilinConfig(n, n)
    second = tuzhilin_spaces(cfg)[1]
    for m in range(1, n + 1):
        embedding = tuzhilin_isometry(cfg, m)
        assert embedding.ambient.grid[0] != second.grid[0]
        assert embedding.distance_preserving
        assert embedding.hausdorff_value == F(1, m)


# ---------------------------------------------------------------------------
# the invariant on every kind of space, and identity untouched by the cache


@examples
@given(mixed_spaces(), st.builds(F, st.integers(1, 20), st.sampled_from(DENOMINATORS)))
def test_grid_invariant_on_validated_and_scaled(space, factor):
    validated = validate(space.dist, STRICT, space.labels)
    assert_grid_exact(validated)
    assert_grid_exact(scale(validated, factor))
    assert_grid_exact(space)  # computed on first read


@examples
@given(mixed_spaces())
def test_equality_and_hash_ignore_the_cached_grid(space):
    twin = FiniteMetricSpace(space.labels, space.dist, space.mode)
    before = hash(space)
    space.grid
    assert hash(space) == before == hash(twin)
    assert space == twin and twin == space
    validated = validate(space.dist, STRICT, space.labels)
    assert validated == twin and hash(validated) == before


def test_glued_space_lookups():
    x = validate([[0, 1], [1, 0]])
    y = validate([[0, F(5, 2)], [F(5, 2), 0]])
    glued = glue_tree(
        GluingTree((x, y), ((0, 1, Correspondence(x, y, frozenset({(0, 0), (1, 1)}))),))
    )
    assert [glued.locate(1, p) for p in range(2)] == [2, 3]
    assert glued.part(0).indices == frozenset({0, 1})
    with pytest.raises(ValueError):
        glued.locate(1, 2)
    with pytest.raises(ValueError):
        glued.locate(2, 0)
    with pytest.raises(ValueError):
        glued.part(2)


# ---------------------------------------------------------------------------
# the grid is the space: from_grid keeps no Fraction, equality reads the grid


def _derived_spaces():
    hedgehog = compile_hedgehog(HedgehogSpec.of(F(3, 4), F(5, 4), 2, 3))
    x = validate([[0, 1], [1, 0]])
    y = validate([[0, 3], [3, 0]])
    # dis R = 2, so the weight 1 keeps the carrier on its spaces' grid L = 1
    glued = glue_pair(x, y, Correspondence(x, y, frozenset({(0, 0), (1, 1)})))
    base = validate([[0, 1, F(1, 2)], [1, 0, F(3, 4)], [F(1, 2), F(3, 4), 0]])
    layers = tuple(scale(base, F(1, 2**n)) for n in range(1, 5))
    links = tuple(
        Correspondence(a, b, frozenset((p, p) for p in range(3)))
        for a, b in zip(layers, layers[1:])
    )
    return {
        "hedgehog": hedgehog,
        "scaled hedgehog": scale(hedgehog, F(4, 3)),
        "scaled by its denominator": scale(base, 4),
        "glued carrier": glued.carrier,
        "two needles at 3/2": from_grid(("a:3/2", "b:3/2"), 2, ((0, 6), (6, 0))),
        "thread limit": thread_limit(ThreadChain(layers, links)).approx,
    }


@pytest.mark.parametrize("kind", sorted(_derived_spaces()))
def test_grid_built_spaces_equal_their_fraction_twins(kind):
    space = _derived_spaces()[kind]
    assert "dist" not in vars(space)
    assert space.grid == _grid(space.dist)  # canonical
    twin = FiniteMetricSpace(space.labels, space.dist, space.mode)
    assert space == twin and twin == space
    assert hash(space) == hash(twin)
    assert space != scale(space, 2)


def test_two_needles_at_three_halves_reduce_to_integers():
    space = from_grid(("a:3/2", "b:3/2"), 2, ((0, 6), (6, 0)))
    assert space.grid == (1, ((0, 3), (3, 0)))


@examples
@given(mixed_spaces(), st.integers(2, 6))
def test_from_grid_reduces_an_unreduced_grid(space, k):
    denom, rows = space.grid
    spread = tuple(tuple(k * value for value in row) for row in rows)
    unreduced = from_grid(space.labels, k * denom, spread, space.mode)
    assert unreduced.grid == _grid(unreduced.dist) == space.grid
    assert unreduced == space and hash(unreduced) == hash(space)


@pytest.mark.parametrize(
    "denom, rows",
    [
        # the common factor with 12 is 12 until row 3's last entry brings it to 1
        (12, ((0, 12, 12, 12, 12), (12, 0, 12, 12, 12), (12, 12, 0, 12, 12),
              (12, 12, 12, 0, 1), (12, 12, 12, 1, 0))),
        # 12 after row 0, 4 after row 1, and 4 divides the whole grid
        (24, ((0, 12, 12), (12, 0, 8), (12, 8, 0))),
        # every entry and the denominator share 6 from the first row on
        (18, ((0, 6, 12), (6, 0, 12), (12, 12, 0))),
    ],
)
def test_from_grid_reduces_by_the_gcd_of_every_entry(denom, rows):
    space = from_grid(tuple("abcde"[: len(rows)]), denom, rows)
    common = math.gcd(denom, *(value for row in rows for value in row))
    reduced = tuple(tuple(value // common for value in row) for row in rows)
    assert space.grid == (denom // common, reduced) == _grid(space.dist)
    validate(space.dist)  # each case is a metric


@pytest.mark.parametrize(
    "labels, rows, mode, message",
    [
        (("a", "b"), ((0, 1),), STRICT, "shape does not match"),
        (("a", "b"), ((0, 1), (1,)), STRICT, "shape does not match"),
        (("a", "a"), ((0, 1), (1, 0)), STRICT, "labels must be distinct"),
        ((), (), STRICT, "at least one point"),
        (("a",), ((0,),), "fuzzy", "unknown mode"),
    ],
)
def test_both_constructors_check_the_shape(labels, rows, mode, message):
    with pytest.raises(ValueError, match=message):
        from_grid(labels, 1, rows, mode)
    with pytest.raises(ValueError, match=message):
        FiniteMetricSpace(labels, tuple(tuple(map(F, row)) for row in rows), mode)


@pytest.mark.parametrize(
    "rows",
    [((0, 2), (2, 0)), [[0, 2], [2, 0]], [[F(0), 2], (F(2), 0)]],
    ids=["int tuples", "int lists", "mixed"],
)
def test_constructor_stores_fraction_tuples(rows):
    space = FiniteMetricSpace(("a", "b"), rows)
    assert type(space.dist) is tuple
    assert all(type(row) is tuple for row in space.dist)
    assert all(type(value) is F for row in space.dist for value in row)
    twin = from_grid(("a", "b"), 1, ((0, 2), (2, 0)))
    assert repr(space) == repr(twin)
    assert space == twin and hash(space) == hash(twin)
    if isinstance(rows, list):
        rows[0][1] = 9  # the caller's rows are copied, not kept
        assert space.dist[0][1] == 2 and space.grid == twin.grid


def test_constructor_refuses_float_rows():
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        FiniteMetricSpace(("a", "b"), ((0.0, 2.0), (2.0, 0.0)))


@pytest.mark.parametrize("name", ["labels", "mode", "grid", "dist", "other"])
def test_spaces_are_immutable(name):
    built = from_grid(("a", "b"), 2, ((0, 1), (1, 0)))
    for space in (built, validate([[0, 1], [1, 0]])):
        with pytest.raises(AttributeError):
            setattr(space, name, None)
        with pytest.raises(AttributeError):
            delattr(space, name)
        assert space.grid[1] == ((0, 1), (1, 0))


def test_copies_are_equal_spaces():
    space = from_grid(("a", "b", "c"), 4, ((0, 1, 3), (1, 0, 2), (3, 2, 0)))
    for twin in (copy.copy(space), copy.deepcopy(space)):
        assert twin == space and hash(twin) == hash(space)
        assert "dist" not in vars(twin)
    space.dist
    for twin in (copy.copy(space), copy.deepcopy(space)):
        assert twin == space and twin.dist == space.dist


def test_center_location_builds_no_fraction_matrix_for_its_carrier():
    spec = HedgehogSpec.of(F(3, 4), F(5, 4), 2, 3)
    m = F(1, 4)
    other, rel = perturbed_hedgehog(rng_from_seed(41), spec, m)
    report = check_center_location(spec, other, rel, m)
    assert report.passed
    assert "dist" not in vars(report.glued.carrier)


# ---------------------------------------------------------------------------
# one door: every builder ends in from_grid, which freezes, checks and reduces


def _built_spaces():
    """One space from each way a space is built, given lists and unreduced
    grids wherever the builder takes them."""
    base = validate([[0, 1, F(1, 2)], [1, 0, F(3, 4)], [F(1, 2), F(3, 4), 0]])
    layers = (scale(base, F(1, 2)), scale(base, F(1, 4)))
    fan = frozenset({(0, 0), (0, 1), (1, 1), (2, 2)})
    limit = thread_limit(ThreadChain(layers, (Correspondence(*layers, fan),)))
    x, y = validate([[0, 2], [2, 0]]), validate([[0, 4], [4, 0]])
    edge = (0, 1, Correspondence(x, y, frozenset({(0, 0), (1, 1)})))
    first, second = tuzhilin_spaces(TuzhilinConfig(3, 4))
    return {
        "FiniteMetricSpace": FiniteMetricSpace(
            ["a", "b"], [[0, F(2, 4)], [F(1, 2), 0]]
        ),
        "validate": validate([[0, 2], [2, 0]], labels=["a", "b"]),
        "parse_space": parse_space("points 2 strict\na b\n0 2/4\n1/2 0\n"),
        "from_grid": from_grid(["a", "b"], 4, [[0, 2], [2, 0]]),
        "restrict": restrict(scale(base, 4), [2, 0], ["c", "a"]),
        "scale": scale(base, F(4, 6)),
        "one_point_space": one_point_space(),
        "compile_hedgehog": compile_hedgehog(HedgehogSpec.of(F(3, 4), F(5, 4), 2, 3)),
        "glue_tree carrier": glue_tree(GluingTree((x, y), (edge,))).carrier,
        "random_metric_space": random_metric_space(rng_from_seed(7), 5),
        "tuzhilin_spaces first": first,
        "tuzhilin_spaces second": second,
        "thread_space": limit.thread_space(),
        "thread limit approx": limit.approx,
    }


@pytest.mark.parametrize("kind", sorted(_built_spaces()))
def test_every_builder_gives_frozen_labels_and_a_reduced_grid(kind):
    space = _built_spaces()[kind]
    denom, rows = space.grid
    assert type(space.labels) is tuple
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert math.gcd(denom, *(value for row in rows for value in row)) == 1


def _rows(seq, rows):
    return seq([seq(row) for row in rows])


_TWIN_BUILDERS = {
    "FiniteMetricSpace": lambda seq: FiniteMetricSpace(
        seq("ab"), _rows(seq, [[0, F(1, 2)], [F(1, 2), 0]])
    ),
    "validate": lambda seq: validate(_rows(seq, [[0, 2], [2, 0]]), labels=seq("ab")),
    "from_grid": lambda seq: from_grid(seq("ab"), 4, _rows(seq, [[0, 2], [2, 0]])),
    "restrict": lambda seq: restrict(
        validate([[0, 1, 2], [1, 0, 3], [2, 3, 0]]), seq([2, 0]), seq("ca")
    ),
    "validate_grid": lambda seq: validate_grid(
        seq("ab"),
        (2, _rows(seq, [[0, 1], [1, 0]])),
        _rows(seq, [[0, F(1, 2)], [F(1, 2), 0]]),
    ),
}


@pytest.mark.parametrize("kind", sorted(_TWIN_BUILDERS))
def test_list_built_spaces_equal_and_hash_like_their_tuple_twins(kind):
    space, twin = _TWIN_BUILDERS[kind](tuple), _TWIN_BUILDERS[kind](list)
    assert type(twin.labels) is tuple and type(twin.grid[1]) is tuple
    assert all(type(row) is tuple for row in twin.grid[1])
    assert twin == space and space == twin
    assert hash(twin) == hash(space)


def test_from_grid_reads_one_shot_labels_once_and_keeps_tuple_rows():
    rows = ((0, 1), (1, 0))
    space = from_grid(("a", "b"), 1, rows)
    assert all(kept is given for kept, given in zip(space.grid[1], rows))
    once = from_grid((c for c in "ab"), 1, [[0, 1], [1, 0]])
    assert once == space and hash(once) == hash(space)
