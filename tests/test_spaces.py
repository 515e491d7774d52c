import ast
import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit import spaces
from ghkit.errors import (
    AsymmetricEntry,
    DifferentAmbientSpaces,
    MetricValidationError,
    NegativeEntry,
    NonpositiveScale,
    NonzeroDiagonal,
    TooLarge,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from ghkit.generate import (
    dense_hedgehog_spec,
    grid_hedgehog,
    random_metric_space,
    rng_from_seed,
)
from ghkit.gluing import GluingTree
from ghkit.hedgehogs import HedgehogSpec, compile_hedgehog
from ghkit.io import dump_space, parse_space
from ghkit.spaces import (
    PSEUDO,
    STRICT,
    diameter,
    hausdorff,
    one_point_space,
    scale,
    subset,
    validate,
    whole,
)
from ghkit.tuzhilin import TuzhilinConfig, needle_set_hausdorff

from conftest import positive_fractions, sup_metric_spaces


def test_validate_smallest_nondegenerate_space():
    space = validate([[0, 1], [1, 0]])
    assert len(space) == 2
    assert space.d(0, 1) == 1


def test_space_is_a_frozen_dataclass_over_its_grid():
    space = validate([[0, F(1, 2)], [F(1, 2), 0]])
    twin = spaces.from_grid(("0", "1"), 2, ((0, 1), (1, 0)))
    assert is_dataclass(space)
    assert [field.name for field in fields(space)] == ["labels", "mode", "grid"]
    assert space == twin and hash(space) == hash((space.labels, STRICT, twin.grid))
    assert space.__eq__(space.grid) is NotImplemented
    assert space != validate([[0, F(1, 2)], [F(1, 2), 0]], PSEUDO)
    with pytest.raises(FrozenInstanceError, match="assign to field 'labels'"):
        space.labels = ("a", "b")
    with pytest.raises(FrozenInstanceError, match="assign to field 'dist'"):
        twin.dist = space.dist
    with pytest.raises(FrozenInstanceError, match="delete field 'mode'"):
        del space.mode
    assert "dist" not in vars(twin) and twin.dist == space.dist


@pytest.mark.parametrize("labels", [["a", "b"], ("a", "b")], ids=["list", "tuple"])
def test_a_space_keeps_its_labels_as_a_tuple(labels):
    space = spaces.FiniteMetricSpace(labels, [[0, 1], [1, 0]])
    assert type(space.labels) is tuple and space.labels == ("a", "b")
    assert parse_space(dump_space(space)) == space
    twin = validate([[0, 1], [1, 0]], labels=("a", "b"))
    assert hash(space) == hash(twin) and space in {twin}


@pytest.mark.parametrize(
    "matrix",
    [
        [[0, 3, F(1, 2)], [3, 0, F(5, 2)], [F(1, 2), F(5, 2), 0]],
        [[F(0), F(7, 3)], [F(7, 3), F(0)]],
    ],
    ids=["int-and-fraction", "fraction"],
)
def test_a_space_keeps_only_its_grid_until_dist_is_read(matrix):
    labels = tuple("pqr"[: len(matrix)])
    expected = tuple(tuple(F(value) for value in row) for row in matrix)
    parsed = parse_space(dump_space(spaces.from_grid(labels, *spaces._grid(expected))))
    for space in (
        validate(matrix, labels=labels),
        spaces.FiniteMetricSpace(labels, matrix),
    ):
        assert "dist" not in vars(space)
        assert space == parsed and hash(space) == hash(parsed)
        assert repr(space) == (
            f"FiniteMetricSpace(labels={labels!r}, dist={expected!r}, mode='strict')"
        )
        assert "dist" in vars(space) and space.dist == expected


def test_one_point_space_is_its_grid():
    point = one_point_space()
    assert "dist" not in vars(point)
    assert point == validate([[0]], labels=["pt"])
    assert point.grid == (1, ((0,),)) and point.dist == ((0,),)


def test_validate_reports_triangle_violation():
    with pytest.raises(MetricValidationError) as excinfo:
        validate([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert TriangleViolation(0, 2, 1) in excinfo.value.violations


def test_validate_hedgehog_matrix(hedgehog_12_matrix):
    space = validate(hedgehog_12_matrix)
    assert space.d(1, 2) == space.d(0, 1) + space.d(0, 2)  # intrinsic equality


def test_validate_collects_all_violations():
    with pytest.raises(MetricValidationError) as excinfo:
        validate([[1, 2], [1, 0]])
    violations = excinfo.value.violations
    assert NonzeroDiagonal(0) in violations
    assert AsymmetricEntry(0, 1) in violations


def test_validate_negative_entry():
    with pytest.raises(MetricValidationError) as excinfo:
        validate([[0, -1], [-1, 0]])
    assert any(isinstance(v, NegativeEntry) for v in excinfo.value.violations)


def test_validate_zero_distance_mode_dependent():
    matrix = [[0, 0], [0, 0]]
    with pytest.raises(MetricValidationError) as excinfo:
        validate(matrix, STRICT)
    assert ZeroDistanceDistinctPoints(0, 1) in excinfo.value.violations
    assert validate(matrix, PSEUDO).mode == PSEUDO


def test_validate_rejects_nonsquare():
    with pytest.raises(ValueError):
        validate([[0, 1]])


def test_diameter_one_point_and_hedgehog(hedgehog_12_matrix):
    assert diameter(one_point_space()) == 0
    assert diameter(validate(hedgehog_12_matrix)) == 3


def _seeded_spaces():
    """Strict spaces with and without a cached grid, pseudo spaces with a
    repeated point, and a one-point space."""
    from ghkit.generate import random_metric_space, rng_from_seed

    rng = rng_from_seed(12)
    spaces = [one_point_space(), validate([[0]], mode=PSEUDO)]
    for n, denominator in ((2, 1), (5, 6), (9, 7), (16, 60)):
        space = random_metric_space(rng, n, denominator=denominator)
        rows = [list(row) + [row[0]] for row in space.dist]
        rows.append(rows[0][:-1] + [F(0)])  # the last point repeats the first
        spaces += [
            space,
            validate([[value / 3 for value in row] for row in space.dist]),
            validate(rows, mode=PSEUDO),
        ]
    return spaces


@pytest.mark.parametrize("space", _seeded_spaces())
def test_diameter_equals_the_largest_fraction_entry(space):
    assert diameter(space) == max(max(row) for row in space.dist)


@given(sup_metric_spaces(), positive_fractions)
def test_scale_diameter_and_inverse(space, lam):
    scaled = scale(space, lam)
    assert diameter(scaled) == lam * diameter(space)
    assert scale(scaled, 1 / lam) == space


def test_scale_identity_and_errors(two_point):
    space = two_point(5)
    assert scale(space, 1) == space
    with pytest.raises(NonpositiveScale):
        scale(space, 0)
    with pytest.raises(NonpositiveScale):
        scale(space, F(-1, 2))


@given(sup_metric_spaces(), positive_fractions, positive_fractions)
def test_scale_group_action(space, lam, mu):
    assert scale(space, lam * mu) == scale(scale(space, mu), lam)


@given(sup_metric_spaces(), positive_fractions)
def test_scale_output_passes_validation(space, lam):
    scaled = scale(space, lam)
    assert validate(scaled.dist, scaled.mode, scaled.labels) == scaled


def test_hausdorff_identical_subsets(two_point):
    space = two_point(3)
    assert hausdorff(whole(space), whole(space)) == 0


def test_hausdorff_point_versus_pair():
    space = validate([[0, 5], [5, 0]])
    a = subset(space, [0])
    b = subset(space, [0, 1])
    assert hausdorff(a, b) == 5


def test_hausdorff_requires_same_space(two_point):
    with pytest.raises(DifferentAmbientSpaces):
        hausdorff(whole(two_point(1)), whole(two_point(2)))


@given(sup_metric_spaces(min_points=2, max_points=5))
def test_hausdorff_zero_iff_equal_subsets(space):
    n = len(space)
    a = subset(space, range(n))
    b = subset(space, range(1, n)) if n > 1 else a
    assert hausdorff(a, a) == 0
    if a.indices != b.indices:
        assert hausdorff(a, b) > 0


@given(sup_metric_spaces(min_points=3, max_points=5), st.data())
def test_hausdorff_triangle_inequality(space, data):
    n = len(space)
    pick = st.sets(st.integers(0, n - 1), min_size=1)
    a = subset(space, data.draw(pick))
    b = subset(space, data.draw(pick))
    c = subset(space, data.draw(pick))
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c)


def test_subset_validation(two_point):
    space = two_point(1)
    with pytest.raises(ValueError):
        subset(space, [])
    with pytest.raises(ValueError):
        subset(space, [5])
    with pytest.raises(ValueError, match="^subset index out of range$"):
        subset(space, [0, -1])


# ---------------------------------------------------------------------------
# one point cap for every dense layout


_SEVEN = random_metric_space(rng_from_seed(3), 7)

# entry point -> (message opening, points it asks for, the call)
CAPPED = {
    "random_metric_space": (
        "space has",
        7,
        lambda: random_metric_space(rng_from_seed(1), 7),
    ),
    "grid_hedgehog": ("hedgehog has", 7, lambda: grid_hedgehog(1, 6)),
    "dense_hedgehog_spec": (
        "hedgehog may have",
        7,
        lambda: dense_hedgehog_spec(rng_from_seed(1), 3, 1),
    ),
    "GluingTree": ("gluing tree has", 7, lambda: GluingTree((_SEVEN,), ())),
    "compile_hedgehog": (
        "hedgehog has",
        7,
        lambda: compile_hedgehog(HedgehogSpec.of(1, 2, 3, 4, 5, 6)),
    ),
    "TuzhilinConfig": ("Tuzhilin spaces have", 12, lambda: TuzhilinConfig(2, 2)),
    "needle_set_hausdorff": ("needle line has", 7, lambda: needle_set_hausdorff(7, 1)),
    "parse_space": (
        "space file <string> has",
        7,
        lambda: parse_space(dump_space(_SEVEN)),
    ),
}


@pytest.mark.parametrize("entry", sorted(CAPPED))
def test_every_dense_builder_reads_the_one_point_cap(monkeypatch, entry):
    what, points, call = CAPPED[entry]
    monkeypatch.setattr(spaces, "POINT_CAP", points)
    call()  # exactly at the cap
    monkeypatch.setattr(spaces, "POINT_CAP", points - 1)
    with pytest.raises(TooLarge) as caught:
        call()  # one point over it
    assert str(caught.value) == f"{what} {points} points, cap is {points - 1}"


# ---------------------------------------------------------------------------
# the axiom check against a plain listing of every violation

# tops on both sides of the 1-2 and 2-3 byte field boundaries, and one above
# 2^64
_WIDTH_TOPS = (63, 64, 16383, 16384, 2**64 + 5)


def _triple_loop_violations(g, mode):
    """Reference: every violation of the grid rows, kind by kind, listed by
    plain loops over every pair and every third point."""
    n = len(g)
    found = [NonzeroDiagonal(i) for i in range(n) if g[i][i] != 0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found += [
        NegativeEntry(i, j)
        for i in range(n)
        for j in range(n)
        if i != j and g[i][j] < 0
    ]
    found += [AsymmetricEntry(i, j) for i, j in pairs if g[i][j] != g[j][i]]
    if mode == STRICT:
        found += [ZeroDistanceDistinctPoints(i, j) for i, j in pairs if g[i][j] == 0]
    found += [
        TriangleViolation(i, j, k)
        for i, j in pairs
        for k in range(n)
        if k != i and k != j and g[i][j] > g[i][k] + g[k][j]
    ]
    return tuple(found)


def _half_range_grid(rng, n, top):
    """Every distance in [top/2, top], `top` itself between points 0 and 1:
    every triangle holds."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint((top + 1) // 2, top)
    if n > 1:
        g[0][1] = g[1][0] = top
    return g


def _line_grid(rng, n, top):
    """Distinct points of the line 0..top, the ends 0 and top among them, in
    shuffled order, and the sorted order: d(i, j) = d(i, k) + d(k, j) for
    every k between i and j."""
    coords = sorted({0, top, *(rng.randint(1, top - 1) for _ in range(n - 2))})
    order = list(range(len(coords)))
    rng.shuffle(order)
    at = [coords[p] for p in order]
    g = [[abs(a - b) for b in at] for a in at]
    return g, sorted(range(len(at)), key=at.__getitem__)


def _plant(kind, g, rng):
    """One violation of `kind` at random points of the grid."""
    n = len(g)
    i, j = rng.sample(range(n), 2)
    if kind == "diagonal":
        g[i][i] = rng.choice([1, g[i][j]])
    elif kind == "negative":
        g[i][j] = g[j][i] = -rng.randint(1, g[i][j])
    elif kind == "asymmetric":
        g[i][j] += 1
    elif kind == "zero":
        g[i][j] = g[j][i] = 0
    else:
        k = rng.choice([k for k in range(n) if k != i and k != j])
        g[i][j] = g[j][i] = g[i][k] + g[k][j] + 1


_KINDS = ("diagonal", "negative", "asymmetric", "zero", "triangle")


def _axiom_grids():
    rng = rng_from_seed(29)
    cases = [
        ([[0]], "1pt"),
        ([[5]], "1pt-diagonal"),
        ([[-3]], "1pt-negative-diagonal"),
    ]
    for top, name in zip(_WIDTH_TOPS, ("63", "64", "16383", "16384", "2^64+5")):
        for n in (2, 5, 40):
            cases.append((_half_range_grid(rng, n, top), f"valid-{n}pt-top{name}"))
        for kind in _KINDS:
            g = _half_range_grid(rng, 9, top)
            _plant(kind, g, rng)
            cases.append((g, f"{kind}-9pt-top{name}"))
        g = _half_range_grid(rng, 23, top)
        for kind in rng.sample(_KINDS, 3) + ["triangle"]:
            _plant(kind, g, rng)
        cases.append((g, f"several-23pt-top{name}"))
        g = _half_range_grid(rng, 6, top)
        g[2][2] = -1  # a negative diagonal: no pair's detour through it counts
        cases.append((g, f"negative-diagonal-6pt-top{name}"))
        g, ranked = _line_grid(rng, 12, top)
        cases.append(([row[:] for row in g], f"line-tight-top{name}"))
        a, c = ranked[3], ranked[5]  # ranked[4] lies between them
        g[a][c] = g[c][a] = g[a][c] + 1
        cases.append((g, f"line-one-over-top{name}"))
    g = _half_range_grid(rng, 30, 40)
    g[3][17] = g[17][3] = -(2**70)
    cases.append((g, "negative-below-2^70"))
    # every entry negative: the offset c outgrows every offset entry
    cases.append(([[-129] * 3 for _ in range(3)], "all-negative"))
    # two nonzero diagonal entries and as many zeros off it as the diagonal lost
    g = _half_range_grid(rng, 7, 64)
    g[1][1] = g[4][4] = 5
    g[2][5] = g[5][2] = 0
    cases.append((g, "zero-and-diagonal"))
    g = _half_range_grid(rng, 7, 64)
    g[1][4] = 0  # a zero above the diagonal only
    cases.append((g, "one-sided-zero"))
    return [pytest.param(tuple(map(tuple, g)), id=name) for g, name in cases]


@pytest.mark.parametrize("mode", [STRICT, PSEUDO])
@pytest.mark.parametrize("grid", _axiom_grids())
def test_axiom_check_lists_what_plain_loops_list(grid, mode):
    expected = _triple_loop_violations(grid, mode)
    if not expected:
        spaces._check_axioms(grid, mode)
        return
    with pytest.raises(MetricValidationError) as caught:
        spaces._check_axioms(grid, mode)
    assert caught.value.violations == expected


@pytest.mark.parametrize("mode", [STRICT, PSEUDO])
@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param([[0]], id="1pt"),
        pytest.param([[5]], id="1pt-diagonal"),
        pytest.param([[-3]], id="1pt-negative-diagonal"),
        pytest.param([[0, 1], [1, 0]], id="2pt"),
        pytest.param([[1, 2], [2, 0]], id="2pt-diagonal"),
        pytest.param([[0, -1], [-1, 0]], id="2pt-negative"),
        pytest.param([[0, 1], [2, 0]], id="2pt-asymmetric"),
        pytest.param([[0, 0], [0, 0]], id="2pt-zero"),
        pytest.param([[4, -2], [3, 0]], id="2pt-several"),
    ],
)
def test_grids_below_three_points_pack_nothing(monkeypatch, matrix, mode):
    def no_packing(*args):
        raise AssertionError("a grid with no third point has no triangle to pack")

    monkeypatch.setattr(spaces, "pack_rows", no_packing)
    expected = _triple_loop_violations(matrix, mode)
    if not expected:
        validate(matrix, mode)
        return
    with pytest.raises(MetricValidationError) as caught:
        validate(matrix, mode)
    assert caught.value.violations == expected


def test_planted_triangle_violations_at_both_ends_of_a_row(tmp_path, capsys):
    from ghkit.cli import main

    n, r = 200, 100
    space = random_metric_space(rng_from_seed(7), n)
    matrix = [list(row) for row in space.dist]
    for j in (0, n - 1):
        detour = min(matrix[r][k] + matrix[k][j] for k in range(n) if k not in (r, j))
        matrix[r][j] = matrix[j][r] = detour + F(1, 6)
    # the space was metric, so only the two raised pairs can break a triangle
    expected = tuple(
        TriangleViolation(i, j, k)
        for i, j in ((0, r), (r, n - 1))
        for k in range(n)
        if k != i and k != j and matrix[i][j] > matrix[i][k] + matrix[k][j]
    )
    assert {(v.i, v.j) for v in expected} == {(0, r), (r, n - 1)}
    message = "; ".join(map(str, expected))
    with pytest.raises(MetricValidationError) as validated:
        validate(matrix, labels=space.labels)
    text = f"points {n} strict\n{' '.join(space.labels)}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in matrix
    )
    with pytest.raises(MetricValidationError) as parsed:
        parse_space(text)
    for caught in (validated, parsed):
        assert caught.value.violations == expected
        assert str(caught.value) == message
    path = tmp_path / "planted.msp"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    lines = [f"invalid: {len(expected)} violation(s)"]
    assert capsys.readouterr().out.splitlines() == lines + [f"  {v}" for v in expected]


def test_validate_of_int_rows_makes_no_fraction_copy():
    rows = [list(row) for row in random_metric_space(rng_from_seed(7), 200).grid[1]]
    tracemalloc.start()
    try:
        space = validate(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.grid == (1, tuple(map(tuple, rows)))
    # the grid alone takes about 0.33 MiB; a Fraction copy of the rows took 2.48
    assert peak <= 1.25 * 2**20


_RATIONAL_ROWS = [[0, 1, F(1, 2)], [1, 0, F(3, 2)], [F(1, 2), F(3, 2), 0]]


@pytest.mark.parametrize(
    "make",
    [
        lambda m: [iter(row) for row in m],
        lambda m: (list(row) for row in m),
        lambda m: (iter(row) for row in m),
    ],
    ids=["iterator-rows", "generator-matrix", "generator-of-iterators"],
)
def test_rows_are_read_once(make):
    space = validate(make(_RATIONAL_ROWS), labels="abc")
    assert space.grid == (2, ((0, 2, 1), (2, 0, 3), (1, 3, 0)))
    assert space == validate(_RATIONAL_ROWS, labels="abc")


def test_int_and_fraction_matrices_skip_as_fraction(monkeypatch):
    space = random_metric_space(rng_from_seed(3), 40)  # on a grid of sixths
    rows = space.grid[1]

    def refuse(value):
        raise AssertionError("int and Fraction entries are read as they are")

    monkeypatch.setattr(spaces, "as_fraction", refuse)
    labels = space.labels
    assert spaces.FiniteMetricSpace(labels, space.dist) == space
    assert spaces.FiniteMetricSpace(labels, rows) == spaces.from_grid(labels, 1, rows)
    assert validate(_RATIONAL_ROWS).grid == (2, ((0, 2, 1), (2, 0, 3), (1, 3, 0)))


def test_a_bool_matrix_equals_its_int_twin():
    assert validate([[False, True], [True, False]]) == validate([[0, 1], [1, 0]])
    mixed = [[0, True, F(1, 2)], [True, 0, F(1, 2)], [F(1, 2), F(1, 2), False]]
    assert validate(mixed).grid == (2, ((0, 2, 1), (2, 0, 1), (1, 1, 0)))


@pytest.mark.parametrize(
    ("matrix", "named"),
    [
        ([[0, 1, 2.5], [1, 0, "x"], [2, 1, 0]], "float"),
        ([[0, F(1, 2), "x"], [F(1, 2), 0, 2.5], [2, 1, 0]], "str"),
        ([[0, 1, 2], [1, 0, 1], [2, None, 1.0]], "NoneType"),
    ],
    ids=["float-then-str", "str-then-float", "last-row"],
)
def test_the_first_bad_entry_in_row_major_order_is_named(matrix, named):
    with pytest.raises(TypeError, match=f"^expected int or Fraction, got {named}$"):
        validate(matrix)


_SHAPE = "distance matrix shape does not match labels"


class _NotRational:
    numerator, denominator = 1, 2


@pytest.mark.parametrize(
    ("matrix", "error", "message"),
    [
        ([[0, 1.5], [1.5, 0]], TypeError, "expected int or Fraction, got float"),
        ([[0, "1"], ["1", 0]], TypeError, "expected int or Fraction, got str"),
        (["01", "10"], TypeError, "expected int or Fraction, got str"),
        ([[0, 1], [1, 0, 2.0]], TypeError, "expected int or Fraction, got float"),
        ([[0, 1], [1, 0, 2]], ValueError, _SHAPE),
        (
            [[0, _NotRational()], [_NotRational(), 0]],
            TypeError,
            "expected int or Fraction, got _NotRational",
        ),
        ([1, 2], TypeError, "'int' object is not iterable"),
        ([], ValueError, "a space needs at least one point"),
    ],
    ids=[
        "float",
        "str",
        "str-rows",
        "ragged-float",
        "ragged",
        "not-rational",
        "int-rows",
        "empty",
    ],
)
def test_bad_entries_are_refused_before_the_shape(matrix, error, message):
    with pytest.raises(error) as caught:
        validate(matrix)
    assert str(caught.value) == message
    # an entry's type is refused before the mode and the shape are looked at
    with pytest.raises(error if error is TypeError else ValueError) as caught:
        spaces.FiniteMetricSpace(("a",), matrix, "bogus")
    if error is TypeError:
        assert str(caught.value) == message


def test_restrict_cuts_the_block_in_index_order():
    space = validate([[0, 2, 4, 6], [2, 0, 4, 6], [4, 4, 0, 6], [6, 6, 6, 0]])
    cut = spaces.restrict(space, [2, 0, 1], tuple("cab"))
    assert cut.grid == (1, ((0, 4, 4), (4, 0, 2), (4, 2, 0)))
    assert cut == validate([[0, 4, 4], [4, 0, 2], [4, 2, 0]], labels="cab")
    assert spaces.restrict(space, range(4), space.labels) == space
    sixth = scale(space, F(1, 6))
    assert sixth.grid[0] == 3
    # the block of 0 and 3 is [[0, 3], [3, 0]] / 3, which reduces to [[0, 1], [1, 0]]
    assert spaces.restrict(sixth, [3, 0], ("d", "a")).grid == (1, ((0, 1), (1, 0)))
    assert spaces.restrict(sixth, [0, 2], ("a", "c")).grid == (3, ((0, 2), (2, 0)))


def test_restrict_repeats_points_in_a_pseudo_space():
    space = validate([[0, F(1, 2)], [F(1, 2), 0]])
    cut = spaces.restrict(space, [1, 0, 1], ("b", "a", "b2"), PSEUDO)
    assert cut.mode == PSEUDO and cut.grid == (2, ((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    half = F(1, 2)
    matrix = [[0, half, 0], [half, 0, half], [0, half, 0]]
    assert cut == validate(matrix, PSEUDO, ("b", "a", "b2"))


def test_no_module_but_spaces_reads_the_fraction_view():
    package = Path(spaces.__file__).parent
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        if path.name != "spaces.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "dist"
    )
    assert readers == []
