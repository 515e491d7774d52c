import functools
import json
from fractions import Fraction as F

import pytest
from freeze_tuzhilin_golden import GOLDEN, needle_sets, outcome

from ghkit import spaces, tuzhilin
from ghkit.errors import IndexOutOfRange, TooLarge
from ghkit.spaces import STRICT, validate
from ghkit.tuzhilin import (
    TuzhilinConfig,
    needle_set_hausdorff,
    tuzhilin_isometry,
    tuzhilin_spaces,
)


@pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (-2, 3)])
def test_needle_set_hausdorff_refuses_a_nonpositive_index(n, m):
    with pytest.raises(ValueError, match="^needle indices must be positive$"):
        needle_set_hausdorff(n, m)


def test_config_invariants():
    with pytest.raises(ValueError):
        TuzhilinConfig(1, 5)
    with pytest.raises(ValueError):
        TuzhilinConfig(3, 2)
    TuzhilinConfig(2, 2)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 4), (5, 9), (10, 20)])
def test_point_count_is_both_sizes(n, k):
    cfg = TuzhilinConfig(n, k)
    x, y = tuzhilin_spaces(cfg)
    assert cfg.point_count == len(x) + len(y) == (n + 1) ** 2 + k + 1


def test_config_refuses_above_point_cap(monkeypatch):
    assert spaces.POINT_CAP == 2000
    with pytest.raises(TooLarge, match="10302 points, cap is 2000"):
        TuzhilinConfig(100, 100)
    TuzhilinConfig(43, 63)  # 44^2 + 64 = 2000 points, exactly at the cap
    with pytest.raises(TooLarge):
        TuzhilinConfig(43, 64)
    monkeypatch.setattr(spaces, "POINT_CAP", 12)
    TuzhilinConfig(2, 2)  # 6 + 6 points
    with pytest.raises(TooLarge):
        TuzhilinConfig(2, 3)


def test_small_spaces_have_expected_sizes():
    x, y = tuzhilin_spaces(TuzhilinConfig(2, 2))
    assert len(x) == 6  # needles 1, 2, 3 carry 1, 2, 3 points
    assert len(y) == 6  # needles 1, 2 plus the truncated long needle


def test_spaces_are_strict_metrics():
    x, y = tuzhilin_spaces(TuzhilinConfig(3, 4))
    validate(x.dist, STRICT, x.labels)
    validate(y.dist, STRICT, y.labels)


def test_same_needle_gaps_small_cross_distances_large():
    x, _ = tuzhilin_spaces(TuzhilinConfig(3, 3))
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            needle_i = x.labels[i].split(":")[0]
            needle_j = x.labels[j].split(":")[0]
            if needle_i == needle_j:
                assert x.dist[i][j] < 1
            else:
                assert x.dist[i][j] > 2


def test_isometry_preserves_distances_and_realizes_gap():
    cfg = TuzhilinConfig(3, 5)
    for m in range(1, 4):
        embedding = tuzhilin_isometry(cfg, m)
        assert embedding.distance_preserving
        assert embedding.hausdorff_value == F(1, m)


def test_gap_witnessed_by_limit_coordinate():
    cfg = TuzhilinConfig(3, 5)
    m = 2
    embedding = tuzhilin_isometry(cfg, m)
    ambient = embedding.ambient
    limit_point = ambient.labels.index(f"{m}:1")
    nearest = ambient.labels.index(f"{m}:{1 + F(1, m)}")
    assert ambient.dist[limit_point][nearest] == F(1, m)
    assert embedding.hausdorff_value == F(1, m)


def test_isometry_index_range():
    cfg = TuzhilinConfig(3, 5)
    with pytest.raises(IndexOutOfRange):
        tuzhilin_isometry(cfg, 0)
    with pytest.raises(IndexOutOfRange):
        tuzhilin_isometry(cfg, 4)


def test_common_needle_hausdorff_formula():
    for n in range(1, 7):
        for m in range(1, 7):
            assert needle_set_hausdorff(n, m) == abs(F(1, n) - F(1, m))


def test_needle_set_hausdorff_refuses_above_point_cap(monkeypatch):
    monkeypatch.setattr(spaces, "POINT_CAP", 12)
    assert needle_set_hausdorff(12, 1) == F(11, 12)  # 12 points, at the cap
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("no coordinate may be built above the cap")

    monkeypatch.setattr(tuzhilin, "_label", refuse)
    monkeypatch.setattr(tuzhilin, "from_grid", refuse)
    for n, m in ((2001, 1), (2, 2001), (10**9, 10**9)):
        with pytest.raises(TooLarge, match=f"has {max(n, m)} points, cap is 2000"):
            needle_set_hausdorff(n, m)


def test_grids_refused_above_the_bit_cap(monkeypatch):
    # lcm(1..2000) has 2878 bits, so a 2000-point line, which POINT_CAP
    # allows, would take gigabytes
    assert tuzhilin.GRID_BITS_CAP == 4 * 10**8
    TuzhilinConfig(43, 63)  # 2000² × 89 bits
    TuzhilinConfig(10, 400)  # 522² × 574 bits

    def refuse(*args):
        raise AssertionError("no coordinate may be built above the cap")

    monkeypatch.setattr(tuzhilin, "_label", refuse)
    monkeypatch.setattr(tuzhilin, "from_grid", refuse)
    with pytest.raises(TooLarge, match="1922 points on a 2600-bit denominator"):
        TuzhilinConfig(10, 1800)
    for n, m in ((2000, 1), (3, 1000)):
        with pytest.raises(TooLarge, match=f"line has {max(n, m)} points on a"):
            needle_set_hausdorff(n, m)
    monkeypatch.setattr(tuzhilin, "GRID_BITS_CAP", 142**2 * 28)
    TuzhilinConfig(10, 20)  # 142 points on lcm(1..20), 28 bits: at the cap
    with pytest.raises(TooLarge, match="143 points on a 28-bit denominator"):
        TuzhilinConfig(10, 21)
    monkeypatch.undo()
    monkeypatch.setattr(tuzhilin, "GRID_BITS_CAP", 12**2 * 15)
    assert needle_set_hausdorff(12, 1) == F(11, 12)  # lcm(1..12) has 15 bits
    with pytest.raises(TooLarge, match="13 points on a 19-bit denominator"):
        needle_set_hausdorff(13, 1)


def test_embedding_induces_small_distortion_correspondence():
    from ghkit.correspondences import Correspondence
    from ghkit.solver import gh_upper_from
    from ghkit.tuzhilin import tuzhilin_spaces

    cfg = TuzhilinConfig(3, 5)
    x, y = tuzhilin_spaces(cfg)
    for m in range(1, 4):
        embedding = tuzhilin_isometry(cfg, m)
        ambient = embedding.ambient
        x_global = sorted(embedding.x_part.indices)
        image_by_y: list[int] = []
        for y_label, amb_label in embedding.mapping:
            assert y.labels.index(y_label) == len(image_by_y)  # mapping in y order
            image_by_y.append(ambient.labels.index(amb_label))
        gap = embedding.hausdorff_value
        pairs = frozenset(
            (xi, yj)
            for xi, xg in enumerate(x_global)
            for yj, yg in enumerate(image_by_y)
            if ambient.dist[xg][yg] <= gap
        )
        rel = Correspondence(x, y, pairs)
        assert gh_upper_from(rel) <= F(1, m)


# ---------------------------------------------------------------------------
# every embedding for n = 2..10, k in {n, n + 5, 20} and the needle-set gaps,
# frozen by tests/freeze_tuzhilin_golden.py


def _tuzhilin_golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "entry",
    _tuzhilin_golden()["embeddings"],
    ids=lambda entry: f"n{entry['n']}-k{entry['k']}-m{entry['m']}",
)
def test_embedding_matches_golden(entry):
    assert outcome(entry["n"], entry["k"], entry["m"]) == entry


def test_needle_set_hausdorff_matches_golden():
    assert needle_sets() == _tuzhilin_golden()["needle_sets"]


# ---------------------------------------------------------------------------
# each shift splices the long needle's block into the config's cached sides;
# the reference below builds the whole ambient from scratch instead


def _x_points(cfg):
    return [(str(v), k) for v in range(1, cfg.n + 2) for k in range(1, v + 1)]


def _y_points(cfg):
    points = [(str(v), k) for v in range(1, cfg.n + 1) for k in range(1, v + 1)]
    return points + [("inf", k) for k in range(cfg.k + 1)]  # k = 0: the limit 1


def _relocate(m, point):
    """The shift h_m: the long needle onto needle m, needles m..n up by one."""
    needle, k = point
    if needle == "inf":
        return (str(m), k)
    return point if int(needle) < m else (str(int(needle) + 1), k)


@functools.cache
def _coordinate(k):
    return 1 + F(1, k) if k else F(1)  # k = 0: the limit


@functools.cache
def _distance(same_needle, k, j):
    """|a - b| along one needle, a + b across needles, through the center."""
    a, b = _coordinate(k), _coordinate(j)
    return abs(a - b) if same_needle else a + b


def _needle_space(points):
    """The distinct points (needle, k), sorted by (needle, coordinate), and
    their space on `Fraction` coordinates, labelled needle:coordinate."""
    placed = sorted(set(points), key=lambda p: (p[0], _coordinate(p[1])))
    rows = [[_distance(u == v, k, j) for v, j in placed] for u, k in placed]
    labels = tuple(f"{needle}:{_coordinate(k)}" for needle, k in placed)
    return placed, rows, spaces.FiniteMetricSpace(labels, rows)


def _from_scratch(cfg, m):
    """The embedding's parts with every distance written out on `Fraction`
    coordinates, the full ambient point set's and the second space's own."""
    y_placed, y_rows, y = _needle_space(_y_points(cfg))
    placed, rows, ambient = _needle_space(
        [_relocate(m, p) for p in _y_points(cfg)] + _x_points(cfg)
    )
    index = {p: g for g, p in enumerate(placed)}
    image = [index[_relocate(m, p)] for p in y_placed]
    x_part = spaces.subset(ambient, [index[p] for p in _x_points(cfg)])
    image_part = spaces.subset(ambient, image)
    preserved = all(
        rows[gi][gj] == y_rows[i][j]
        for i, gi in enumerate(image)
        for j, gj in enumerate(image)
    )
    return {
        "labels": ambient.labels,
        "grid": ambient.grid,
        "x_part": x_part.indices,
        "image_part": image_part.indices,
        "mapping": tuple(zip(y.labels, [ambient.labels[g] for g in image])),
        "distance_preserving": preserved,
        "hausdorff_value": spaces.hausdorff(x_part, image_part),
    }


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (11, 12) for k in sorted({n, n + 1, 30})]
)
def test_spliced_embedding_equals_the_one_built_from_scratch(n, k):
    cfg = TuzhilinConfig(n, k)
    for m in range(1, n + 1):
        embedding = tuzhilin_isometry(cfg, m)
        assert {
            "labels": embedding.ambient.labels,
            "grid": embedding.ambient.grid,
            "x_part": embedding.x_part.indices,
            "image_part": embedding.image_part.indices,
            "mapping": embedding.mapping,
            "distance_preserving": embedding.distance_preserving,
            "hausdorff_value": embedding.hausdorff_value,
        } == _from_scratch(cfg, m)
        assert embedding.distance_preserving
        assert embedding.hausdorff_value == F(1, m)


def test_shifts_build_each_side_once(monkeypatch):
    built = []
    tables, side = tuzhilin._coordinate_tables, tuzhilin._side

    def counting_tables(cfg):
        built.append("tables")
        return tables(cfg)

    def counting_side(*args):
        result = side(*args)
        built.append(len(result.rows))
        return result

    monkeypatch.setattr(tuzhilin, "_coordinate_tables", counting_tables)
    monkeypatch.setattr(tuzhilin, "_side", counting_side)
    cfg = TuzhilinConfig(5, 9)
    for m in range(1, cfg.n + 1):
        tuzhilin_isometry(cfg, m)
    x, y = tuzhilin_spaces(cfg)
    assert built == ["tables", len(x), len(y)] == ["tables", 21, 25]


def test_config_builds_no_rows_until_its_first_shift(monkeypatch):
    def refuse(*args):
        raise AssertionError("a config builds no rows on construction")

    monkeypatch.setattr(tuzhilin, "_coordinate_tables", refuse)
    monkeypatch.setattr(tuzhilin, "_side", refuse)
    cfg = TuzhilinConfig(43, 63)  # 2,000 points at the cap
    assert cfg == TuzhilinConfig(43, 63)
    monkeypatch.undo()
    shifted = TuzhilinConfig(4, 7)
    tuzhilin_isometry(shifted, 2)
    fresh = TuzhilinConfig(4, 7)
    assert shifted == fresh and hash(shifted) == hash(fresh)
    assert shifted != TuzhilinConfig(4, 8)
    assert repr(shifted) == "TuzhilinConfig(n=4, k=7)"
    with pytest.raises(AttributeError):
        shifted.n = 5


def _fields(embedding):
    return (
        embedding.ambient.labels,
        embedding.ambient.grid,
        embedding.x_part.indices,
        embedding.image_part.indices,
        embedding.mapping,
        embedding.distance_preserving,
        embedding.hausdorff_value,
    )


@pytest.mark.parametrize("n, k", [(5, 9), (6, 6)])
def test_shifts_in_any_order_equal_those_of_a_fresh_config(n, k):
    # a table or row that one shift mutated would show in a later one
    cfg = TuzhilinConfig(n, k)
    for m in range(n, 0, -1):
        assert tuzhilin_spaces(cfg) == tuzhilin_spaces(TuzhilinConfig(n, k))
        got = tuzhilin_isometry(cfg, m)
        assert _fields(got) == _fields(tuzhilin_isometry(TuzhilinConfig(n, k), m))
        assert got.distance_preserving and got.hausdorff_value == F(1, m)
    assert tuzhilin_spaces(cfg) == tuzhilin_spaces(TuzhilinConfig(n, k))


def _bump(rows, i, j):
    """`rows` with entry (i, j) one larger."""
    row = rows[i][:j] + (rows[i][j] + 1,) + rows[i][j + 1 :]
    return rows[:i] + (row,) + rows[i + 1 :]


@pytest.mark.parametrize("n, k", [(5, 9), (6, 6)])
@pytest.mark.parametrize("planted", ["second-space rows", "long-needle gaps"])
def test_a_planted_fault_fails_the_distance_check(n, k, planted):
    # the check compares every entry: one wrong int in the cached second
    # space, or in a table only the ambient reads after the sides are built
    cfg = TuzhilinConfig(n, k)
    assert tuzhilin_isometry(cfg, 1).distance_preserving
    if planted == "second-space rows":
        x, y = cfg._sides
        cfg.__dict__["_sides"] = (x, y._replace(rows=_bump(y.rows, 3, 1)))
    else:  # the limit's gap to k = cfg.k, read by every shift's run
        tables = cfg._tables
        cfg.__dict__["_tables"] = tables._replace(
            long_gaps=_bump(tables.long_gaps, 0, 1)
        )
    for m in range(1, n + 1):
        assert not tuzhilin_isometry(cfg, m).distance_preserving
