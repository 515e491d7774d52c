import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings

from ghkit.correspondences import (
    distortion,
    full_correspondence,
    min_distortion_by_enumeration,
)
from ghkit import solver
from ghkit.errors import TooLarge
from ghkit.generate import perturbed_hedgehog, random_metric_space, rng_from_seed
from ghkit.hedgehogs import HedgehogSpec, compile_hedgehog
from ghkit.solver import (
    are_isometric,
    gh_exact,
    gh_lower_bound,
    gh_upper_from,
    isometry_cells,
)
from ghkit.spaces import (
    PSEUDO,
    STRICT,
    FiniteMetricSpace,
    diameter,
    from_grid,
    one_point_space,
    scale,
    validate,
)

from conftest import sup_metric_spaces


@pytest.fixture
def gap_pair():
    return validate([[0, 1], [1, 0]]), validate([[0, 3], [3, 0]])


def test_distance_to_point_space_is_half_diameter():
    point = one_point_space()
    space = validate([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    result = gh_exact(point, space)
    assert 2 * result.value == diameter(space)
    assert result.witness == full_correspondence(point, space)
    assert result.lower_bound == result.value  # the diameter gap is tight here


def test_self_distance_zero_with_identity_witness():
    space = validate([[0, 2, 5], [2, 0, 4], [5, 4, 0]])
    result = gh_exact(space, space)
    assert result.value == 0
    assert result.witness.sorted_pairs() == ((0, 0), (1, 1), (2, 2))


def test_gap_pair_distance(gap_pair):
    x, y = gap_pair
    result = gh_exact(x, y)
    assert result.value == 1
    assert result.witness.sorted_pairs() == ((0, 0), (1, 1))
    assert result.lower_bound == 1  # tight here


def test_scaled_copies_closed_form():
    space = validate([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    for lam, mu in ((F(1, 2), F(3, 2)), (F(2, 3), F(2, 3)), (F(1), F(3))):
        value = gh_exact(scale(space, lam), scale(space, mu)).value
        assert 2 * value == abs(lam - mu) * diameter(space)


@settings(max_examples=40, deadline=None)
@given(sup_metric_spaces(max_points=3), sup_metric_spaces(max_points=3))
def test_oracle_equivalence_small(x, y):
    expected, _ = min_distortion_by_enumeration(x, y)
    result = gh_exact(x, y)
    assert 2 * result.value == expected
    assert distortion(result.witness) == 2 * result.value
    assert result.lower_bound <= result.value


def test_oracle_equivalence_sampled_4x4():
    rng = rng_from_seed(2024)
    for _ in range(5):
        x = random_metric_space(rng, 4, label_prefix="x")
        y = random_metric_space(rng, 4, label_prefix="y")
        expected, _ = min_distortion_by_enumeration(x, y)
        assert 2 * gh_exact(x, y).value == expected


@settings(max_examples=25, deadline=None)
@given(sup_metric_spaces(max_points=3), sup_metric_spaces(max_points=3))
def test_symmetry(x, y):
    assert gh_exact(x, y).value == gh_exact(y, x).value


@settings(max_examples=15, deadline=None)
@given(
    sup_metric_spaces(max_points=3),
    sup_metric_spaces(max_points=3),
    sup_metric_spaces(max_points=3),
)
def test_triangle_inequality(x, y, z):
    assert gh_exact(x, z).value <= gh_exact(x, y).value + gh_exact(y, z).value


@pytest.mark.parametrize("seed", range(6))
def test_triangle_inequality_at_6_to_10_points(seed):
    rng = rng_from_seed(600 + seed)
    x, y, z = (random_metric_space(rng, rng.randint(6, 10)) for _ in range(3))
    xy, yz, xz = (gh_exact(a, b).value for a, b in ((x, y), (y, z), (x, z)))
    assert xz <= xy + yz and xy <= xz + yz and yz <= xy + xz


@settings(max_examples=25, deadline=None)
@given(sup_metric_spaces(max_points=3), sup_metric_spaces(max_points=3))
def test_bound_sandwich(x, y):
    result = gh_exact(x, y)
    assert gh_lower_bound(x, y) <= result.value
    assert result.value <= gh_upper_from(full_correspondence(x, y))
    assert 2 * gh_upper_from(full_correspondence(x, y)) == max(
        diameter(x), diameter(y)
    )


def test_zero_distance_witness_is_isometric_bijection():
    space = validate([[0, 2, 5], [2, 0, 4], [5, 4, 0]], labels=["a", "b", "c"])
    permuted = validate(
        [[0, 4, 2], [4, 0, 5], [2, 5, 0]], labels=["c", "b", "a"]
    )
    result = gh_exact(space, permuted)
    assert result.value == 0
    pairs = result.witness.sorted_pairs()
    assert len(pairs) == 3  # a bijection
    assert len({i for i, _ in pairs}) == 3 and len({j for _, j in pairs}) == 3
    assert distortion(result.witness) == 0


def test_scaling_equivariance(gap_pair):
    x, y = gap_pair
    base = gh_exact(x, y).value
    for lam in (F(2), F(1, 3), F(5, 4)):
        assert gh_exact(scale(x, lam), scale(y, lam)).value == lam * base


def _path_space(n):
    return validate([[abs(i - j) for j in range(n)] for i in range(n)])


def test_answers_above_the_old_cap_with_no_argument():
    rng = rng_from_seed(4)
    for n, m in ((9, 9), (10, 16)):
        x, y = random_metric_space(rng, n), random_metric_space(rng, m)
        result = gh_exact(x, y)
        assert distortion(result.witness) == 2 * result.value
        assert result.lower_bound <= result.value


def test_side_bound_refuses_before_building(gap_pair, monkeypatch):
    x, _ = gap_pair
    assert solver.SIDE_BOUND == 32
    assert gh_exact(x, _path_space(32)).value == 15  # at the bound

    def refuse(*args):
        raise AssertionError("no gap set may be built above the side bound")

    monkeypatch.setattr(solver, "_levels", refuse)
    monkeypatch.setattr(solver, "_packing", refuse)
    monkeypatch.setattr(solver, "_Compat", refuse)
    big = _path_space(33)
    for a, b in ((x, big), (big, x), (big, big)):
        with pytest.raises(TooLarge, match="a side has more than 32 points"):
            gh_exact(a, b)


def test_isometry_search_refuses_past_the_side_bound_before_building(
    gap_pair, monkeypatch
):
    x, _ = gap_pair
    path = _path_space(32)
    assert are_isometric(path, _relabelled(path, range(31, -1, -1)))  # at the bound

    def refuse(*args):
        raise AssertionError("no mask may be built above the side bound")

    monkeypatch.setattr(solver, "_packing", refuse)
    monkeypatch.setattr(solver, "_Compat", refuse)
    big = _path_space(33)
    for a, b in ((x, big), (big, x), (big, big)):
        for search in (are_isometric, isometry_cells):
            with pytest.raises(TooLarge, match="a side has more than 32 points"):
                search(a, b)


def test_a_feasible_bound_probe_builds_no_level_list(monkeypatch):
    x = random_metric_space(rng_from_seed(5), 8)
    others = (
        (scale(x, F(3, 2)), diameter(x) / 4),  # the identity attains the bound
        (_relabelled(x, (7, 0, 6, 1, 5, 2, 4, 3)), 0),
        (one_point_space(), diameter(x) / 2),  # the bound is the top level
    )

    def refuse(*args):
        raise AssertionError("the bound probe was feasible: no level list")

    monkeypatch.setattr(solver, "_levels", refuse)
    for y, value in others:
        assert gh_exact(x, y).value == value
        assert gh_exact(y, x).value == value


def _budget_pairs():
    rng = rng_from_seed(77)
    pairs = []
    for k in range(8):
        x, y = (random_metric_space(rng, rng.randint(6, 8)) for _ in range(2))
        pairs += [(x, y), (x, scale(x, F(k + 2, 2)))]  # 7 to 680 nodes
    return pairs


@pytest.mark.parametrize("budget", [0, 1, 10, 100])
def test_node_budget_raises_exactly_above_the_node_count(budget, monkeypatch):
    pairs = _budget_pairs()
    results = [gh_exact(x, y) for x, y in pairs]
    monkeypatch.setattr(solver, "NODE_BUDGET", budget)
    for (x, y), result in zip(pairs, results):
        if result.nodes_explored > budget:
            with pytest.raises(TooLarge, match=f"budget of {budget} nodes"):
                gh_exact(x, y)
        else:
            assert gh_exact(x, y) == result


def test_node_budget_boundary(monkeypatch):
    x, y = _budget_pairs()[0]
    result = gh_exact(x, y)
    monkeypatch.setattr(solver, "NODE_BUDGET", result.nodes_explored)
    assert gh_exact(x, y) == result
    monkeypatch.setattr(solver, "NODE_BUDGET", result.nodes_explored - 1)
    with pytest.raises(TooLarge):
        gh_exact(x, y)


def test_rejects_pseudo_spaces():
    pseudo = FiniteMetricSpace(
        ("a", "b"), ((F(0), F(0)), (F(0), F(0))), PSEUDO
    )
    with pytest.raises(ValueError):
        gh_exact(pseudo, pseudo)


def test_isometry_cells_of_the_twin():
    twin = validate([[0, 1, 1], [1, 0, 2], [1, 2, 0]])  # two needles of length 1
    # the identity and the needle swap: the center stays, each needle goes
    # to either needle
    assert isometry_cells(twin, twin) == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    other = validate([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert isometry_cells(twin, other) == frozenset()
    assert are_isometric(twin, twin)
    assert not are_isometric(twin, other)


def _lex_min_pairs():
    """Seeded pairs of 1-3 points; hedgehogs, most with repeated needles,
    against each other and against a scaled copy; scaled copies of seeded
    spaces.  Every n*m is within the enumeration oracle's 20-cell guard."""
    rng = rng_from_seed(99)
    pairs = []
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        x = random_metric_space(rng, n, label_prefix="x")
        pairs.append((x, random_metric_space(rng, m, label_prefix="y")))
    hogs = [
        compile_hedgehog(HedgehogSpec.of(*needles))
        for needles in (
            (1, 1),
            (1, 2),
            (1, 1, 2),
            (1, 2, 2),
            (F(1, 2), 1, 2),
            (1, 1, 2, 2),
            (F(1, 2), F(1, 2), 3, 3),
        )
    ]
    for a in hogs:
        pairs += [(a, b) for b in hogs if len(a) * len(b) <= 20]
        if len(a) <= 4:
            pairs.append((a, scale(a, F(3, 2))))
    for n in (2, 3, 4):
        x = random_metric_space(rng, n, label_prefix="x")
        pairs += [(x, scale(x, F(3, 2))), (scale(x, F(1, 3)), x)]
    return pairs


def _optimal_pair_sets(x, y, value):
    """Reference: every correspondence of distortion `value` or less, as
    sorted pair tuples, on the enumeration oracle's bitsets (bit s stands for
    the cell set s): the covering sets holding no two cells of larger gap."""
    from ghkit.correspondences import _set_bits, decode_cells, scaled_integer_matrices

    n, m = len(x), len(y)
    within, has = _set_bits(n, m)
    denom, dx, dy = scaled_integer_matrices(x, y)
    cells = [divmod(c, m) for c in range(n * m)]
    for c, (i, j) in enumerate(cells):
        for d, (k, l) in enumerate(cells):
            if abs(dx[i][k] - dy[j][l]) > value * denom:
                within &= ~(has[c] & has[d])
    optima = []
    while within:
        low = within & -within
        optima.append(tuple(sorted(decode_cells(low.bit_length() - 1, m))))
        within ^= low
    return optima


def test_witness_is_lexicographic_minimum_over_optima():
    for x, y in _lex_min_pairs():
        value, _ = min_distortion_by_enumeration(x, y)
        result = gh_exact(x, y)
        assert 2 * result.value == value
        assert result.witness.sorted_pairs() == min(_optimal_pair_sets(x, y, value))


def test_nodes_explored_deterministic(gap_pair):
    x, y = gap_pair
    first = gh_exact(x, y)
    second = gh_exact(x, y)
    assert first.nodes_explored == second.nodes_explored
    assert first.witness == second.witness


def test_lex_min_witness_below_the_optimum_raises_typed_error():
    # every correspondence of {0,1} at distance 1 with {0,1} at distance 3
    # has distortion 2, so a budget of 1 admits none; pytest.raises keeps the
    # check alive under python -O
    from ghkit.errors import InvariantBroken
    from ghkit.solver import _Compat, _Search, _extend, _lex_min_cells, _packing

    dx, dy = ((0, 1), (1, 0)), ((0, 3), (3, 0))
    search = _Search(_Compat(_packing(dx, dy, 3), 1), 2, 2)
    found = _extend(search, 0, 15)
    assert found == 0
    with pytest.raises(InvariantBroken, match="distortion level admits no"):
        _lex_min_cells(search, found)


# tops at each side of a byte boundary of 2*top + 1, and above 2^64
_TOPS = {
    **{str(top): top for top in (40, 63, 64, 127, 128, 5000, 3_000_000)},
    "2^64+1": 2**64 + 1,
    "2^70+3": 2**70 + 3,
}


# and the 2|3, 4|5 and 8|9-byte boundaries, past the ends of `struct` codes
@pytest.mark.parametrize(
    "top", [*_TOPS.values(), 16383, 16384, 2**30 - 1, 2**30, 2**62 - 1, 2**62]
)
def test_packed_fields_at_width_boundaries(top):
    """`pack_rows` takes the smallest whole-byte width with w - 1 >=
    bitlen(2*top + 1), packs the `struct` widths and the others alike, and
    a field 2^(w-1) + s with |s| <= 2*top + 1 stays in its field with its
    top bit set exactly when s >= 0."""
    from ghkit.spaces import pack_rows

    rows = [[0, top, 1, top - 1, top // 2], [top, 0, top, 1, top - 1]]
    width, packed = pack_rows(rows, top)
    w = 8 * width
    assert w - 9 < (2 * top + 1).bit_length() <= w - 1
    assert packed == [b"".join([v.to_bytes(width, "little") for v in r]) for r in rows]
    p, q = (int.from_bytes(fields, "little") for fields in packed)
    ones = int.from_bytes((1).to_bytes(width, "little") * 5, "little")
    for d in (0, 1, top, top + 1, 2 * top, 2 * top + 1):
        total = p + q + ((1 << w - 1) - d) * ones
        digits = total.to_bytes(5 * width, "little")  # no field left its range
        fields = [
            int.from_bytes(digits[k : k + width], "little")
            for k in range(0, 5 * width, width)
        ]
        assert fields == [(1 << w - 1) + a + b - d for a, b in zip(*rows)]
        signs = [field >> w - 1 for field in fields]
        assert signs == [int(a + b >= d) for a, b in zip(*rows)]


def _reference_packing(dx, dy, top):
    """Reference: every field written on its own, at the smallest whole-byte
    width with 2^(w-1) >= 2*top + 2; field k*m + l of x row i holds
    dx[i][k], that of y row j holds dy[j][l]."""
    width = 1
    while 1 << 8 * width - 1 < 2 * top + 2:
        width += 1
    n, m, shift = len(dx), len(dy), 8 * width

    def fields(values):
        return sum(v << shift * f for f, v in enumerate(values))

    xs = [fields([v for v in row for _ in range(m)]) for row in dx]
    ys = [fields(list(row) * n) for row in dy]
    return xs, ys, m, width, n * m * width, fields([1] * (n * m))


# widths 1, 2, 4 and 8 bytes pack by `struct`; 3, 9 and 10 by the fallback
@pytest.mark.parametrize(
    "top, width",
    [(63, 1), (16383, 2), (16384, 3), (2**30 - 1, 4), (2**62 - 1, 8), (2**62, 9)]
    + [(2**70 + 3, 10)],
)
@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (3, 5), (7, 7)])
def test_packing_equals_a_per_value_reference(top, width, n, m):
    rng = random.Random(1000 * width + 10 * n + m)
    values = (0, 1, top - 1, top, *(rng.randint(0, top) for _ in range(4)))
    dx = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
    dy = [[rng.choice(values) for _ in range(m)] for _ in range(m)]
    packing = solver._packing(dx, dy, top)
    assert packing == _reference_packing(dx, dy, top)
    assert packing[3] == width


def test_struct_layouts_are_shared_tables_equal_to_a_fresh_build():
    from ghkit.spaces import _STRUCT_CODES

    for width in _STRUCT_CODES:
        for n, m in ((1, 1), (3, 5), (32, 32)):
            spaced, spread, ones = solver._struct_layout(width, n, m)
            assert solver._struct_layout(width, n, m)[0] is spaced
            fresh = solver._struct_layout.__wrapped__(width, n, m)
            assert (spaced.format, spread, ones) == (fresh[0].format, *fresh[1:])
    assert solver._struct_layout.cache_info().maxsize is not None


def _distinct_space(n):
    """n points whose n(n-1)/2 distances are 100, 101, ...: all distinct, and
    all within a factor 2 of each other, so every triangle holds."""
    rows = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        rows[i][j] = rows[j][i] = 100 + k
    return from_grid(tuple(f"p{i}" for i in range(n)), 1, tuple(map(tuple, rows)))


def _pair_space(d):
    return from_grid(("a", "b"), 1, ((0, d), (d, 0)))


@pytest.mark.parametrize(
    "x",
    [
        random_metric_space(rng_from_seed(43), 5),
        _pair_space(63),
        _pair_space(64),
        scale(random_metric_space(rng_from_seed(44), 6), F(2**61 + 1, 2**61 - 1)),
        _distinct_space(12),
    ],
    ids=["5-points", "top-63", "top-64", "wide-values", "67-labels"],
)
def test_isometry_search_packs_its_labels_like_the_reference(monkeypatch, x):
    """The search packs the two spaces' own grid rows at top = the
    diameter, as `gh_exact` does, however wide the values are."""
    seen = []

    def spy(dx, dy, top):
        seen.append((dx, dy, top))
        return real(dx, dy, top)

    real = solver._packing
    monkeypatch.setattr(solver, "_packing", spy)
    n, (denom, rows) = len(x), x.grid
    order = list(range(n))
    random.Random(n).shuffle(order)
    relabelled = tuple(tuple(rows[p][q] for q in order) for p in order)
    y = from_grid(x.labels, denom, relabelled)
    assert are_isometric(x, y)
    [(dx, dy, top)] = seen
    assert dx is rows and dy is y.grid[1]
    assert (dx, dy, top) == (rows, relabelled, max(map(max, rows)))
    assert real(dx, dy, top) == _reference_packing(dx, dy, top)


def _mask_pairs():
    """Seeded pairs from 1x1 to 12x12, square and not, random and scaled;
    and grid pairs whose values need 1-, 2-, 3- and 9-byte fields, values
    above 2^64, and tops at each side of a byte boundary of 2*top + 1."""
    rng = rng_from_seed(41)
    pairs = []
    for n, m in ((1, 1), (1, 4), (3, 2), (5, 5), (6, 9), (8, 8), (11, 7), (12, 12)):
        x = random_metric_space(rng, n, label_prefix="x")
        y = random_metric_space(rng, m, label_prefix="y")
        pairs.append(pytest.param(x, y, id=f"{n}x{m}"))
    x = random_metric_space(rng, 10, label_prefix="x")
    pairs.append(pytest.param(x, scale(x, F(3, 2)), id="10x10-scaled"))
    for name, top in _TOPS.items():
        # one pool for both sides, so the two share values
        low = (top + 1) // 2
        pool = [top, top - 1, low, low + 1]
        pool += [rng.randrange(low, top) for _ in range(3)]
        x, y = _pool_space(rng, 4, pool, "x"), _pool_space(rng, 5, pool, "y")
        pairs.append(pytest.param(x, y, id=f"top-{name}"))
    return pairs


def _pool_space(rng, n, pool, prefix):
    """n points on denominator 1, distances drawn from `pool`, with pool[0]
    between points 0 and 1; all lie in [top/2, top], so every triangle
    holds."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(pool)
    rows[0][1] = rows[1][0] = pool[0]
    labels = tuple(f"{prefix}{i}" for i in range(n))
    return from_grid(labels, 1, tuple(map(tuple, rows)))


def _mask_levels(dx, dy, gaps):
    """Every gap, and one below each, ascending: 0 and top = max(dx, dy)
    are among them."""
    levels = sorted({t for gap in set(gaps) for t in (gap - 1, gap) if t >= 0})
    assert levels[0] == 0 and levels[-1] == max(max(map(max, dx)), max(map(max, dy)))
    return levels


def _gap_table(x, y):
    """Reference: the flat table of |dx - dy| over every pair of cells, cell
    c = i*m + j standing for (i, j), with the pair's integer matrices."""
    from ghkit.correspondences import scaled_integer_matrices

    denom, dx, dy = scaled_integer_matrices(x, y)
    gaps = [abs(a - b) for rx in dx for ry in dy for a in rx for b in ry]
    return denom, dx, dy, gaps


def _eager_compat(gaps, nm, t):
    # reference: every cell's mask at t, straight from the flat gap table
    return [
        sum(1 << k for k in range(nm) if gaps[c * nm + k] <= t) for c in range(nm)
    ]


def _scan_from_scratch(search, nm):
    # reference lex-min scan: one search per cell, no correspondence reused
    from ghkit.solver import _extend

    chosen, avail = 0, (1 << nm) - 1
    for cell in range(nm):
        if all(chosen & line for line in search.lines):
            break
        bit = 1 << cell
        narrowed = avail & search.compat[cell]
        if avail & bit and _extend(search, chosen | bit, narrowed):
            chosen, avail = chosen | bit, narrowed
        else:
            avail &= ~bit
    return chosen


@pytest.mark.parametrize("x, y", _mask_pairs())
def test_levels_are_the_cell_pair_gaps_at_or_above_the_bound(x, y):
    from ghkit.solver import _levels

    _, dx, dy, gaps = _gap_table(x, y)
    diameter_gap = abs(max(map(max, dx)) - max(map(max, dy)))
    for bound in [0, diameter_gap, max(gaps) + 1] + sorted(set(gaps)):
        expected = sorted(gap for gap in set(gaps) if gap >= bound)
        assert _levels(dx, dy, bound) == expected


@pytest.mark.parametrize("x, y", _mask_pairs())
def test_lazy_masks_equal_an_eager_reference_at_every_level(x, y):
    from ghkit.solver import _Compat, _packing

    nm = len(x) * len(y)
    _, dx, dy, gaps = _gap_table(x, y)
    levels = _mask_levels(dx, dy, gaps)
    packing = _packing(dx, dy, levels[-1])
    for t in levels:
        lazy, eager = _Compat(packing, t), _eager_compat(gaps, nm, t)
        assert len(lazy) == 0
        assert lazy[nm - 1] == eager[nm - 1]
        assert len(lazy) == 1  # reading one cell builds that cell's mask only
        assert [lazy[c] for c in range(nm)] == eager
        fresh = _Compat(_packing(dx, dy, levels[-1]), t)
        assert fresh[0] == eager[0]
        assert [fresh[c] for c in range(nm)] == eager


@pytest.mark.parametrize("x, y", _mask_pairs())
def test_search_and_witness_scan_agree_with_eager_masks(x, y):
    from ghkit.correspondences import decode_cells
    from ghkit.errors import InvariantBroken
    from ghkit.solver import _Compat, _Search, _extend, _lex_min_cells, _packing

    n, m = len(x), len(y)
    nm = n * m
    everything = (1 << nm) - 1
    denom, dx, dy, gaps = _gap_table(x, y)
    top = max(max(map(max, dx)), max(map(max, dy)))
    packing, feasible = _packing(dx, dy, top), []
    for t in sorted(set(gaps)):
        lazy = _Search(_Compat(packing, t), n, m)
        eager = _Search(_eager_compat(gaps, nm, t), n, m)
        found = _extend(lazy, 0, everything)
        assert found == _extend(eager, 0, everything)
        assert lazy.nodes == eager.nodes
        if not found:
            with pytest.raises(InvariantBroken):
                _lex_min_cells(lazy, found)
            continue
        feasible.append(t)
        witness = _lex_min_cells(lazy, found)
        assert witness == _lex_min_cells(eager, found)
        assert lazy.nodes == eager.nodes
        # handed the probe's correspondence, the scan returns the witness a
        # scan from scratch returns
        scratch = _Search(eager.compat, n, m)
        assert witness == decode_cells(_scan_from_scratch(scratch, nm), m)
    # the top level is never probed: the full relation stands in for its
    # correspondence and must give the same witness
    last = _Search(_Compat(packing, feasible[-1]), n, m)
    found = _extend(last, 0, everything)
    assert _lex_min_cells(last, everything) == _lex_min_cells(last, found)
    assert gh_exact(x, y).value == F(feasible[0], 2 * denom)


def _equilateral(n, side):
    return validate([[0 if i == j else side for j in range(n)] for i in range(n)])


def _witness_pairs():
    """Pairs for each way `gh_exact` reaches its witness level: 1 x m and
    n x 1, where the bound is the top level and no probe runs; equal
    diameters, where the bound is 0; scaled copies, where the bound probe
    decides; and equilateral pairs, where every correspondence has the top
    level's distortion, so the bound probe fails and no probe is feasible."""
    rng = rng_from_seed(57)
    pairs = []
    for m in (1, 2, 3, 4):
        y = random_metric_space(rng, m, label_prefix="y")
        pairs += [(one_point_space(), y), (y, one_point_space())]
    for n, m in ((2, 2), (3, 4), (4, 3), (5, 5)):
        x = random_metric_space(rng, n, label_prefix="x")
        y = random_metric_space(rng, m, label_prefix="y")
        pairs.append((x, scale(y, diameter(x) / diameter(y))))
    for n in (2, 3, 4, 6):
        x = random_metric_space(rng, n, label_prefix="x")
        pairs += [(x, scale(x, lam)) for lam in (F(1, 3), F(3, 2), F(2))]
    for n, m, side in ((3, 2, 1), (4, 2, 1), (4, 3, 2), (5, 3, 2)):
        a, b = _equilateral(n, 2), _equilateral(m, side)
        pairs += [(a, b), (b, a)]
    return pairs


def test_witness_equals_a_scan_from_scratch_at_the_answer_level():
    """The witness scan reads the masks at the answer's level however that
    level was reached, including the top level, whose masks `gh_exact`
    builds only when no probe gave them."""
    from ghkit.correspondences import decode_cells
    from ghkit.solver import _Search

    tops = 0
    for x, y in _witness_pairs():
        n, m = len(x), len(y)
        denom, dx, dy, gaps = _gap_table(x, y)
        result = gh_exact(x, y)
        level = 2 * result.value * denom
        assert level.denominator == 1
        top = max(max(map(max, dx)), max(map(max, dy)))
        tops += result.lower_bound < result.value and level == top
        reference = _Search(_eager_compat(gaps, n * m, int(level)), n, m)
        expected = decode_cells(_scan_from_scratch(reference, n * m), m)
        assert result.witness.pairs == expected
    assert tops == 8  # the equilateral pairs: top level with a failed bound probe


def test_solves_and_isometry_searches_leave_no_reference_cycles():
    import gc

    rng = rng_from_seed(3)
    x = random_metric_space(rng, 6, label_prefix="x")
    y = random_metric_space(rng, 6, label_prefix="y")
    gc.collect()
    gc.disable()
    try:
        gh_exact(x, y)
        isometry_cells(x, x)
        are_isometric(x, y)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


# 8 to 10 points, past the reach of the n*m <= 20 enumeration oracle


def _sup_space(points, denominator, prefix):
    rows = tuple(
        tuple(F(max(abs(a - b) for a, b in zip(p, q)), denominator) for q in points)
        for p in points
    )
    return FiniteMetricSpace(
        tuple(f"{prefix}{i}" for i in range(len(points))), rows, STRICT
    )


def _relabelled(space, order):
    return FiniteMetricSpace(
        tuple(space.labels[p] for p in order),
        tuple(tuple(space.dist[p][q] for q in order) for p in order),
        space.mode,
    )


def _large_pairs():
    """Random pairs and near-scaled pairs (5X with one point moved one unit)."""
    rng = rng_from_seed(2026)
    pairs = []
    for n, m in ((8, 10), (9, 9), (10, 8), (10, 10)):
        x = random_metric_space(rng, n, label_prefix="x")
        pairs.append((x, random_metric_space(rng, m, label_prefix="y")))
    for n in (8, 9, 10):
        points = rng.sample([(a, b) for a in range(12) for b in range(12)], n)
        moved = [(5 * a, 5 * b) for a, b in points]
        moved[0] = (moved[0][0] + 1, moved[0][1])
        pairs.append((_sup_space(points, 3, "x"), _sup_space(moved, 3, "y")))
    return pairs


LARGE_PAIRS = _large_pairs()


@pytest.mark.parametrize("x, y", LARGE_PAIRS)
def test_large_witness_attains_the_value(x, y):
    result = gh_exact(x, y)
    assert distortion(result.witness) == 2 * result.value
    assert result.lower_bound <= result.value


@pytest.mark.parametrize("x, y", LARGE_PAIRS)
def test_large_symmetry(x, y):
    assert gh_exact(x, y).value == gh_exact(y, x).value


@pytest.mark.parametrize("x, y", LARGE_PAIRS)
def test_large_relabelling_invariance(x, y):
    rng = random.Random(len(x) * 100 + len(y))
    value = gh_exact(x, y).value
    x_order = rng.sample(range(len(x)), len(x))
    y_order = rng.sample(range(len(y)), len(y))
    assert gh_exact(_relabelled(x, x_order), y).value == value
    assert gh_exact(x, _relabelled(y, y_order)).value == value


@pytest.mark.parametrize("x, y", LARGE_PAIRS)
def test_large_scaling_equivariance(x, y):
    value = gh_exact(x, y).value
    for lam in (F(2), F(1, 3)):
        assert gh_exact(scale(x, lam), scale(y, lam)).value == lam * value


# isometries: the feasibility search at distortion 0


def _brute_isometry_cells(x, y):
    """Reference: the cells of every distance-preserving permutation."""
    n = len(x)
    if n != len(y):
        return frozenset()
    return frozenset(
        (i, sigma[i])
        for sigma in permutations(range(n))
        if all(
            x.dist[i][k] == y.dist[sigma[i]][sigma[k]]
            for i in range(n)
            for k in range(n)
        )
        for i in range(n)
    )


def _small_isometry_pairs():
    """Up to 6 points: seeded pairs, relabelled copies, and hedgehogs with
    repeated needles against relabelled copies of themselves, some of them
    with values over 4,000 bits wide."""
    rng = rng_from_seed(8080)
    pairs = []
    for n in range(1, 7):
        x = random_metric_space(rng, n, label_prefix="x")
        pairs.append((x, random_metric_space(rng, n, label_prefix="y")))
        pairs.append((x, _relabelled(x, rng.sample(range(n), n))))
    square = validate([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    for symmetric in (square, _path_space(5)):
        n = len(symmetric)
        pairs.append((symmetric, _relabelled(symmetric, rng.sample(range(n), n))))
    for needles in ((1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 2, 2), (2, 2, 2, 3, 3)):
        hog = compile_hedgehog(HedgehogSpec.of(*needles))
        pairs.append((hog, hog))
        pairs.append((hog, _relabelled(hog, rng.sample(range(len(hog)), len(hog)))))
    pairs.append(
        (
            compile_hedgehog(HedgehogSpec.of(1, 1, 2)),
            compile_hedgehog(HedgehogSpec.of(1, 2, 2)),
        )
    )
    # 4,100-bit values; the two triangles order their sides alike but
    # differ in one length, so only ranks taken over both sides tell them apart
    wide = F(2**4096 + 1, 2**4096 - 1)
    hog = scale(compile_hedgehog(HedgehogSpec.of(1, 1, 2, 3)), wide)
    pairs.append((hog, _relabelled(hog, rng.sample(range(5), 5))))
    short = validate([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    longer = validate([[0, F(3, 2), 2], [F(3, 2), 0, 2], [2, 2, 0]])
    pairs.append((scale(short, wide), scale(longer, wide)))
    return pairs


@pytest.mark.parametrize("x, y", _small_isometry_pairs())
def test_isometry_cells_match_a_permutation_reference(x, y):
    expected = _brute_isometry_cells(x, y)
    assert isometry_cells(x, y) == expected
    assert are_isometric(x, y) == bool(expected)


def _isometry_candidates():
    """8 to 12 points: relabelled copies, and near misses of the same size
    (one point moved one unit, one needle nudged below the longest two);
    each pair also with both sides scaled to values over 1,000 bits wide,
    which fill multi-byte mask fields at t = 0."""
    rng = rng_from_seed(1212)
    pairs = []
    for n in range(8, 13):
        points = rng.sample([(a, b) for a in range(12) for b in range(12)], n)
        x = _sup_space(points, 3, "x")
        pairs.append((x, _relabelled(x, rng.sample(range(n), n))))
        moved = list(points)
        moved[1] = (moved[1][0] + 1, moved[1][1])
        if moved[1] not in points:
            near = _sup_space(moved, 3, "y")
            pairs.append((x, _relabelled(near, rng.sample(range(n), n))))
        needles = [F(rng.randint(1, 24), 8) for _ in range(n - 1)]
        needles[:2] = [needles[2], needles[2]]  # a repeated needle
        hog = compile_hedgehog(HedgehogSpec.of(*needles))
        pairs.append((hog, _relabelled(hog, rng.sample(range(n), n))))
        nudged = sorted(needles)
        nudged[0] += F(1, 16)
        pairs.append((hog, compile_hedgehog(HedgehogSpec.of(*nudged))))
    wide = F(2**1024 + 1, 2**1024 - 1)
    return pairs + [(scale(x, wide), scale(y, wide)) for x, y in pairs]


@pytest.mark.parametrize("x, y", _isometry_candidates())
def test_are_isometric_is_gh_zero_at_8_to_12_points(x, y):
    assert are_isometric(x, y) == (gh_exact(x, y).value == 0)
    assert bool(isometry_cells(x, y)) == are_isometric(x, y)


def test_isometry_search_rejects_pseudo_spaces():
    pseudo = FiniteMetricSpace(("a", "b"), ((F(0), F(0)), (F(0), F(0))), PSEUDO)
    strict = validate([[0, 1], [1, 0]])
    for x, y in ((pseudo, pseudo), (pseudo, strict), (strict, pseudo)):
        with pytest.raises(ValueError, match="requires strict spaces"):
            are_isometric(x, y)
        with pytest.raises(ValueError, match="requires strict spaces"):
            isometry_cells(x, y)


def test_isometry_search_counts_against_the_node_budget(monkeypatch):
    twin = validate([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    other = validate([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    monkeypatch.setattr(solver, "NODE_BUDGET", 0)
    with pytest.raises(TooLarge, match="budget of 0 nodes"):
        are_isometric(twin, twin)
    with pytest.raises(TooLarge, match="budget of 0 nodes"):
        isometry_cells(twin, twin)
    # different diameters settle the question before any search
    assert not are_isometric(twin, other)
    assert isometry_cells(twin, other) == frozenset()


# 10 to 16 points, where the search is stressed: values and lex-min witnesses
# frozen by tests/freeze_solver_golden.py


def _golden_pairs():
    import json
    from pathlib import Path

    def space(grid):
        denom = grid["denominator"]
        return validate([[F(value, denom) for value in row] for row in grid["rows"]])

    with open(Path(__file__).parent / "data" / "solver-golden.json") as f:
        entries = json.load(f)["pairs"]
    return [
        pytest.param(
            space(e["x"]), space(e["y"]), F(e["value"]), e["witness"], id=e["id"]
        )
        for e in entries
    ]


@pytest.mark.parametrize("x, y, value, witness", _golden_pairs())
def test_stressed_golden_values_and_lex_min_witnesses(x, y, value, witness):
    result = gh_exact(x, y)
    assert result.value == value
    assert [list(pair) for pair in result.witness.sorted_pairs()] == witness
    assert distortion(result.witness) == 2 * value


# The node count of every golden solve, as given and with the sides swapped.
# They depend on the branch order alone, so a change to the search that
# keeps that order keeps them all, and one that changes it shows here.
_GOLDEN_NODES = {
    "random-12x12-12002": (15289, 7807),
    "random-14x14-14005": (6211, 3723),
    "random-16x16-16002": (4978, 4316),
    "random-10x16-11600": (5123, 3227),
    "random-16x11-17101": (3074, 1839),
    "random-13x15-14503": (4532, 4262),
    "near_scaled-12x12-12004": (8489, 76),
    "near_scaled-14x14-14005": (38, 46),
    "near_scaled-16x16-16001": (2054, 798),
    "hedgehog-12x12-12005": (212, 325),
    "hedgehog-14x14-14004": (22189, 2628),
    "hedgehog-16x16-16000": (434, 284),
    "hedgehog-16x16-16003": (1578, 268),
}


@pytest.mark.parametrize("x, y, value, witness", _golden_pairs())
def test_stressed_golden_node_counts(x, y, value, witness, request):
    given, swapped = _GOLDEN_NODES[request.node.callspec.id]
    assert gh_exact(x, y).nodes_explored == given
    assert gh_exact(y, x).nodes_explored == swapped


# Swapping the sides and relabelling X both change the search order, so a
# pruning rule that depends on that order shows here as a value above the
# golden one.  The budget is cut to 200,000 nodes, about seven times the
# most (29,526) any other of these solves took over twelve seeded
# relabellings, so an order that blows the search up is refused in a second
# rather than in a minute.  One such order is known: X relabelled on
# near_scaled-16x16-16001 takes 12,586,807 nodes (2,054 unrelabelled) to
# the right value.


@pytest.mark.parametrize("x, y, value, witness", _golden_pairs())
def test_stressed_golden_values_survive_swapping_the_sides(
    x, y, value, witness, monkeypatch
):
    monkeypatch.setattr(solver, "NODE_BUDGET", 200_000)
    result = gh_exact(y, x)
    assert result.value == value
    assert distortion(result.witness) == 2 * value


def _relabelling_pairs():
    blowup = pytest.mark.xfail(
        raises=TooLarge, strict=True, reason="the relabelled search passes the budget"
    )
    return [
        pytest.param(*p.values, id=p.id, marks=blowup)
        if p.id == "near_scaled-16x16-16001"
        else p
        for p in _golden_pairs()
    ]


@pytest.mark.parametrize("x, y, value, witness", _relabelling_pairs())
def test_stressed_golden_values_survive_relabelling(
    x, y, value, witness, monkeypatch
):
    monkeypatch.setattr(solver, "NODE_BUDGET", 200_000)
    order = list(range(len(x)))
    rng_from_seed(100 * len(x) + len(y)).shuffle(order)
    assert order != sorted(order)
    result = gh_exact(_relabelled(x, order), y)
    assert result.value == value
    assert distortion(result.witness) == 2 * value


# 6 to 8 points in the benchmark corpus's three families


def _box_points(rng, n, coord_max=60):
    points = []
    while len(points) < n:
        point = tuple(rng.randrange(coord_max + 1) for _ in range(3))
        if point not in points:
            points.append(point)
    return points


def _corpus_pairs():
    """Per size n: a random n x m pair, X against 5X with one coordinate
    moved one unit, and a hedgehog against a copy with every needle nudged
    by less than 1/4."""
    rng = rng_from_seed(6078)
    pairs = []
    for n, m in ((6, 8), (6, 7), (7, 6), (7, 8), (8, 6), (8, 7)):
        x = random_metric_space(rng, n, label_prefix="x")
        pairs.append((x, random_metric_space(rng, m, label_prefix="y")))
        points = _box_points(rng, n)
        moved = [[5 * c for c in point] for point in points]
        moved[rng.randrange(n)][rng.randrange(3)] += rng.choice((-1, 1))
        pairs.append(
            (_sup_space(points, 6, "x"), _sup_space([tuple(p) for p in moved], 6, "y"))
        )
        spec = HedgehogSpec.from_pairs(
            (F(rng.randint(1, 24), 8), 1) for _ in range(n - 1)
        )
        other, _ = perturbed_hedgehog(rng, spec, F(1, 4))
        pairs.append((compile_hedgehog(spec), compile_hedgehog(other)))
    return pairs


@pytest.mark.parametrize(
    "x, y",
    _corpus_pairs(),
    ids=[
        f"{family}-{n}{round}"
        for n in (6, 7, 8)
        for round in "ab"
        for family in ("random", "near-scaled", "hedgehog")
    ],
)
def test_corpus_symmetry_relabelling_and_witness(x, y):
    result = gh_exact(x, y)
    assert distortion(result.witness) == 2 * result.value
    swapped = gh_exact(y, x)
    assert swapped.value == result.value
    assert distortion(swapped.witness) == 2 * result.value
    rng = random.Random(len(x) * 100 + len(y))
    x_order = rng.sample(range(len(x)), len(x))
    y_order = rng.sample(range(len(y)), len(y))
    relabelled = gh_exact(_relabelled(x, x_order), _relabelled(y, y_order))
    assert relabelled.value == result.value
    assert distortion(relabelled.witness) == 2 * result.value


@pytest.mark.parametrize("n", [8, 9, 10])
def test_large_scaled_copy_closed_form(n):
    x = random_metric_space(rng_from_seed(n), n)
    for lam in (F(1, 2), F(3, 2), F(5)):
        value = gh_exact(x, scale(x, lam)).value
        assert value == abs(1 - lam) * diameter(x) / 2
