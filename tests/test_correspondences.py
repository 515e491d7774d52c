import ast
import json
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import correspondences
from ghkit.correspondences import (
    Correspondence,
    covering_masks,
    distortion,
    enumerate_correspondences,
    enumerate_pair_sets,
    full_correspondence,
    identity_correspondence,
    line_masks,
    min_distortion_by_enumeration,
)
from ghkit.errors import TooLarge
from ghkit.generate import random_metric_space, rng_from_seed
from ghkit.solver import gh_exact
from ghkit.spaces import diameter, validate


@pytest.fixture
def gap_pair():
    return validate([[0, 1], [1, 0]]), validate([[0, 3], [3, 0]])


def test_identity_has_zero_distortion(gap_pair):
    x, _ = gap_pair
    assert distortion(identity_correspondence(x)) == 0


def test_single_pair_has_zero_distortion():
    x = validate([[0]], labels=["a"])
    y = validate([[0]], labels=["b"])
    rel = Correspondence(x, y, frozenset({(0, 0)}))
    assert distortion(rel) == 0


def test_full_relation_distortion_is_max_diameter(gap_pair):
    x, y = gap_pair
    rel = full_correspondence(x, y)
    assert distortion(rel) == max(diameter(x), diameter(y))
    # brute-force the same maximum over all pairs of matched pairs
    brute = max(
        abs(x.dist[i][k] - y.dist[j][l])
        for (i, j) in rel.pairs
        for (k, l) in rel.pairs
    )
    assert distortion(rel) == brute


def test_bijection_between_gap_spaces(gap_pair):
    x, y = gap_pair
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1)}))
    assert distortion(rel) == 2


def test_correspondence_requires_coverage(gap_pair):
    x, y = gap_pair
    with pytest.raises(ValueError):
        Correspondence(x, y, frozenset({(0, 0)}))  # misses x1 and y1
    with pytest.raises(ValueError):
        Correspondence(x, y, frozenset())
    with pytest.raises(ValueError):
        Correspondence(x, y, frozenset({(0, 0), (1, 1), (2, 0)}))


def test_correspondences_on_the_same_pairs_are_equal_whatever_the_collection(
    gap_pair,
):
    x, y = gap_pair
    pairs = [(0, 0), (1, 1)]
    rels = [Correspondence(x, y, p) for p in (pairs, set(pairs), frozenset(pairs))]
    assert all(type(rel.pairs) is frozenset for rel in rels)
    assert rels[0] == rels[1] == rels[2] and len(set(rels)) == 1
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        Correspondence(x, y, [[0, 0], [1, 1]])


def _generator(pairs):
    return (pair for pair in pairs)


@pytest.mark.parametrize("one_shot", [_generator, iter], ids=["generator", "iterator"])
def test_a_correspondence_reads_a_one_shot_iterable_once(gap_pair, one_shot):
    x, y = gap_pair
    pairs = [(0, 0), (1, 1)]
    rel = Correspondence(x, y, one_shot(pairs))
    twin = Correspondence(x, y, frozenset(pairs))
    assert rel == twin and hash(rel) == hash(twin) and type(rel.pairs) is frozenset
    # the errors of the given order, as for any collection
    with pytest.raises(ValueError, match=r"^pair \(5, 0\) out of range$"):
        Correspondence(x, y, one_shot([(0, 0), (5, 0), (0, 9)]))
    with pytest.raises(ValueError, match="^not surjective onto the right space$"):
        Correspondence(x, y, one_shot([(0, 0), (1, 0)]))


def _reference_check(pairs, n, m):
    """Reference: `Correspondence`'s checks as one loop over the pairs, then
    the two surjectivity tests."""
    if not pairs:
        raise ValueError("a correspondence needs at least one pair")
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < m):
            raise ValueError(f"pair ({i}, {j}) out of range")
    if {i for i, _ in pairs} != set(range(n)):
        raise ValueError("not surjective onto the left space")
    if {j for _, j in pairs} != set(range(m)):
        raise ValueError("not surjective onto the right space")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _path(n):
    return validate([[abs(i - j) for j in range(n)] for i in range(n)])


_SIDES = {n: _path(n) for n in range(1, 5)}


@st.composite
def _faulty_pair_sets(draw):
    """(n, m, pairs) on grids up to 4x4: a covering pair set, then any of
    the faults at once: no pairs, a negative or too-large index on either
    side, a row or a column with no pair."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = {(i, draw(st.integers(0, m - 1))) for i in range(n)}
    pairs |= {(draw(st.integers(0, n - 1)), j) for j in range(m)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))))
    faults = draw(st.sets(st.sampled_from(["row", "column", "low", "high", "empty"])))
    if "row" in faults:
        row = draw(st.integers(0, n - 1))
        pairs = {(i, j) for i, j in pairs if i != row}
    if "column" in faults:
        column = draw(st.integers(0, m - 1))
        pairs = {(i, j) for i, j in pairs if j != column}
    side = st.sampled_from([0, 1])
    if "low" in faults:
        bad = [draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))]
        bad[draw(side)] = draw(st.integers(-3, -1))
        pairs.add(tuple(bad))
    if "high" in faults:
        bad = [draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))]
        index = draw(side)
        bad[index] = draw(st.integers(0, 2)) + (n, m)[index]
        pairs.add(tuple(bad))
    if "empty" in faults:
        pairs = set()
    return n, m, frozenset(pairs)


@settings(max_examples=300, deadline=None)
@given(_faulty_pair_sets())
def test_correspondence_errors_equal_the_reference_loop(case):
    n, m, pairs = case
    expected = _outcome(_reference_check, pairs, n, m)
    assert _outcome(Correspondence, _SIDES[n], _SIDES[m], pairs) == expected


@pytest.mark.parametrize(
    "pairs",
    [
        *({(0,)}, {0}, {"ab"}, {(0, 0), (1,)}, {(0, 0), (1, "a")}),
        *({(0.0, 0), (1, 1)}, {(0, 0, 0), (1, 1, 1)}, {(0, 0), (1, 1, 1)}),
    ],
)
def test_correspondence_errors_on_malformed_pairs_equal_the_reference_loop(pairs):
    pairs = frozenset(pairs)
    expected = _outcome(_reference_check, pairs, 2, 2)
    assert _outcome(Correspondence, _SIDES[2], _SIDES[2], pairs) == expected


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (3, 5), (32, 32)])
def test_line_masks_are_shared_immutable_tables(n, m):
    masks = line_masks(n, m)
    assert isinstance(masks, tuple) and masks is line_masks(n, m)
    assert masks == line_masks.__wrapped__(n, m)
    assert line_masks.cache_info().maxsize is not None


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4), (4, 5)])
def test_oracle_bitsets_are_shared_immutable_tables(n, m):
    covering, has = correspondences._set_bits(n, m)
    assert isinstance(has, tuple) and has is correspondences._set_bits(n, m)[1]
    assert (covering, has) == correspondences._set_bits.__wrapped__(n, m)
    assert correspondences._set_bits.cache_info().maxsize is not None


def test_refused_oracle_shapes_are_never_cached():
    before = correspondences._set_bits.cache_info().currsize
    for n, m in ((5, 5), (0, 2)):
        with pytest.raises((TooLarge, ValueError)):
            correspondences._set_bits(n, m)
    assert correspondences._set_bits.cache_info().currsize == before


@pytest.mark.parametrize(
    "n,m,count",
    [(1, 1, 1), (2, 2, 7), (1, 2, 1), (1, 3, 1), (1, 4, 1)],
)
def test_enumeration_counts(n, m, count):
    assert sum(1 for _ in enumerate_pair_sets(n, m)) == count


def test_enumeration_yields_distinct_valid_relations():
    seen = set()
    for pairs in enumerate_pair_sets(2, 3):
        assert pairs not in seen
        seen.add(pairs)
        assert {i for i, _ in pairs} == {0, 1}
        assert {j for _, j in pairs} == {0, 1, 2}


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        list(enumerate_pair_sets(5, 5))


@pytest.mark.parametrize("n,m", [(0, 2), (2, 0), (-1, -1)])
def test_enumeration_refuses_an_empty_side(n, m):
    with pytest.raises(ValueError, match="^sizes must be positive$"):
        list(enumerate_pair_sets(n, m))


def test_enumerate_correspondences_objects(gap_pair):
    x, y = gap_pair
    rels = list(enumerate_correspondences(x, y))
    assert len(rels) == 7
    assert min(distortion(rel) for rel in rels) == 2


def test_min_distortion_by_enumeration_matches_sweep(gap_pair):
    x, y = gap_pair
    value, witness = min_distortion_by_enumeration(x, y)
    assert value == F(2)
    assert distortion(witness) == value


# every size pair up to 3x4 and 4x3, then a few 4x4 draws
ORACLE_SIZES = [(n, m) for n in range(1, 5) for m in range(1, 5) if n * m <= 12]


@pytest.mark.parametrize(
    "n,m,seed", [(n, m, 0) for n, m in ORACLE_SIZES] + [(4, 4, s) for s in (1, 2)]
)
def test_oracle_returns_the_first_minimizer_in_enumeration_order(n, m, seed):
    # integer coordinates up to 3 make tied distortions common, so this pins
    # the tie-break as well as the value
    rng = rng_from_seed(100 * n + 10 * m + seed)
    for _ in range(3 if n * m <= 12 else 1):
        x = random_metric_space(rng, n, denominator=1, coord_max=3)
        y = random_metric_space(rng, m, denominator=1, coord_max=3)
        first = min(enumerate_correspondences(x, y), key=distortion)
        assert min_distortion_by_enumeration(x, y) == (distortion(first), first)


@pytest.mark.parametrize("size", [5, 8])
def test_oracle_guard_runs_before_the_table_is_allocated(size):
    x = random_metric_space(rng_from_seed(size), size)
    with pytest.raises(TooLarge, match="guard is 20"):
        min_distortion_by_enumeration(x, x)


SMALL_SHAPES = [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]


@pytest.mark.parametrize("n,m", SMALL_SHAPES)
def test_covering_masks_match_the_naive_line_test(n, m):
    lines = line_masks(n, m)
    naive = [s for s in range(1, 1 << (n * m)) if all(s & line for line in lines)]
    assert list(covering_masks(n, m)) == naive


@pytest.mark.parametrize("n,m", [(4, 5), (5, 4), (2, 10)])
def test_covering_mask_count_at_the_guard(n, m):
    # 0/1 matrices with no empty row or column, by inclusion-exclusion on rows
    expected = sum(
        (-1) ** k * comb(n, k) * (2 ** (n - k) - 1) ** m for k in range(n + 1)
    )
    assert sum(1 for _ in covering_masks(n, m)) == expected


@pytest.mark.parametrize("n,m,seed", [(4, 5, 45), (2, 10, 210)])
def test_oracle_matches_the_solver_at_the_guard(n, m, seed):
    rng = rng_from_seed(seed)
    x, y = random_metric_space(rng, n), random_metric_space(rng, m)
    value, witness = min_distortion_by_enumeration(x, y)
    assert value == 2 * gh_exact(x, y).value
    assert distortion(witness) == value


# 13 to 20 cells with tied distortions: values and first covering minimizers
# frozen by tests/freeze_oracle_golden.py


def _oracle_golden():
    def space(grid):
        denom = grid["denominator"]
        return validate([[F(value, denom) for value in row] for row in grid["rows"]])

    with open(Path(__file__).parent / "data" / "oracle-golden.json") as f:
        entries = json.load(f)["pairs"]
    return [
        pytest.param(
            space(e["x"]), space(e["y"]), F(e["value"]), e["witness"], id=e["id"]
        )
        for e in entries
    ]


@pytest.mark.parametrize("x, y, value, witness", _oracle_golden())
def test_oracle_golden_values_and_first_minimizers(x, y, value, witness):
    got, rel = min_distortion_by_enumeration(x, y)
    assert got == value
    assert [list(pair) for pair in rel.sorted_pairs()] == witness
    assert distortion(rel) == value


def test_correspondences_import_nothing_from_the_solver():
    # the oracle is the solver's independent reference
    source = (Path(__file__).parents[1] / "src/ghkit/correspondences.py").read_text()
    imported = [
        f"{getattr(node, 'module', None) or ''}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not any("solver" in name for name in imported)
