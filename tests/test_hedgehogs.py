import json
import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from freeze_center_golden import outcome, spec_from_record

from ghkit import hedgehogs
from ghkit.correspondences import Correspondence, distortion
from ghkit.errors import (
    BucketMismatch,
    NonpositiveScale,
    PremiseViolated,
    TooLarge,
    ZeroDistortion,
)
from ghkit.generate import dense_hedgehog_spec, perturbed_hedgehog, rng_from_seed
from ghkit.hedgehogs import (
    HedgehogSpec,
    bucket_correspondence,
    check_center_location,
    compile_hedgehog,
    hedgehog_isometric,
)
from ghkit.solver import gh_exact, gh_upper_from, isometry_cells
from ghkit.spaces import STRICT, as_fraction, scale, validate


def test_spec_normalization_and_validation():
    spec = HedgehogSpec.from_pairs([(F(2), 1), (F(1), 1), (F(2), 1)])
    assert spec.needles == ((F(1), 1), (F(2), 2))
    assert spec.point_count == 4
    with pytest.raises(ValueError):
        HedgehogSpec.from_pairs([(F(0), 1)])
    with pytest.raises(ValueError):
        HedgehogSpec.from_pairs([(F(1), 0)])
    with pytest.raises(ValueError):
        HedgehogSpec(())


@pytest.mark.parametrize(
    "needles",
    [
        ((F(2), 1), (F(1), 1)),
        ((F(1), 1), (F(1), 2)),
        ((F(1), 1), (1, 1)),  # an int equal to a Fraction is the same length
        ((F(1), 1), (F(3), 1), (F(2), 1)),
    ],
)
def test_spec_refuses_unsorted_or_repeated_lengths(needles):
    with pytest.raises(ValueError, match="sorted with distinct lengths"):
        HedgehogSpec(needles)
    merged = HedgehogSpec.from_pairs(needles)  # merges and sorts them
    assert [x for x, _ in merged.needles] == sorted({F(x) for x, _ in needles})


@pytest.mark.parametrize("seed", range(8))
def test_from_pairs_sorts_as_fractions_do(seed):
    # thirds, sevenths and 1/64 steps interleave closely: 21/64 < 1/3 < 22/64
    rng = rng_from_seed(seed)
    denominators = (1, 2, 3, 5, 7, 8, 12, 64)
    pairs = [
        (F(rng.randint(1, 60), rng.choice(denominators)), rng.randint(1, 3))
        for _ in range(rng.randint(1, 20))
    ]
    pairs += [(rng.randint(1, 6), 1) for _ in range(rng.randint(0, 3))]
    pairs += [(x, 1) for x in (F(22, 64), F(1, 3), F(21, 64), F(2, 7), F(18, 64))]
    merged: dict[F, int] = {}
    for length, mult in pairs:
        merged[F(length)] = merged.get(F(length), 0) + mult
    spec = HedgehogSpec.from_pairs(pairs)
    assert spec.needles == tuple(sorted(merged.items()))
    assert all(type(length) is F for length, _ in spec.needles)


def _fraction_keyed_from_pairs(pairs):
    """The `Fraction`-keyed merge `HedgehogSpec.from_pairs` replaced."""
    merged = {}
    for length, mult in pairs:
        if not isinstance(mult, int):
            raise ValueError("multiplicities must be integers")
        if mult < 1:
            raise ValueError("multiplicities must be positive")
        key = as_fraction(length)
        merged[key] = merged.get(key, 0) + mult
    denom = math.lcm(*(x.denominator for x in merged))
    order = sorted(merged, key=lambda x: x.numerator * (denom // x.denominator))
    return HedgehogSpec(tuple([(x, merged[x]) for x in order]))


def _spec_outcome(build, pairs):
    try:
        spec = build(pairs)
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))
    return (spec, repr(spec), spec.grid)


def test_from_pairs_matches_the_fraction_keyed_merge():
    rng = rng_from_seed(340)
    bad = ((1.5, 1), (F(1), 0), (F(1), -2), (2, 0.5), (F(-1, 2), 1), (0, 1))
    refused = 0
    for _ in range(3000):
        pairs = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.3:
                length = rng.randint(1, 9)  # an int, often equal to a Fraction below
            else:
                length = F(rng.randint(1, 200), rng.randint(1, 64))
            pairs.append((length, rng.randint(1, 3)))
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # repeated lengths
        if rng.random() < 0.2:
            pairs.insert(rng.randrange(len(pairs) + 1), rng.choice(bad))
        got = _spec_outcome(HedgehogSpec.from_pairs, pairs)
        assert got == _spec_outcome(_fraction_keyed_from_pairs, pairs)
        refused += isinstance(got[0], type)
    assert 300 < refused < 900


def test_from_pairs_hashes_no_fraction(monkeypatch):
    spec = dense_hedgehog_spec(rng_from_seed(3), 14, 3)
    pairs = spec.needles + tuple((x, 1) for x, _ in spec.needles)

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(F, "__hash__", refuse)
    merged = HedgehogSpec.from_pairs(pairs)
    assert merged.needles == tuple((x, mult + 1) for x, mult in spec.needles)


def test_direct_spec_refuses_a_zero_multiplicity():
    with pytest.raises(ValueError, match="^multiplicities must be positive$"):
        HedgehogSpec(((F(1), 0),))


def test_direct_spec_refuses_a_float_length_by_type():
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        HedgehogSpec(((1.5, 1),))


def test_spec_grid_is_one_int_per_distinct_length():
    spec = HedgehogSpec.from_pairs([(F(1, 2), 3), (F(2, 3), 1), (2, 2)])
    assert spec.grid == (6, (3, 4, 12))
    assert spec == HedgehogSpec(((F(1, 2), 3), (F(2, 3), 1), (F(2), 2)))
    assert "grid" not in repr(spec)
    # a legal line of ten million copies keeps one int: the point cap refuses it later
    assert HedgehogSpec(((F(1, 3), 10**7),)).grid == (3, (1,))


def test_a_spec_built_from_lists_equals_its_tuple_twin():
    twin = HedgehogSpec(((F(1, 2), 1), (F(2), 3)))
    for needles in ([[F(1, 2), 1], [F(2), 3]], [(F(1, 2), 1), (F(2), 3)]):
        spec = HedgehogSpec(needles)
        assert spec == twin and hash(spec) == hash(twin)
        assert spec.needles == ((F(1, 2), 1), (F(2), 3))
    assert HedgehogSpec(pair for pair in twin.needles) == twin


def test_non_integer_multiplicities_are_refused():
    # from_pairs used to truncate with int(): 3/2 gave one needle, 2.7 two
    for mult in (F(3, 2), 2.7, 2.0, F(2), "2"):
        with pytest.raises(ValueError, match="integers"):
            HedgehogSpec.from_pairs([(F(1), mult)])
        with pytest.raises(ValueError, match="integers"):
            HedgehogSpec(((F(1), mult),))
    # refused per pair, before two halves could merge into a whole count
    with pytest.raises(ValueError, match="integers"):
        HedgehogSpec.from_pairs([(F(1), F(1, 2)), (F(1), F(1, 2))])


def test_compile_single_needle():
    space = compile_hedgehog(HedgehogSpec.of(1))
    assert space.dist == ((F(0), F(1)), (F(1), F(0)))


def test_compile_two_needles_matches_intrinsic_matrix():
    space = compile_hedgehog(HedgehogSpec.of(1, 2))
    assert [list(row) for row in space.dist] == [
        [0, 1, 2],
        [1, 0, 3],
        [2, 3, 0],
    ]


def test_compile_multiplicity_two():
    space = compile_hedgehog(HedgehogSpec.from_pairs([(F(1), 2)]))
    assert [list(row) for row in space.dist] == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    assert space.labels == ("0", "1#1", "1#2")


def test_compile_always_strict():
    for lengths in ([F(1, 3)], [F(1), F(5, 2)], [F(1, 2), F(1), F(7, 4)]):
        spec = HedgehogSpec.from_pairs((x, 2) for x in lengths)
        compiled = compile_hedgehog(spec)
        validate(compiled.dist, STRICT, compiled.labels)


def test_scaled_hedgehog_equals_hedgehog_of_scaled_needles():
    spec = HedgehogSpec.of(1, 2)
    assert scale(compile_hedgehog(spec), 2).dist == compile_hedgehog(
        HedgehogSpec.of(2, 4)
    ).dist


def test_isometric_is_multiset_equality():
    assert hedgehog_isometric(HedgehogSpec.of(1, 2), HedgehogSpec.of(2, 1))
    assert not hedgehog_isometric(HedgehogSpec.of(1, 2), HedgehogSpec.of(1, 3))
    assert not hedgehog_isometric(
        HedgehogSpec.from_pairs([(F(1), 2)]), HedgehogSpec.of(1)
    )


def test_isometric_agrees_with_exhaustive_search():
    a = compile_hedgehog(HedgehogSpec.of(1, 2))
    b = compile_hedgehog(HedgehogSpec.of(1, 3))
    assert isometry_cells(a, a)
    assert not isometry_cells(a, b)


def test_isometric_agrees_with_gh_zero_on_small_specs():
    lengths = (F(1), F(2), F(3))
    specs = []
    for mults in product((0, 1, 2), repeat=3):
        if any(mults) and 1 + sum(mults) <= 5:
            specs.append(
                HedgehogSpec.from_pairs(
                    (x, m) for x, m in zip(lengths, mults) if m
                )
            )
    for a in specs:
        for b in specs:
            expected = hedgehog_isometric(a, b)
            value = gh_exact(compile_hedgehog(a), compile_hedgehog(b)).value
            assert (value == 0) == expected  # finite closure analogue


def _rigidity_specs():
    """The 80 specs of the hedgehog-rigidity check: lengths 1..4, each 0-2 times."""
    lengths = (F(1), F(2), F(3), F(4))
    return [
        HedgehogSpec.from_pairs((x, m) for x, m in zip(lengths, mults) if m)
        for mults in product((0, 1, 2), repeat=4)
        if any(mults)
    ]


def test_isometric_is_needle_equality_on_the_rigidity_specs():
    specs = _rigidity_specs()
    assert len(specs) == 80
    for a in specs:
        for b in specs:
            assert hedgehog_isometric(a, b) == (a.needles == b.needles)


_needle_lengths = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6]))
_needle_pairs = st.lists(
    st.tuples(_needle_lengths, st.integers(1, 3)), min_size=1, max_size=5
)


@st.composite
def _spec_pairs(draw):
    """A spec and a second one that is often equal to it or close: the same
    needles with int lengths where they are whole, new multiplicities on
    the same lengths, one length redrawn, or a fresh draw."""
    pairs = draw(_needle_pairs)
    a = HedgehogSpec.from_pairs(pairs)
    kind = draw(st.sampled_from(["ints", "multiplicities", "length", "fresh"]))
    if kind == "ints":
        b = HedgehogSpec(
            tuple((int(x) if x.denominator == 1 else x, k) for x, k in a.needles)
        )
    elif kind == "multiplicities":
        b = HedgehogSpec(tuple((x, draw(st.integers(1, 3))) for x, _ in a.needles))
    elif kind == "length":
        index = draw(st.integers(0, len(pairs) - 1))
        pairs[index] = (draw(_needle_lengths), pairs[index][1])
        b = HedgehogSpec.from_pairs(pairs)
    else:
        b = HedgehogSpec.from_pairs(draw(_needle_pairs))
    return a, b


@given(_spec_pairs())
def test_isometric_is_needle_equality_on_drawn_specs(pair):
    a, b = pair
    assert hedgehog_isometric(a, b) == (a.needles == b.needles)
    assert hedgehog_isometric(b, a) == (a.needles == b.needles)


def test_scale_isometry_check():
    # a scaled hedgehog is isometric to itself only at factor 1: scaling
    # must fix both its largest and its smallest needle
    spec = HedgehogSpec.of(1, 2)
    assert hedgehog_isometric(spec.scaled(1), spec)
    assert not hedgehog_isometric(spec.scaled(2), spec)
    # only ratios of needle lengths could work, and none do except 1
    lengths = [x for x, _ in spec.needles]
    for a in lengths:
        for b in lengths:
            lam = a / b
            assert hedgehog_isometric(spec.scaled(lam), spec) == (lam == 1)


def test_bucket_correspondence_buckets_are_half_open():
    # bucket n is ((n-1)*eps, n*eps]: 1/4 and 1/2 share bucket 1, 3/4 and 1 bucket 2
    eps = F(1, 2)
    a, b = HedgehogSpec.of(F(1, 4), F(3, 4)), HedgehogSpec.of(F(1, 2), F(1))
    assert bucket_correspondence(a, b, eps).pairs == {(0, 0), (1, 1), (2, 2)}
    with pytest.raises(BucketMismatch) as excinfo:
        bucket_correspondence(HedgehogSpec.of(F(1, 2)), HedgehogSpec.of(F(3, 4)), eps)
    mismatch = excinfo.value
    assert (mismatch.bucket, mismatch.count_a, mismatch.count_b) == (1, 1, 0)


def test_bucket_identity_on_equal_specs():
    spec = HedgehogSpec.of(F(1, 2), 1, 2)
    rel = bucket_correspondence(spec, spec, F(1, 4))
    assert distortion(rel) == 0


def test_bucket_matched_grids_within_two_eps():
    for eps in (F(1), F(1, 2), F(1, 4), F(1, 8)):
        a = HedgehogSpec.from_pairs((eps * k, 1) for k in range(1, 9))
        b = HedgehogSpec.from_pairs((eps * F(2 * k - 1, 2), 1) for k in range(1, 9))
        rel = bucket_correspondence(a, b, eps)
        assert distortion(rel) <= 2 * eps
        assert gh_upper_from(rel) <= eps
        assert (0, 0) in rel.pairs


def test_bucket_mismatch_reported_with_counts():
    a = HedgehogSpec.of(F(1, 4), F(3, 4))
    b = HedgehogSpec.of(F(1, 4), F(1, 2))
    with pytest.raises(BucketMismatch) as excinfo:
        bucket_correspondence(a, b, F(1, 2))
    assert excinfo.value.bucket == 1
    assert (excinfo.value.count_a, excinfo.value.count_b) == (1, 2)


def _dict_bucket_correspondence(a, b, eps):
    """The dict-of-index-lists matcher `bucket_correspondence` replaced."""
    eps = F(eps)
    compiled_a, compiled_b = compile_hedgehog(a), compile_hedgehog(b)
    buckets_a, buckets_b = {}, {}
    for spec, buckets in ((a, buckets_a), (b, buckets_b)):
        for idx, x in enumerate(spec.expanded(), start=1):
            n = -(-x.numerator * eps.denominator // (x.denominator * eps.numerator))
            buckets.setdefault(n, []).append(idx)
    pairs = {(0, 0)}
    for n in sorted(set(buckets_a) | set(buckets_b)):
        left, right = buckets_a.get(n, []), buckets_b.get(n, [])
        if len(left) != len(right):
            raise BucketMismatch(n, len(left), len(right))
        pairs.update(zip(left, right))
    return Correspondence(compiled_a, compiled_b, frozenset(pairs))


def _bucket_outcome(match, a, b, eps):
    try:
        rel = match(a, b, eps)
    except BucketMismatch as exc:
        return ("mismatch", exc.bucket, exc.count_a, exc.count_b, str(exc))
    return ("matched", rel.left, rel.right, rel.sorted_pairs())


@pytest.fixture
def compiled(monkeypatch):
    """The specs `hedgehogs.compile_hedgehog` is called on, in call order."""
    calls, real = [], hedgehogs.compile_hedgehog
    monkeypatch.setattr(
        hedgehogs, "compile_hedgehog", lambda spec: calls.append(spec) or real(spec)
    )
    return calls


def test_bucket_correspondence_checks_the_cap_before_the_counts(compiled):
    # 10^7 copies in one bucket against one in another: the cap comes first
    huge = HedgehogSpec(((F(1), 10**7),))
    with pytest.raises(TooLarge, match="^hedgehog has 10000001 points, cap is"):
        bucket_correspondence(huge, HedgehogSpec.of(2), 1)
    with pytest.raises(TooLarge, match="^hedgehog has 10000001 points, cap is"):
        bucket_correspondence(HedgehogSpec.of(2), huge, 1)
    assert compiled == []


def test_bucket_correspondence_matches_the_dict_matcher_on_seeded_pairs(compiled):
    rng = rng_from_seed(34)
    outcomes = {"matched": 0, "mismatch": 0}
    for _ in range(2000):
        eps = F(rng.randint(1, 4), rng.choice((1, 2, 3, 4, 8)))
        left = [F(rng.randint(1, 48), rng.choice((1, 2, 3, 4, 8))) for _ in range(6)]
        left = left[: rng.randint(1, 6)]
        if rng.random() < 0.6:  # each copy moved inside its own bucket
            right = [
                eps * (-(-x // eps) - 1) + eps * F(rng.randint(1, 8), 8) for x in left
            ]
            if rng.random() < 0.3:  # a copy dropped, or every copy doubled
                right = right[1:] if right[1:] and rng.random() < 0.5 else right * 2
        else:
            right = [F(rng.randint(1, 48), rng.choice((1, 2, 4))) for _ in left]
        a = HedgehogSpec.from_pairs((x, 1) for x in left)
        b = HedgehogSpec.from_pairs((x, 1) for x in right)
        got = _bucket_outcome(bucket_correspondence, a, b, eps)
        assert compiled == ([a, b] if got[0] == "matched" else [])
        compiled.clear()
        assert got == _bucket_outcome(_dict_bucket_correspondence, a, b, eps)
        outcomes[got[0]] += 1
    assert min(outcomes.values()) > 500  # both branches are exercised


@pytest.mark.parametrize("factor", [0, -1, F(-1, 2)])
def test_scaling_refuses_a_nonpositive_factor_by_name(factor):
    # the same error and text as scaling a space
    spec = HedgehogSpec.of(1, 2)
    message = f"scale factor must be positive, got {F(factor)}$"
    with pytest.raises(NonpositiveScale, match=message):
        spec.scaled(factor)
    with pytest.raises(NonpositiveScale, match=message):
        scale(compile_hedgehog(spec), factor)


def test_bucket_rejects_nonpositive_eps():
    spec = HedgehogSpec.of(1)
    with pytest.raises(ValueError):
        bucket_correspondence(spec, spec, 0)


def test_center_location_perturbed_pair_passes():
    rng = rng_from_seed(41)
    spec = HedgehogSpec.of(F(3, 4), F(5, 4), 2, 3)
    m = F(1, 4)
    other, rel = perturbed_hedgehog(rng, spec, m)
    report = check_center_location(spec, other, rel, m)
    assert report.center_bound_ok
    assert report.center_distance < 4 * m
    assert report.coverage_ok
    assert report.near_probe is not None and report.near_probe_ok
    assert report.passed
    # needles of length >= 5M = 5/4 must appear among the far witnesses
    far_lengths = {w.length for w in report.far_needles}
    assert F(2) in far_lengths and F(3) in far_lengths


@pytest.mark.parametrize(
    "change",
    [{"center_bound_ok": False}, {"coverage_ok": False}, {"near_probe_ok": False}],
    ids=["centers-apart", "far-needle-uncovered", "near-band-broken"],
)
def test_center_location_report_fails_on_any_broken_conclusion(change):
    spec = HedgehogSpec.of(F(3, 4), F(5, 4), 2, 3)
    other, rel = perturbed_hedgehog(rng_from_seed(41), spec, F(1, 4))
    report = check_center_location(spec, other, rel, F(1, 4))
    assert report.passed is True
    assert replace(report, near_probe=None, near_probe_ok=None).passed is True
    assert replace(report, **change).passed is False


def test_center_location_needs_two_tall_needles():
    rng = rng_from_seed(43)
    short = HedgehogSpec.of(F(1, 8), F(1, 16))
    other, rel = perturbed_hedgehog(rng, short, F(1, 4))
    with pytest.raises(PremiseViolated):
        check_center_location(short, other, rel, F(1, 4))


def test_center_location_needs_coverage():
    spec = HedgehogSpec.of(2, 3)
    other = HedgehogSpec.of(F(5, 2), F(7, 2))
    compiled, compiled_other = compile_hedgehog(spec), compile_hedgehog(other)
    rel = Correspondence(
        compiled, compiled_other, frozenset({(0, 0), (1, 1), (2, 2)})
    )
    # dis = 1, so the copies sit 1/2 apart: far beyond M = 1/8 coverage
    with pytest.raises(PremiseViolated):
        check_center_location(spec, other, rel, F(1, 8))


def test_center_location_skips_probe_without_center_match():
    # centers matched to the tiny needles: a correspondence without the
    # center pair whose distortion stays small
    spec = HedgehogSpec.of(F(1, 4), 8, 12)
    compiled = compile_hedgehog(spec)
    rel = Correspondence(
        compiled, compiled, frozenset({(0, 1), (1, 0), (2, 2), (3, 3)})
    )
    assert distortion(rel) == F(1, 4)
    report = check_center_location(spec, spec, rel, F(1, 4))
    assert report.near_probe is None and report.near_probe_ok is None


def test_center_location_refuses_a_correspondence_over_other_spaces():
    spec, other = HedgehogSpec.of(2, 3), HedgehogSpec.of(2, 4)
    compiled, compiled_other = compile_hedgehog(spec), compile_hedgehog(other)
    rel = Correspondence(compiled, compiled_other, frozenset((i, i) for i in range(3)))
    with pytest.raises(ValueError, match="does not match the compiled hedgehogs"):
        check_center_location(spec, spec, rel, F(1, 4))
    with pytest.raises(ValueError, match="does not match the compiled hedgehogs"):
        check_center_location(other, other, rel, F(1, 4))


def test_center_location_zero_distortion_propagates():
    spec = HedgehogSpec.of(2, 3)
    compiled = compile_hedgehog(spec)
    rel = Correspondence(
        compiled, compiled, frozenset((i, i) for i in range(3))
    )
    with pytest.raises(ZeroDistortion):
        check_center_location(spec, spec, rel, F(1))


# seeded trials over four M, matched and unmatched centers and premise
# failures, frozen by tests/freeze_center_golden.py


def _center_golden():
    with open(Path(__file__).parent / "data" / "center-golden.json") as f:
        return [pytest.param(e, id=e["id"]) for e in json.load(f)["cases"]]


@pytest.mark.parametrize("entry", _center_golden())
def test_center_location_matches_golden(entry):
    a, b = spec_from_record(entry["a"]), spec_from_record(entry["b"])
    got = outcome(a, b, map(tuple, entry["pairs"]), F(entry["m"]))
    assert got == {key: entry[key] for key in ("report", "error") if key in entry}
