import itertools
import random
from fractions import Fraction as F

import pytest

from ghkit import generate, spaces
from ghkit.correspondences import Correspondence, distortion
from ghkit.errors import TooLarge
from ghkit.generate import (
    dense_hedgehog_spec,
    grid_hedgehog,
    perturbed_hedgehog,
    random_correspondence,
    random_gluing_tree,
    random_metric_space,
    rng_from_seed,
)
from ghkit.gluing import glue_tree
from ghkit.hedgehogs import HedgehogSpec, compile_hedgehog
from ghkit.spaces import STRICT, validate


def test_random_space_is_deterministic():
    a = random_metric_space(rng_from_seed(10), 5)
    b = random_metric_space(rng_from_seed(10), 5)
    assert a == b


def test_random_space_is_valid_strict():
    for seed in range(5):
        space = random_metric_space(rng_from_seed(seed), 5)
        validate(space.dist, STRICT, space.labels)


def test_random_space_distinct_distances():
    space = random_metric_space(rng_from_seed(4), 4, distinct_distances=True)
    values = [
        space.dist[i][j] for i in range(4) for j in range(i + 1, 4)
    ]
    assert len(set(values)) == len(values)


def test_seeded_draws_are_unchanged():
    # pinned values: seeded spaces must not change.  The distinct draw is
    # accepted on its fourth attempt, so rejected draws must consume the
    # generator the same way.
    rng = rng_from_seed(2024)
    x = random_metric_space(rng, 4, coord_max=12, distinct_distances=True)
    y = random_metric_space(rng, 4, denominator=5)
    assert x.labels == ("p0", "p1", "p2", "p3")
    assert x.dist == tuple(
        tuple(F(d, 6) for d in row)
        for row in [[0, 7, 11, 5], [7, 0, 9, 3], [11, 9, 0, 10], [5, 3, 10, 0]]
    )
    assert y.dist == tuple(
        tuple(F(d, 5) for d in row)
        for row in [[0, 27, 25, 43], [27, 0, 27, 42], [25, 27, 0, 26], [43, 42, 26, 0]]
    )
    assert rng.randrange(10**6) == 447539


@pytest.mark.parametrize("denominator", [1, 2, 4, 6, 12])
def test_random_space_grid_is_the_reduced_grid(denominator):
    # the cached grid must be the one `_grid` builds from the distances,
    # also where every entry shares a factor with the denominator (n = 1)
    rng = rng_from_seed(denominator)
    for n, coord_max in ((1, 0), (2, 2), (5, 4), (7, 60), (30, 60)):
        space = random_metric_space(rng, n, denominator, coord_max)
        assert space.grid == spaces._grid(space.dist)


def test_random_correspondence_covers_and_distorts():
    rng = rng_from_seed(6)
    x = random_metric_space(rng, 3, label_prefix="x")
    y = random_metric_space(rng, 4, label_prefix="y")
    rel = random_correspondence(rng, x, y)
    assert {i for i, _ in rel.pairs} == {0, 1, 2}
    assert {j for _, j in rel.pairs} == {0, 1, 2, 3}
    assert distortion(rel) > 0


def test_random_correspondence_gives_up_with_value_error():
    point = validate([[0]])
    with pytest.raises(ValueError, match="positive distortion"):
        random_correspondence(rng_from_seed(6), point, point)


def test_random_gluing_tree_glues():
    tree = random_gluing_tree(rng_from_seed(8), 4)
    glued = glue_tree(tree)
    assert len(glued.carrier) == sum(len(v) for v in tree.vertices)


def test_grid_hedgehog_quarters():
    spec = grid_hedgehog(F(1, 4), 2)
    assert [length for length, _ in spec.needles] == [
        F(k, 4) for k in range(1, 9)
    ]
    with pytest.raises(ValueError):
        grid_hedgehog(F(1, 4), F(1, 3))


class NoSampling:
    def __getattr__(self, name):
        raise AssertionError("the refusal must come before any sampling")


def test_generator_point_cap_boundary(monkeypatch):
    assert spaces.POINT_CAP == 2000
    monkeypatch.setattr(spaces, "POINT_CAP", 5)
    assert len(random_metric_space(rng_from_seed(1), 5)) == 5
    assert grid_hedgehog(1, 4).point_count == 5
    assert dense_hedgehog_spec(rng_from_seed(1), 2, 1).point_count <= 5
    with pytest.raises(TooLarge):
        random_metric_space(NoSampling(), 6)
    with pytest.raises(TooLarge):
        grid_hedgehog(1, 5)
    with pytest.raises(TooLarge):
        dense_hedgehog_spec(NoSampling(), 3, 1)


def test_perturbed_hedgehog_refuses_a_spec_over_the_cap_before_expanding(monkeypatch):
    # one needle line of 10^7 copies: expanding it first would allocate them all
    spec = HedgehogSpec(((F(1), 10**7),))

    def no_expansion(self):
        raise AssertionError("the point cap must be checked before expanding")

    monkeypatch.setattr(HedgehogSpec, "expanded", no_expansion)
    with pytest.raises(TooLarge, match="hedgehog has 10000001 points"):
        perturbed_hedgehog(NoSampling(), spec, F(1, 4))


def test_dense_spec_counts():
    spec = dense_hedgehog_spec(rng_from_seed(12), 6, 3)
    assert len(spec.needles) == 6
    assert all(0 < x <= 3 for x, _ in spec.needles)


def test_perturbed_hedgehog_contract():
    rng = rng_from_seed(14)
    spec = dense_hedgehog_spec(rng, 5, 2)
    delta = F(1, 16)
    other, rel = perturbed_hedgehog(rng, spec, delta)
    dis = distortion(rel)
    assert 0 < dis < 2 * delta
    assert (0, 0) in rel.pairs
    assert other.point_count == spec.point_count


class ZeroFirstDraw(random.Random):
    """A seeded Random whose first `zeros` randrange calls give 0."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros = zeros
        self.calls = 0

    def randrange(self, *args):
        self.calls += 1
        return 0 if self.calls <= self.zeros else super().randrange(*args)


def test_perturbed_hedgehog_redraws_a_zero_move_once(monkeypatch):
    spec = HedgehogSpec.from_pairs(((F(1, 2), 1), (F(3, 2), 2)))
    delta = F(1, 4)
    expected, _ = perturbed_hedgehog(random.Random(5), spec, delta)
    compiled = []
    real = generate.compile_hedgehog
    monkeypatch.setattr(
        generate, "compile_hedgehog", lambda s: compiled.append(s) or real(s)
    )
    rng = ZeroFirstDraw(5, zeros=3)  # every step of the first draw is 0
    other, rel = perturbed_hedgehog(rng, spec, delta)
    assert rng.calls == 6  # the zero move and one accepted draw of 3 copies
    assert compiled == [spec, other]  # the zero move was never compiled
    assert other == expected != spec
    assert 0 < distortion(rel) < 2 * delta


def _fraction_perturbed_hedgehog(rng, spec, delta, reflected):
    """`perturbed_hedgehog` with `Fraction` arithmetic per needle copy, as it
    was before the draws moved ints; counts its reflections in `reflected`."""
    delta = F(delta)
    compiled = compile_hedgehog(spec)
    for _ in range(1000):
        moved = []
        for x in spec.expanded():
            shift = F(rng.randrange(-63, 64), 64) * delta
            if x + shift <= 0:
                shift = -shift
                reflected.append(x)
            moved.append(x + shift)
        other = HedgehogSpec.from_pairs((x, 1) for x in moved)
        if other != spec:
            pairs = frozenset((i, i) for i in range(spec.point_count))
            return other, Correspondence(compiled, compile_hedgehog(other), pairs)
    raise ValueError("could not build a positive-distortion perturbation")


def _seeded_spec(rng):
    """1-6 lengths of multiplicity 1 or 2 on mixed denominators, some near 0."""
    lengths = [F(rng.randint(1, 48), rng.choice((1, 2, 3, 8, 64))) for _ in range(6)]
    lengths = lengths[: rng.randint(1, 6)]
    return HedgehogSpec.from_pairs((x, rng.randint(1, 2)) for x in lengths)


def test_perturbed_hedgehog_matches_the_fraction_draws_on_seeded_specs():
    deltas = (F(1, 4), F(1, 3), F(5, 7), 2)
    reflected = []
    for seed in range(3000):
        spec, delta = _seeded_spec(random.Random(seed)), deltas[seed % 4]
        rng, ref = random.Random(seed), random.Random(seed)
        got = perturbed_hedgehog(rng, spec, delta)
        want = _fraction_perturbed_hedgehog(ref, spec, delta, reflected)
        assert got == want
        assert repr(got) == repr(want)
        assert rng.random() == ref.random()  # the same number of draws
    assert len(reflected) > 500  # the reflection at zero ran


def test_perturbed_hedgehog_does_no_fraction_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction arithmetic in perturbed_hedgehog")

    deltas = (F(1, 4), F(5, 7), 2)
    cases = [(_seeded_spec(random.Random(s)), deltas[s % 3]) for s in range(30)]
    expected = [perturbed_hedgehog(random.Random(7), *case) for case in cases]
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "neg", "truediv"):
        monkeypatch.setattr(F, f"__{name}__", refuse)
    got = [perturbed_hedgehog(random.Random(7), *case) for case in cases]
    monkeypatch.undo()
    assert got == expected


class CyclingDraws:
    """A stub RNG whose `randrange` cycles through fixed values."""

    def __init__(self, *values):
        self.values = itertools.cycle(values)
        self.calls = 0

    def randrange(self, *args):
        self.calls += 1
        return next(self.values)


def test_generators_give_up_when_no_draw_is_acceptable():
    # the points (0,0,0), (1,1,1), (2,2,2) repeat the distance 1 on every draw
    rng = CyclingDraws(0, 0, 0, 1, 1, 1, 2, 2, 2)
    message = "^could not sample a space with the requested properties$"
    with pytest.raises(ValueError, match=message):
        random_metric_space(rng, 3, distinct_distances=True)
    assert rng.calls == 1000 * 9
    # every step 0: each draw is the spec itself
    rng = CyclingDraws(0)
    spec = HedgehogSpec.of(F(1, 2), 1)
    with pytest.raises(ValueError, match="^could not build a positive-distortion"):
        perturbed_hedgehog(rng, spec, F(1, 4))
    assert rng.calls == 1000 * 2


class NoDraws:
    def __getattr__(self, name):
        raise AssertionError("the refusal must come before any draw")


def test_generators_refuse_empty_or_nonpositive_requests():
    rng = NoDraws()
    with pytest.raises(ValueError, match="^need at least one point$"):
        random_metric_space(rng, 0)
    with pytest.raises(ValueError, match="^need at least two vertices$"):
        random_gluing_tree(rng, 1)
    for eps, diam in ((0, 1), (F(-1, 2), 1), (2, 1)):
        with pytest.raises(ValueError, match=r"^need 0 < eps <= diam$"):
            grid_hedgehog(eps, diam)
    with pytest.raises(ValueError, match="^not enough grid points for the requested"):
        dense_hedgehog_spec(rng, 3, F(1, 4))
    with pytest.raises(ValueError, match="^delta must be positive$"):
        perturbed_hedgehog(rng, HedgehogSpec.of(1), 0)


def test_spec_equality_is_positive_distortion_of_the_identity_pairing():
    # draws as perturbed_hedgehog makes them, with steps often 0 or +-1/8, so
    # equal multisets come from zero moves and from needles trading places
    delta = F(1, 2)
    seen = set()
    for seed in range(300):
        rng = rng_from_seed(seed)
        spec = dense_hedgehog_spec(rng, rng.randint(1, 4), F(1, 2))
        moved, steps = [], []
        for x in spec.expanded():
            step = rng.choice((0, 0, 16, -16, rng.randrange(-63, 64)))
            shift = F(step, 64) * delta
            moved.append(x - shift if x + shift <= 0 else x + shift)
            steps.append(step)
        other = HedgehogSpec.from_pairs((x, 1) for x in moved)
        pairs = frozenset((i, i) for i in range(spec.point_count))
        rel = Correspondence(compile_hedgehog(spec), compile_hedgehog(other), pairs)
        assert (other != spec) == (distortion(rel) > 0)
        seen.add((other != spec, any(steps)))
    assert seen == {(True, True), (False, False), (False, True)}
