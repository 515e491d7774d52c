from fractions import Fraction as F

import pytest

from ghkit.correspondences import distortion
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
