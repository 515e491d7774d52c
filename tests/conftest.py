import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ghkit.correspondences import Correspondence
from ghkit.dynamics import ThreadChain
from ghkit.generate import random_metric_space
from ghkit.spaces import STRICT, FiniteMetricSpace, scale, validate


@pytest.fixture
def two_point():
    def build(gap):
        return validate([[0, gap], [gap, 0]])

    return build


@pytest.fixture
def halving_chain():
    """The benchmark chain's shape at any depth: halving copies of a seeded
    3-point space of diameter at most 1/2, each point linked to itself and
    to one seeded other point, so 3 * 2^(depth-1) threads within budget."""

    def build(depth):
        rng = random.Random(7)
        base = random_metric_space(rng, 3, denominator=120)
        spaces = tuple(scale(base, Fraction(1, 2**n)) for n in range(1, depth + 1))
        links = tuple(
            Correspondence(
                spaces[n],
                spaces[n + 1],
                frozenset((p, p) for p in range(3))
                | frozenset((p, (p + rng.randint(1, 2)) % 3) for p in range(3)),
            )
            for n in range(depth - 1)
        )
        return ThreadChain(spaces, links)

    return build


@pytest.fixture
def hedgehog_12_matrix():
    return [[0, 1, 2], [1, 0, 3], [2, 3, 0]]


@st.composite
def sup_metric_spaces(draw, min_points=1, max_points=4):
    """Valid strict spaces: integer points in a box under the sup distance."""
    n = draw(st.integers(min_points, max_points))
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    denominator = draw(st.sampled_from([1, 2, 3, 6]))
    rows = tuple(
        tuple(
            Fraction(max(abs(a - b) for a, b in zip(p, q)), denominator)
            for q in points
        )
        for p in points
    )
    labels = tuple(f"p{i}" for i in range(n))
    return FiniteMetricSpace(labels, rows, STRICT)


positive_fractions = st.builds(
    Fraction, st.integers(1, 12), st.integers(1, 12)
)
