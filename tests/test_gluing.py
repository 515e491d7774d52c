import math
from fractions import Fraction as F

import pytest

from ghkit import gluing
from ghkit.correspondences import (
    Correspondence,
    distortion,
    identity_correspondence,
)
from ghkit.errors import (
    DistortionBudgetExceeded,
    IndexOutOfRange,
    NotATree,
    ZeroDistortion,
)
from ghkit.generate import (
    dense_hedgehog_spec,
    perturbed_hedgehog,
    random_correspondence,
    random_gluing_tree,
    random_metric_space,
    rng_from_seed,
)
from ghkit.gluing import GluingTree, glue_pair, glue_star, glue_tree
from ghkit.hedgehogs import HedgehogSpec, check_center_location
from ghkit.spaces import PSEUDO, STRICT, from_grid, hausdorff, scale, validate


@pytest.fixture
def gap_pair():
    return validate([[0, 1], [1, 0]]), validate([[0, 3], [3, 0]])


@pytest.fixture
def gap_bijection(gap_pair):
    x, y = gap_pair
    return Correspondence(x, y, frozenset({(0, 0), (1, 1)}))


def test_gluing_refuses_an_empty_tree_a_pseudo_vertex_and_a_leafless_star(gap_pair):
    with pytest.raises(ValueError, match="^a gluing tree needs at least one vertex$"):
        GluingTree((), ())
    pseudo = validate([[0, 0], [0, 0]], mode=PSEUDO)
    with pytest.raises(ValueError, match="^gluing is defined for strict spaces$"):
        glue_tree(GluingTree((pseudo,), ()))
    with pytest.raises(ValueError, match="^a star needs at least one leaf$"):
        glue_star(gap_pair[0], [])


def test_a_tree_built_from_lists_equals_its_tuple_twin(gap_pair, gap_bijection):
    x, y = gap_pair
    tree = GluingTree([x, y], [[0, 1, gap_bijection]])
    twin = GluingTree((x, y), ((0, 1, gap_bijection),))
    assert tree == twin and hash(tree) == hash(twin)
    assert tree.vertices == (x, y) and tree.edges == ((0, 1, gap_bijection),)
    assert glue_tree(tree).carrier == glue_tree(twin).carrier


def test_glue_pair_cross_distances(gap_pair, gap_bijection):
    x, y = gap_pair
    glued = glue_pair(x, y, gap_bijection)
    d = glued.carrier.dist
    x0, x1 = glued.locate(0, 0), glued.locate(0, 1)
    y0, y1 = glued.locate(1, 0), glued.locate(1, 1)
    assert d[x0][y0] == 1  # matched pair sits at half the distortion
    assert d[x1][y1] == 1
    assert d[x0][y1] == 2  # min(0 + 3 + 1, 1 + 0 + 1)
    assert d[x1][y0] == 2


def test_glue_pair_realizes_half_distortion(gap_pair, gap_bijection):
    x, y = gap_pair
    glued = glue_pair(x, y, gap_bijection)
    assert hausdorff(glued.part(0), glued.part(1)) == distortion(gap_bijection) / 2


def test_glue_pair_carrier_is_strict_metric(gap_pair, gap_bijection):
    x, y = gap_pair
    glued = glue_pair(x, y, gap_bijection)
    validate(glued.carrier.dist, STRICT, glued.carrier.labels)  # must not raise


def test_glue_pair_embeds_isometric_copies(gap_pair, gap_bijection):
    x, y = gap_pair
    glued = glue_pair(x, y, gap_bijection)
    for vertex, space in ((0, x), (1, y)):
        idx = [glued.locate(vertex, p) for p in range(len(space))]
        for p in range(len(space)):
            for q in range(len(space)):
                assert glued.carrier.dist[idx[p]][idx[q]] == space.dist[p][q]


def test_glue_pair_matched_pairs_sit_at_omega(gap_pair):
    x, y = gap_pair
    rel = Correspondence(x, y, frozenset({(0, 0), (1, 1), (0, 1)}))
    omega = distortion(rel) / 2
    glued = glue_pair(x, y, rel)
    for i, j in rel.pairs:
        assert glued.carrier.dist[glued.locate(0, i)][glued.locate(1, j)] == omega


def test_glue_pair_rejects_zero_distortion(gap_pair):
    x, _ = gap_pair
    with pytest.raises(ZeroDistortion):
        glue_pair(x, x, identity_correspondence(x))


def assert_cross_blocks_direct(tree, glued):
    """Every edge's cross entry, taken straight from `dist`: min over (x', y')
    in R of |px'| + dis R / 2 + |y'q|, with dis R from `dist` too."""
    for u, w, rel in tree.edges:
        x, y, pairs = tree.vertices[u], tree.vertices[w], rel.pairs
        dis = max(abs(x.dist[i][k] - y.dist[j][l]) for i, j in pairs for k, l in pairs)
        for p in range(len(x)):
            for q in range(len(y)):
                direct = min(x.dist[p][i] + dis / 2 + y.dist[j][q] for i, j in pairs)
                assert glued.carrier.d(glued.locate(u, p), glued.locate(w, q)) == direct


@pytest.mark.parametrize("seed", range(8))
def test_glue_pair_cross_block_matches_direct_minimum(seed):
    rng = rng_from_seed(300 + seed)
    x = random_metric_space(rng, rng.randint(1, 6), label_prefix="x")
    y = random_metric_space(rng, rng.randint(2, 6), label_prefix="y")
    tree = GluingTree((x, y), ((0, 1, random_correspondence(rng, x, y)),))
    assert_cross_blocks_direct(tree, glue_pair(x, y, tree.edges[0][2]))


def test_tree_cross_blocks_match_direct_minimum_with_many_partners():
    rng = rng_from_seed(41)
    sizes = (4, 3, 5, 4)
    spaces = [
        random_metric_space(rng, n, rng.choice((2, 3, 5)), label_prefix=f"s{v}")
        for v, n in enumerate(sizes)
    ]
    edges = []
    for u, w in ((0, 1), (1, 2), (1, 3)):
        n, m = sizes[u], sizes[w]
        # a map each way, plus every pair with i + j divisible by 3
        pairs = {(i, i % m) for i in range(n)} | {(j % n, j) for j in range(m)}
        pairs |= {(i, j) for i in range(n) for j in range(m) if (i + j) % 3 == 0}
        assert len(pairs) > max(n, m)
        edges.append((u, w, Correspondence(spaces[u], spaces[w], frozenset(pairs))))
    tree = GluingTree(tuple(spaces), tuple(edges))
    assert_cross_blocks_direct(tree, glue_tree(tree))


def test_glue_pair_labels_carry_provenance(gap_pair, gap_bijection):
    x, y = gap_pair
    glued = glue_pair(x, y, gap_bijection)
    assert glued.carrier.labels == ("0.0", "0.1", "1.0", "1.1")
    assert glued.provenance == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_carriers_place_each_vertex_as_one_block_in_attach_order():
    # check_center_location reads the second copy of a glue_pair carrier
    # by position, so this order is part of the contract
    rng = rng_from_seed(23)
    sizes = (2, 3, 1, 4)
    spaces = [
        random_metric_space(rng, n, label_prefix=f"s{v}") for v, n in enumerate(sizes)
    ]
    edges = ((0, 2), (2, 1), (0, 3))  # breadth-first from 0: 0, 2, 3, then 1
    rels = [random_correspondence(rng, spaces[u], spaces[w]) for u, w in edges]
    tree = GluingTree(
        tuple(spaces), tuple((u, w, rel) for (u, w), rel in zip(edges, rels))
    )
    cases = [
        (glue_tree(tree), (0, 2, 3, 1), spaces),
        (glue_pair(spaces[2], spaces[1], rels[1]), (0, 1), spaces[2:0:-1]),
    ]
    for glued, order, vertices in cases:
        assert glued.provenance == tuple(
            (v, p) for v in order for p in range(len(vertices[v]))
        )
        start = 0
        for v in order:
            end = start + len(vertices[v])
            block = [row[start:end] for row in glued.carrier.dist[start:end]]
            assert block == list(vertices[v].dist)
            start = end


def test_single_edge_tree_equals_pair(gap_pair, gap_bijection):
    x, y = gap_pair
    tree = GluingTree((x, y), ((0, 1, gap_bijection),))
    assert glue_tree(tree).carrier == glue_pair(x, y, gap_bijection).carrier


def test_path_tree_relays_through_middle():
    rng = rng_from_seed(11)
    spaces = [random_metric_space(rng, 3, label_prefix=f"s{i}") for i in range(3)]
    rels = [
        random_correspondence(rng, spaces[0], spaces[1]),
        random_correspondence(rng, spaces[1], spaces[2]),
    ]
    tree = GluingTree(
        tuple(spaces), ((0, 1, rels[0]), (1, 2, rels[1]))
    )
    glued = glue_tree(tree)
    # relay oracle: |x z| = min over y of |x y| + |y z| with pair-glue hops
    pair01 = glue_pair(spaces[0], spaces[1], rels[0])
    pair12 = glue_pair(spaces[1], spaces[2], rels[1])
    for x_local in range(3):
        for z_local in range(3):
            relay = min(
                pair01.carrier.dist[pair01.locate(0, x_local)][pair01.locate(1, y)]
                + pair12.carrier.dist[pair12.locate(0, y)][pair12.locate(1, z_local)]
                for y in range(3)
            )
            direct = glued.carrier.dist[glued.locate(0, x_local)][
                glued.locate(2, z_local)
            ]
            assert direct == relay


def test_tree_metric_is_min_plus_closure():
    # independent oracle: start from within-vertex and adjacent pair-glue
    # distances with infinity elsewhere, run Floyd-Warshall, compare
    rng = rng_from_seed(17)
    spaces = [random_metric_space(rng, 3, label_prefix=f"s{i}") for i in range(4)]
    rels = [
        random_correspondence(rng, spaces[0], spaces[1]),
        random_correspondence(rng, spaces[1], spaces[2]),
        random_correspondence(rng, spaces[1], spaces[3]),
    ]
    tree = GluingTree(
        tuple(spaces),
        ((0, 1, rels[0]), (1, 2, rels[1]), (1, 3, rels[2])),
    )
    glued = glue_tree(tree)
    total = len(glued.carrier)
    INF = None
    seed: list[list] = [[INF] * total for _ in range(total)]
    for vertex, space in enumerate(spaces):
        for p in range(3):
            for q in range(3):
                seed[glued.locate(vertex, p)][glued.locate(vertex, q)] = (
                    space.dist[p][q]
                )
    for u, v, rel in tree.edges:
        block = glue_pair(spaces[u], spaces[v], rel)
        for p in range(3):
            for q in range(3):
                value = block.carrier.dist[block.locate(0, p)][block.locate(1, q)]
                seed[glued.locate(u, p)][glued.locate(v, q)] = value
                seed[glued.locate(v, q)][glued.locate(u, p)] = value
    for k in range(total):
        for i in range(total):
            if seed[i][k] is INF:
                continue
            for j in range(total):
                if seed[k][j] is INF:
                    continue
                through = seed[i][k] + seed[k][j]
                if seed[i][j] is INF or through < seed[i][j]:
                    seed[i][j] = through
    assert [list(row) for row in glued.carrier.dist] == seed


def test_tree_edges_realize_their_weights():
    rng = rng_from_seed(23)
    spaces = [random_metric_space(rng, 3, label_prefix=f"s{i}") for i in range(4)]
    rels = [
        random_correspondence(rng, spaces[0], spaces[1]),
        random_correspondence(rng, spaces[0], spaces[2]),
        random_correspondence(rng, spaces[2], spaces[3]),
    ]
    tree = GluingTree(
        tuple(spaces),
        ((0, 1, rels[0]), (0, 2, rels[1]), (2, 3, rels[2])),
    )
    glued = glue_tree(tree)
    validate(glued.carrier.dist, STRICT, glued.carrier.labels)
    for e, (u, v, _) in enumerate(tree.edges):
        assert hausdorff(glued.part(u), glued.part(v)) == tree.weight(e)


def test_tree_shape_validation(gap_pair, gap_bijection):
    x, y = gap_pair
    with pytest.raises(NotATree):
        GluingTree((x, y), ())  # wrong edge count
    with pytest.raises(NotATree):
        GluingTree((x, y), ((0, 0, gap_bijection),))  # self loop
    back = Correspondence(y, x, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(NotATree):
        # two edges between the same vertices: right count, but a cycle
        GluingTree((x, y, x), ((0, 1, gap_bijection), (0, 1, gap_bijection)))
    with pytest.raises(ValueError):
        GluingTree((x, y), ((0, 1, back),))  # mismatched edge spaces


def test_glue_star_budgets_and_gaps():
    rng = rng_from_seed(5)
    center = random_metric_space(rng, 3, label_prefix="c")
    leaves = []
    for k in range(2):
        leaf = scale(center, 1 + F(k + 1, 10))
        rel = Correspondence(
            center, leaf, frozenset((i, i) for i in range(len(center)))
        )
        leaves.append((leaf, rel, distortion(rel)))  # M = dis < 2M
    glued = glue_star(center, leaves)
    for k, (leaf, rel, budget) in enumerate(leaves):
        gap = hausdorff(glued.part(0), glued.part(k + 1))
        assert gap == distortion(rel) / 2
        assert gap < budget


def test_glue_star_relay_bound_between_leaves():
    rng = rng_from_seed(9)
    center = random_metric_space(rng, 3, label_prefix="c")
    leaves = []
    for k in range(2):
        leaf = scale(center, 1 + F(k + 1, 7))
        rel = Correspondence(
            center, leaf, frozenset((i, i) for i in range(len(center)))
        )
        leaves.append((leaf, rel, distortion(rel)))
    glued = glue_star(center, leaves)
    bound = distortion(leaves[0][1]) / 2 + distortion(leaves[1][1]) / 2
    assert hausdorff(glued.part(1), glued.part(2)) <= bound


def test_glue_star_monotone_under_new_leaves():
    rng = rng_from_seed(31)
    center = random_metric_space(rng, 3, label_prefix="c")
    leaves = []
    for k in range(3):
        leaf = scale(center, 1 + F(k + 1, 9))
        rel = Correspondence(
            center, leaf, frozenset((i, i) for i in range(len(center)))
        )
        leaves.append((leaf, rel, distortion(rel)))
    small = glue_star(center, leaves[:2]).carrier
    large = glue_star(center, leaves).carrier
    for p in range(len(small)):
        for q in range(len(small)):
            assert small.dist[p][q] == large.dist[p][q]


def test_glue_star_single_leaf_equals_pair(gap_pair, gap_bijection):
    x, y = gap_pair
    star = glue_star(x, [(y, gap_bijection, F(3))])
    assert star.carrier == glue_pair(x, y, gap_bijection).carrier


def test_glue_star_error_cases(gap_pair):
    x, _ = gap_pair
    bigger = scale(x, 2)
    rel = Correspondence(x, bigger, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(DistortionBudgetExceeded):
        glue_star(x, [(bigger, rel, distortion(rel) / 2)])
    with pytest.raises(ZeroDistortion):
        glue_star(x, [(x, identity_correspondence(x), F(1))])


def test_weight_refuses_an_edge_the_tree_lacks():
    tree = random_gluing_tree(rng_from_seed(1), 3)
    assert tree.weight(1) == tree.weights[1] == distortion(tree.edges[1][2]) / 2
    for index in (-1, 2):
        message = f"^edge must be in 0..1, got {index}$"
        with pytest.raises(IndexOutOfRange, match=message):
            tree.weight(index)


# Carriers are glued on the least denominator on which every vertex grid and
# every weight is integral, so `from_grid` gets them canonical.  The
# reference glues on 2 * lcm of the vertex denominators and lets `from_grid`
# reduce.


@pytest.fixture
def glued_denominators(monkeypatch):
    """(denominator handed to `from_grid`, carrier's denominator) per glue."""
    calls = []

    def spy(labels, denom, rows, mode):
        space = from_grid(labels, denom, rows, mode)
        calls.append((denom, space.grid[0]))
        return space

    monkeypatch.setattr(gluing, "from_grid", spy)
    return calls


def reference_carrier(tree, provenance):
    """Shortest paths over the disjoint union on D = 2 * lcm of the vertex
    denominators (each matched pair at its weight), in carrier order,
    reduced by `from_grid`."""
    denom = 2 * math.lcm(*(space.grid[0] for space in tree.vertices))
    at = {point: g for g, point in enumerate(provenance)}
    dist = [[math.inf] * len(provenance) for _ in provenance]
    for v, space in enumerate(tree.vertices):
        for p, row in enumerate(space.grid[1]):
            for q, value in enumerate(row):
                dist[at[v, p]][at[v, q]] = value * (denom // space.grid[0])
    for (u, w, rel), weight in zip(tree.edges, tree.weights):
        omega = weight * denom
        assert omega.denominator == 1
        for i, j in rel.pairs:
            dist[at[u, i]][at[w, j]] = dist[at[w, j]][at[u, i]] = omega.numerator
    for k in range(len(dist)):
        for row in dist:
            for j, through in enumerate(dist[k]):
                row[j] = min(row[j], row[k] + through)
    labels = [f"{v}.{tree.vertices[v].labels[p]}" for v, p in provenance]
    return from_grid(labels, denom, dist, STRICT)


def assert_unreduced(calls, count):
    assert len(calls) == count
    assert all(handed == kept for handed, kept in calls), calls


@pytest.mark.parametrize("seed", range(8))
def test_glue_pair_hands_from_grid_a_canonical_carrier(seed, glued_denominators):
    rng = rng_from_seed(seed)
    x = random_metric_space(rng, rng.randint(1, 5), denominator=rng.choice([1, 4, 6]))
    y = random_metric_space(rng, rng.randint(1, 5), denominator=rng.choice([3, 4, 10]))
    rel = random_correspondence(rng, x, y)
    glued = glue_pair(x, y, rel)
    assert_unreduced(glued_denominators, 1)
    tree = GluingTree((x, y), ((0, 1, rel),))
    assert glued.carrier == reference_carrier(tree, glued.provenance)


def test_a_tree_with_a_backward_edge_hands_from_grid_a_canonical_carrier(
    glued_denominators,
):
    rng = rng_from_seed(1)
    x, y, z = (
        random_metric_space(rng, n, denominator=d, label_prefix=prefix)
        for n, d, prefix in ((4, 4, "x"), (5, 6, "y"), (3, 10, "z"))
    )
    # vertex 2 is attached from vertex 0 along an edge written (2, 0)
    tree = GluingTree(
        (x, y, z),
        (
            (0, 1, random_correspondence(rng, x, y)),
            (2, 0, random_correspondence(rng, z, x)),
        ),
    )
    glued = glue_tree(tree)
    assert_unreduced(glued_denominators, 1)
    assert glued.carrier == reference_carrier(tree, glued.provenance)
    assert hausdorff(glued.part(2), glued.part(0)) == tree.weight(1)


def test_glue_star_hands_from_grid_a_canonical_carrier(glued_denominators):
    rng = rng_from_seed(3)
    center = random_metric_space(rng, 3, denominator=4, label_prefix="c")
    leaves = []
    for k, denominator in enumerate((6, 10, 1)):
        leaf = random_metric_space(rng, 2 + k, denominator=denominator)
        leaves.append((leaf, random_correspondence(rng, center, leaf), 10**6))
    glued = glue_star(center, leaves)
    assert_unreduced(glued_denominators, 1)
    tree = GluingTree(
        (center, *(leaf for leaf, _, _ in leaves)),
        tuple((0, k + 1, rel) for k, (_, rel, _) in enumerate(leaves)),
    )
    assert glued.carrier == reference_carrier(tree, glued.provenance)


@pytest.mark.parametrize("seed", range(4))
def test_center_location_hands_from_grid_a_canonical_carrier(seed, glued_denominators):
    rng, m = rng_from_seed(seed), F(1, 4)
    base = dense_hedgehog_spec(rng, count=4, max_length=3)
    spec = HedgehogSpec.from_pairs(tuple(base.needles) + ((F(2), 1), (F(5, 2), 1)))
    other, rel = perturbed_hedgehog(rng, spec, m)
    assert check_center_location(spec, other, rel, m).passed
    assert_unreduced(glued_denominators, 1)
    glued = glue_pair(rel.left, rel.right, rel)
    tree = GluingTree((rel.left, rel.right), ((0, 1, rel),))
    assert glued.carrier == reference_carrier(tree, glued.provenance)
