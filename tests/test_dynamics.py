import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest

from ghkit import dynamics
from ghkit.correspondences import Correspondence, identity_correspondence
from ghkit.dynamics import (
    DEFAULT_SAMPLED_FACTORS,
    THREAD_CAP,
    ThreadChain,
    center_iterate,
    d_lambda,
    d_lambda_probe,
    stabilizer_finite,
    thread_limit,
)
from ghkit.errors import IndexOutOfRange, NonpositiveScale, ThreadCapExceeded, TooLarge
from ghkit.generate import random_metric_space, rng_from_seed
from ghkit.gluing import GluingTree, glue_tree
from ghkit.hedgehogs import HedgehogSpec
from ghkit.solver import gh_exact, gh_upper_from
from ghkit.spaces import (
    POINT_CAP,
    PSEUDO,
    FiniteMetricSpace,
    diameter,
    hausdorff,
    one_point_space,
    scale,
    validate,
)


@pytest.fixture
def base_space():
    return validate([[0, 1, F(1, 2)], [1, 0, F(3, 4)], [F(1, 2), F(3, 4), 0]])


def identity_link(left, right):
    return Correspondence(left, right, frozenset((i, i) for i in range(len(left))))


def contraction_chain(space, lam, depth):
    spaces = tuple(scale(space, lam**n) for n in range(1, depth + 1))
    links = tuple(
        identity_link(spaces[i], spaces[i + 1]) for i in range(depth - 1)
    )
    return ThreadChain(spaces, links)


def fan_chain(space):
    y = scale(space, F(1, 2))
    fan = Correspondence(space, y, frozenset({(0, 0), (0, 1), (1, 1), (2, 2)}))
    return ThreadChain((space, y), (fan,))


def point_chain(depth):
    points = tuple(one_point_space(f"p{n}") for n in range(depth))
    links = tuple(
        Correspondence(points[n], points[n + 1], frozenset({(0, 0)}))
        for n in range(depth - 1)
    )
    return ThreadChain(points, links)


def test_chain_validation(base_space):
    other = validate([[0, 2], [2, 0]])
    with pytest.raises(ValueError):
        ThreadChain((base_space, other), (identity_correspondence(base_space),))
    with pytest.raises(ValueError, match="^a chain needs at least one space$"):
        ThreadChain((), ())
    link = identity_correspondence(base_space)
    with pytest.raises(ValueError, match="^a chain of k spaces needs k-1 links$"):
        ThreadChain((base_space, base_space), (link, link))


def test_a_chain_built_from_lists_equals_its_tuple_twin(base_space):
    link = identity_correspondence(base_space)
    chain = ThreadChain([base_space, base_space], [link])
    twin = ThreadChain((base_space, base_space), (link,))
    assert chain == twin and hash(chain) == hash(twin)
    assert type(chain.spaces) is tuple and type(chain.links) is tuple
    assert ThreadChain(iter([base_space]), iter([])) == ThreadChain((base_space,), ())


def test_budget_flag(base_space):
    chain = contraction_chain(base_space, F(1, 2), 6)
    assert chain.budget_checked  # dis R_n = diam/2^(n+1) < 1/2^n since diam < 2
    wide = contraction_chain(scale(base_space, 4), F(1, 2), 6)
    assert not wide.budget_checked


def test_constant_chain_limit(base_space):
    chain = ThreadChain(
        (base_space,) * 4,
        tuple(identity_correspondence(base_space) for _ in range(3)),
    )
    result = thread_limit(chain)
    assert len(result.threads) == 3
    assert gh_exact(result.approx, base_space).value == 0
    assert all(cert == 0 for cert in result.certificates)


def test_contraction_chain_limit(base_space):
    lam, depth = F(1, 2), 8
    chain = contraction_chain(base_space, lam, depth)
    result = thread_limit(chain)
    assert diameter(result.approx) == lam**depth * diameter(base_space)
    for layer, cert in enumerate(result.certificates, start=1):
        assert cert <= F(1, 2 ** (layer - 1))
        assert cert <= F(1, 2**layer)  # the derivation actually gives this


def test_budget_chain_layer_distances_drift_slowly(base_space):
    # with dis R_n < 1/2^n, layer readings of any two threads differ by
    # less than 1/2^(n-1) across all later layers
    chain = contraction_chain(base_space, F(1, 2), 7)
    assert chain.budget_checked
    result = thread_limit(chain)
    for t1 in range(len(result.threads)):
        for t2 in range(len(result.threads)):
            for n in range(1, 8):
                for later in range(n, 8):
                    drift = abs(
                        result.layer_distance(t1, t2, n)
                        - result.layer_distance(t1, t2, later)
                    )
                    assert drift < F(1, 2 ** (n - 1))


def test_certificates_bound_exact_distance(base_space):
    chain = contraction_chain(base_space, F(1, 2), 4)
    result = thread_limit(chain)
    for layer in range(1, 5):
        projection = result.projections[layer - 1]
        exact = gh_exact(result.approx, chain.spaces[layer - 1]).value
        assert gh_upper_from(projection) >= exact
        assert result.certificates[layer - 1] == gh_upper_from(projection)


def test_thread_enumeration_and_layers(base_space):
    result = thread_limit(fan_chain(base_space))
    assert result.threads == ((0, 0), (0, 1), (1, 1), (2, 2))
    # layer pseudodistances obey the triangle inequality at every layer
    t = range(len(result.threads))
    for layer in (1, 2):
        for a in t:
            for b in t:
                for c in t:
                    assert result.layer_distance(a, c, layer) <= (
                        result.layer_distance(a, b, layer)
                        + result.layer_distance(b, c, layer)
                    )


def test_thread_space_is_pseudometric(base_space):
    result = thread_limit(fan_chain(base_space))
    pseudo = result.thread_space()
    assert pseudo.mode == PSEUDO
    # threads (0,1) and (1,1) share the last point: distance zero, quotient merges
    assert pseudo.dist[1][2] == 0
    assert len(result.approx) == 3
    # quotient projection preserves last-layer distances
    for t1 in range(len(result.threads)):
        for t2 in range(len(result.threads)):
            c1, c2 = result.thread_classes[t1], result.thread_classes[t2]
            assert pseudo.dist[t1][t2] == result.approx.dist[c1][c2]


def test_deep_chain_of_points_has_one_thread():
    # deeper than the default recursion limit
    result = thread_limit(point_chain(1500))
    assert result.threads == ((0,) * 1500,)


def full_chain(space, depth):
    full = Correspondence(
        space, space, frozenset((i, j) for i in range(3) for j in range(3))
    )
    return ThreadChain((space,) * depth, (full,) * (depth - 1))


def no_build(*args):
    raise AssertionError("the refusal must come before any thread is built")


def test_thread_cap(base_space, monkeypatch):
    # 3^13 threads: the limit is certified, and the cap refuses reading them
    monkeypatch.setattr(dynamics, "_enumerate_threads", no_build)
    result = thread_limit(full_chain(base_space, 13))
    assert len(result.threads) == 3**13
    assert len(result.approx) == 3
    # a full link matches every point to every class; the last layer is exact
    assert result.certificates == (F(1, 2),) * 12 + (0,)
    reads = (
        lambda: result.threads[0],
        lambda: list(result.threads),
        lambda: result.thread_classes,
    )
    for read in reads:
        with pytest.raises(ThreadCapExceeded) as caught:
            read()
        assert (caught.value.count, caught.value.cap) == (3**13, THREAD_CAP)


def test_results_of_one_chain_compare_and_hash_by_the_chain(base_space, monkeypatch):
    # 3^13 threads, over THREAD_CAP: == and hash must not read them
    monkeypatch.setattr(dynamics, "_enumerate_threads", no_build)
    chain = full_chain(base_space, 13)
    first, second = thread_limit(chain), thread_limit(chain)
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != thread_limit(full_chain(base_space, 12))
    monkeypatch.setattr(dynamics, "THREAD_CAP", 2)
    small = thread_limit(full_chain(base_space, 2))  # 9 threads
    assert hash(small) == hash(thread_limit(full_chain(base_space, 2)))
    with pytest.raises(ThreadCapExceeded):
        list(small.threads)


def test_thread_space_cap(base_space, monkeypatch):
    monkeypatch.setattr(dynamics, "_enumerate_threads", no_build)
    result = thread_limit(full_chain(base_space, 8))
    assert len(result.threads) == 3**8
    with pytest.raises(ThreadCapExceeded) as caught:
        result.thread_space()
    assert (caught.value.count, caught.value.cap) == (3**8, POINT_CAP)


# lazy threads: checked against an enumeration that shares no code with
# thread_limit


def reference_threads(chain):
    """Every thread, extended one layer at a time and sorted."""
    threads = [(p,) for p in range(len(chain.spaces[0]))]
    for link in chain.links:
        threads = sorted(
            thread + (j,) for thread in threads for i, j in link.pairs if i == thread[-1]
        )
    return tuple(threads)


def reference_classes(chain, threads):
    """Classes numbered in the order of their smallest last-layer point."""
    last = chain.spaces[-1]
    first = [
        min(q for q in range(len(last)) if last.dist[p][q] == 0)
        for p in range(len(last))
    ]
    order = sorted(set(first))
    return tuple(order.index(first[thread[-1]]) for thread in threads)


def branching_chain(space, seed, depth=7):
    """Halving copies, each point linked to itself and to one seeded other
    point; the last layer is a pseudometric copy with point 0 doubled."""
    rng = random.Random(seed)
    layers = [scale(space, F(1, 2**n)) for n in range(depth - 1)]
    top = layers[-1]
    order = (0, 0, 1, 2)
    layers.append(
        FiniteMetricSpace(
            ("a", "a'", "b", "c"),
            tuple(tuple(top.dist[p][q] for q in order) for p in order),
            PSEUDO,
        )
    )
    links = []
    for n in range(depth - 2):
        extra = frozenset((p, (p + rng.randint(1, 2)) % 3) for p in range(3))
        pairs = frozenset((p, p) for p in range(3)) | extra
        links.append(Correspondence(layers[n], layers[n + 1], pairs))
    pairs = {(0, 0), (0, 1), (1, 2), (2, 3), (rng.randrange(3), rng.randrange(4))}
    links.append(Correspondence(layers[-2], layers[-1], frozenset(pairs)))
    return ThreadChain(tuple(layers), tuple(links))


reference_chains = pytest.mark.parametrize(
    "make",
    [
        fan_chain,
        lambda space: branching_chain(space, 1),
        lambda space: branching_chain(space, 2),
        lambda space: branching_chain(space, 3, depth=9),
        lambda space: point_chain(1500),
    ],
    ids=["fan", "branching-1", "branching-2", "branching-3-deeper", "points-1500"],
)


@reference_chains
def test_lazy_threads_match_reference_enumeration(base_space, make):
    chain = make(base_space)
    expected = reference_threads(chain)
    result = thread_limit(chain)
    assert len(result.threads) == len(expected)
    assert tuple(result.threads) == expected
    assert result.thread_classes == reference_classes(chain, expected)
    assert result.threads == expected and expected == result.threads
    assert hash(result.threads) == hash(expected)
    assert result.threads[-1] == expected[-1]
    assert list(result.threads) == list(expected)


def reference_quotient(space):
    """The zero-distance quotient on each class's smallest point, in order."""
    reps = [p for p in range(len(space)) if all(space.dist[q][p] for q in range(p))]
    return FiniteMetricSpace(
        tuple(space.labels[p] for p in reps),
        tuple(tuple(space.dist[a][b] for b in reps) for a in reps),
    )


@reference_chains
def test_projections_match_their_definition(base_space, make):
    # layer n's projection relates each thread's limit class to its layer-n
    # point, and its certificate is half that relation's distortion
    chain = make(base_space)
    threads = reference_threads(chain)
    classes = reference_classes(chain, threads)
    result = thread_limit(chain)
    assert result.approx == reference_quotient(chain.spaces[-1])
    limit = result.approx.dist
    for n, space in enumerate(chain.spaces):
        pairs = {(c, thread[n]) for c, thread in zip(classes, threads)}
        assert result.projections[n].pairs == pairs
        dis = max(
            abs(limit[c][c2] - space.dist[p][p2])
            for c, p in pairs
            for c2, p2 in pairs
        )
        assert result.certificates[n] == dis / 2


@reference_chains
def test_thread_space_and_layer_distances_read_the_grids(base_space, make):
    chain = make(base_space)
    threads = reference_threads(chain)
    result = thread_limit(chain)
    built = ["dist" in vars(space) for space in chain.spaces]
    pseudo = result.thread_space()
    picks = range(0, len(threads), max(1, len(threads) // 12))
    pairs = [(t1, t2) for t1 in picks for t2 in picks]
    distances = [
        [result.layer_distance(t1, t2, layer) for t1, t2 in pairs]
        for layer in range(1, chain.depth + 1)
    ]
    assert "dist" not in vars(pseudo)
    assert ["dist" in vars(space) for space in chain.spaces] == built
    # the Fraction-matrix constructor path, on the reference threads
    last = chain.spaces[-1]
    labels = tuple(
        "|".join(chain.spaces[n].labels[p] for n, p in enumerate(thread))
        for thread in threads
    )
    rows = tuple(tuple(last.dist[a[-1]][b[-1]] for b in threads) for a in threads)
    expected = FiniteMetricSpace(labels, rows, PSEUDO)
    assert pseudo == expected and hash(pseudo) == hash(expected)
    assert pseudo.grid == expected.grid and pseudo.dist == expected.dist
    for n, space in enumerate(chain.spaces):
        assert distances[n] == [
            space.dist[threads[t1][n]][threads[t2][n]] for t1, t2 in pairs
        ]


@pytest.mark.parametrize(
    "t1, t2, layer, message",
    [
        (0, 1, 0, "layer must be in 1..2, got 0"),
        (0, 1, 3, "layer must be in 1..2, got 3"),
        (-1, 0, 1, "thread must be in 0..2, got -1"),
        (0, 3, 1, "thread must be in 0..2, got 3"),
    ],
)
def test_layer_distance_refuses_a_layer_or_thread_the_chain_lacks(
    base_space, t1, t2, layer, message
):
    result = thread_limit(contraction_chain(base_space, F(1, 2), 2))
    assert result.layer_distance(0, 1, 1) == F(1, 2)
    with pytest.raises(IndexOutOfRange, match=f"^{re.escape(message)}$"):
        result.layer_distance(t1, t2, layer)


def test_count_and_repr_build_no_thread(base_space, monkeypatch):
    calls = []
    enumerate_threads = dynamics._enumerate_threads

    def counted(*args):
        calls.append(args)
        return enumerate_threads(*args)

    monkeypatch.setattr(dynamics, "_enumerate_threads", counted)
    result = thread_limit(branching_chain(base_space, 2))
    assert len(result.threads) == len(reference_threads(result.chain))
    assert f"Threads(count={len(result.threads)})" in repr(result)
    assert result.certificates and len(result.approx) == 3  # a, a' merge
    assert calls == []
    result.threads[0], list(result.threads), hash(result.threads)
    assert result.threads == result.threads and result.thread_classes
    assert len(calls) == 1  # one cached tuple serves every read


def test_thread_count_and_certificates_stay_small(halving_chain):
    # the benchmark chain: 16 halving layers of 3 points, 3 * 2^15 threads
    chain = halving_chain(16)
    tracemalloc.start()
    try:
        result = thread_limit(chain)
        count = len(result.threads)
        certificates = result.certificates
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 3 * 2**15
    assert all(cert <= F(1, 2 ** (n - 1)) for n, cert in enumerate(certificates, 1))
    assert peak < 2**20


def test_d_lambda_probe_identities(base_space):
    probe = d_lambda_probe(base_space, [F(1), F(1, 2), F(2)])
    assert probe.value(F(1)) == 0
    assert probe.value(F(1, 2)) == diameter(base_space) / 4
    assert probe.value(F(2)) == diameter(base_space) / 2
    # inversion identity
    assert probe.value(F(1, 2)) == probe.value(F(2)) / 2


def test_scaling_reads_the_diameter_once_per_call(base_space, monkeypatch):
    reads = []

    def counted(space):
        reads.append(space)
        return diameter(space)

    monkeypatch.setattr(dynamics, "diameter", counted)
    probe = d_lambda_probe(base_space, [F(1), F(1, 2), F(2), F(3), F(1, 3)])
    assert reads == [base_space]
    assert [value for _, value in probe.samples] == [
        abs(1 - lam) * diameter(base_space) / 2 for lam, _ in probe.samples
    ]


def test_probe_value_refuses_an_unsampled_factor(base_space):
    probe = d_lambda_probe(base_space, [F(1, 2), 2])
    assert probe.value(2) == F(1, 2)  # |1 - 2| * diam / 2, diam 1
    with pytest.raises(KeyError, match="lambda 3/2 was not sampled"):
        probe.value(F(3, 2))


def test_center_iterate_zero_and_tail(base_space):
    state = center_iterate(base_space, F(1, 2), 0)
    assert state.iterate == base_space
    assert state.tail_bound == state.step_distance * 2
    lam = F(1, 2)
    for n, m in ((0, 2), (1, 3), (2, 5)):
        state = center_iterate(base_space, lam, n)
        actual = gh_exact(state.iterate, scale(base_space, lam**m)).value
        assert actual == (lam**n - lam**m) * diameter(base_space) / 2
        assert actual <= state.tail_bound


def test_center_iterate_power_bit_cap_boundary(base_space):
    assert dynamics.CENTER_POWER_BITS == 10_000
    state = center_iterate(base_space, F(1, 2), 5000)  # 5000 * 2 bits: allowed
    assert state.tail_bound == F(1, 2**5000) * state.step_distance * 2
    str(state.tail_bound)  # printable: below CPython's int-to-str digit limit
    with pytest.raises(TooLarge, match="10002 bits, cap is 10000"):
        center_iterate(base_space, F(1, 2), 5001)
    str(center_iterate(base_space, F(1, 2**9999), 1).tail_bound)  # 10000 bits
    with pytest.raises(TooLarge, match="10001 bits, cap is 10000"):
        center_iterate(base_space, F(1, 2**10000), 1)


@pytest.mark.parametrize("seed", [13, 29, 41])
def test_budget_chain_glued_as_a_path_tree(seed):
    # the completeness proof's gluing: consecutive layers sit exactly half a
    # link distortion apart, and layer n lies within the remaining weights of
    # the last layer
    base = random_metric_space(rng_from_seed(seed), 4, coord_max=6)
    chain = contraction_chain(base, F(1, 2), 8)
    assert chain.budget_checked
    tree = GluingTree(
        chain.spaces, tuple((n, n + 1, link) for n, link in enumerate(chain.links))
    )
    glued = glue_tree(tree)
    last = glued.part(chain.depth - 1)
    for n in range(chain.depth - 1):
        assert hausdorff(glued.part(n), glued.part(n + 1)) == tree.weight(n)
        assert hausdorff(glued.part(n), last) <= sum(tree.weights[n:])


def test_stabilizer_of_needle_pair():
    report = stabilizer_finite(HedgehogSpec.of(1, 2))
    assert report.accepted == (F(1),)
    assert F(1, 2) in report.candidates and F(2) in report.candidates


def test_stabilizer_of_distinct_distance_space():
    rng = rng_from_seed(3)
    space = random_metric_space(rng, 3, distinct_distances=True)
    report = stabilizer_finite(space)
    assert report.accepted == (F(1),)
    assert report.zero_distance_sampled == (F(1),)
    assert report.finite_sampled == DEFAULT_SAMPLED_FACTORS


def test_stabilizer_of_point_accepts_everything():
    report = stabilizer_finite(one_point_space())
    for lam in DEFAULT_SAMPLED_FACTORS:
        assert lam in report.accepted
    assert report.zero_distance_sampled == DEFAULT_SAMPLED_FACTORS


PSEUDO_SPACE = FiniteMetricSpace(
    ("a", "b", "c"),
    ((F(0), F(0), F(1)), (F(0), F(0), F(1)), (F(1), F(1), F(0))),
    PSEUDO,
)

# the verify suite's factor grid
GRID = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3), F(4))


def test_stabilizer_rejects_pseudo_spaces_and_answers_large_ones():
    # 9 and 40 points were refused by the solver's size cap of 8
    with pytest.raises(ValueError, match="strict"):
        stabilizer_finite(PSEUDO_SPACE)
    for n in (9, 40):
        space = random_metric_space(rng_from_seed(4), n)
        assert stabilizer_finite(space).accepted == (F(1),)


def test_probe_and_center_answer_above_the_old_cap():
    space = random_metric_space(rng_from_seed(4), 9)
    probe = d_lambda_probe(space, GRID)
    for lam in GRID:
        assert probe.value(lam) == abs(1 - lam) * diameter(space) / 2
    state = center_iterate(space, F(1, 2), 3)
    assert state.iterate == scale(space, F(1, 8))
    assert state.tail_bound == F(1, 8) * state.step_distance * 2


@pytest.mark.parametrize("lam", [0, -1, F(-1, 2)])
def test_nonpositive_factors_are_refused(base_space, lam):
    message = f"scale factor must be positive, got {F(lam)}"
    with pytest.raises(NonpositiveScale, match=message):
        d_lambda(base_space, lam)
    with pytest.raises(NonpositiveScale, match=message):
        d_lambda_probe(base_space, [F(1), lam])
    for obj in (base_space, one_point_space(), HedgehogSpec.of(1, 2)):
        with pytest.raises(NonpositiveScale, match=message):
            stabilizer_finite(obj, (F(2), lam, F(1)))


def test_stabilizer_names_the_smallest_nonpositive_factor(base_space):
    with pytest.raises(NonpositiveScale, match="got -1$"):
        stabilizer_finite(base_space, (F(0), F(-1)))


def test_scaling_side_refuses_pseudo_spaces():
    with pytest.raises(ValueError, match="requires a strict space"):
        d_lambda(PSEUDO_SPACE, F(1, 2))
    with pytest.raises(ValueError, match="requires a strict space"):
        d_lambda_probe(PSEUDO_SPACE, [F(1)])
    # factors are checked in order, and the mode at the first factor
    with pytest.raises(ValueError, match="requires a strict space"):
        d_lambda_probe(PSEUDO_SPACE, [F(2), 0])
    with pytest.raises(NonpositiveScale, match="got 0"):
        d_lambda_probe(PSEUDO_SPACE, [0])
    assert d_lambda_probe(PSEUDO_SPACE, []).samples == ()
    with pytest.raises(ValueError, match="requires a strict space"):
        center_iterate(PSEUDO_SPACE, F(1, 2), 2)


def test_stabilizer_builds_no_ratio(monkeypatch):
    spec = HedgehogSpec.of(*range(1, 318))
    space = random_metric_space(rng_from_seed(5), 60, coord_max=400)

    def no_ratio(*args):
        raise AssertionError("a ratio was built")

    monkeypatch.setattr(F, "__truediv__", no_ratio)
    for obj in (spec, space):
        report = stabilizer_finite(obj)
        assert report.accepted == (F(1),)
        assert report.candidates == DEFAULT_SAMPLED_FACTORS


@pytest.mark.parametrize(
    "obj",
    [
        HedgehogSpec.from_pairs(((1, 2), (F(3, 2), 1), (3, 1))),
        one_point_space(),
        validate([[0, 1, F(1, 2)], [1, 0, F(3, 4)], [F(1, 2), F(3, 4), 0]]),
        validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    ],
)
def test_stabilizer_report_matches_direct_decisions(obj):
    sampled = (F(2), F(1, 2), F(1), F(2, 3), F(2))
    report = stabilizer_finite(obj, sampled)
    if isinstance(obj, HedgehogSpec):

        def isometric(lam):
            return obj.scaled(lam).needles == obj.needles

    else:

        def isometric(lam):
            return gh_exact(scale(obj, lam), obj).value == 0

    candidates = (F(1, 2), F(2, 3), F(1), F(2))
    assert report.candidates == candidates
    assert report.accepted == tuple(lam for lam in candidates if isometric(lam))
    assert report.zero_distance_sampled == tuple(
        lam for lam in sampled if isometric(lam)
    )
    assert report.finite_sampled == sampled


def test_d_lambda_matches_closed_form(base_space):
    for lam in (F(1, 3), F(4, 5), F(7, 2)):
        assert d_lambda(base_space, lam) == abs(lam - 1) * diameter(base_space) / 2
    # an independent reference: the exact search on the scaled copy
    for n in range(1, 9):
        space = random_metric_space(rng_from_seed(600 + n), n)
        for lam in GRID:
            assert d_lambda(space, lam) == gh_exact(space, scale(space, lam)).value
