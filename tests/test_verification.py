import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

import ghkit.hedgehogs as hedgehogs
import ghkit.verification as verification
from ghkit.correspondences import Correspondence, full_correspondence
from ghkit.dynamics import DEFAULT_SAMPLED_FACTORS, ThreadChain
from ghkit.gluing import GluedSpace
from ghkit.hedgehogs import HedgehogSpec, compile_hedgehog
from ghkit.spaces import STRICT, diameter, from_grid, scale
from ghkit.verification import CHECKS, run_check, suite_names


def test_suite_names_selection():
    assert suite_names("all") == list(CHECKS)
    assert suite_names("stabilizers,bucket-construction") == [
        "stabilizers",
        "bucket-construction",
    ]
    with pytest.raises(KeyError):
        suite_names("nope")


@pytest.mark.parametrize("selector", [",", "", " , "])
def test_suite_names_refuses_an_empty_selection(selector):
    with pytest.raises(ValueError, match="no checks selected"):
        suite_names(selector)


def test_check_results_carry_claims():
    result = run_check("bucket-construction", seed=7)
    assert result.passed
    assert result.claim
    assert result.witness is None


def test_crashing_check_is_reported_not_raised(monkeypatch):
    def boom(seed):
        raise RuntimeError("synthetic crash")

    monkeypatch.setitem(
        verification.CHECKS, "bucket-construction", ("claim", boom)
    )
    result = run_check("bucket-construction")
    assert not result.passed
    assert "synthetic crash" in (result.witness or "")


# planted faults: a check that passes a wrong verdict or closed form shows nothing


@pytest.mark.parametrize("lam", [x for x in DEFAULT_SAMPLED_FACTORS if x != 1])
def test_stabilizers_fails_on_an_accepted_factor_other_than_1(monkeypatch, lam):
    real = verification.stabilizer_finite

    def plant(obj, sampled=DEFAULT_SAMPLED_FACTORS):
        report = real(obj, sampled)
        return replace(report, accepted=tuple(sorted({*report.accepted, lam})))

    monkeypatch.setattr(verification, "stabilizer_finite", plant)
    result = run_check("stabilizers")
    assert not result.passed
    assert "space 0: accepted" in result.witness


def test_stabilizers_fails_when_a_point_accepts_only_1(monkeypatch):
    real = verification.stabilizer_finite

    def plant(obj, sampled=DEFAULT_SAMPLED_FACTORS):
        report = real(obj, sampled)
        if isinstance(obj, HedgehogSpec) or len(obj) > 1:
            return report
        return replace(report, accepted=(F(1),), zero_distance_sampled=(F(1),))

    monkeypatch.setattr(verification, "stabilizer_finite", plant)
    result = run_check("stabilizers")
    assert not result.passed
    assert "one-point space: accepted (Fraction(1, 1),)" in result.witness


def test_scaling_dynamics_fails_on_a_doubled_closed_form(monkeypatch):
    real = verification.d_lambda_probe

    def plant(space, factors):
        probe = real(space, factors)
        return replace(probe, samples=tuple((lam, 2 * d) for lam, d in probe.samples))

    monkeypatch.setattr(verification, "d_lambda_probe", plant)
    result = run_check("scaling-dynamics")
    assert not result.passed
    assert "space 0: d_lambda gave" in result.witness


def _plant_oracle_off_by_one(monkeypatch):
    real = verification.min_distortion_by_enumeration
    monkeypatch.setattr(
        verification,
        "min_distortion_by_enumeration",
        lambda x, y: (real(x, y)[0] + 1, None),
    )


def _plant_solver(monkeypatch, change):
    """Route every `gh_exact` call of the checks through `change(x, y, result)`."""
    real = verification.gh_exact
    monkeypatch.setattr(verification, "gh_exact", lambda x, y: change(x, y, real(x, y)))


def _plant_full_witness(monkeypatch):
    # the right value, but the full relation as its witness
    _plant_solver(
        monkeypatch, lambda x, y, r: replace(r, witness=full_correspondence(x, y))
    )


def _plant_value_past_the_diameters(monkeypatch):
    # the first side's diameter added: a one-point first side keeps its value
    _plant_solver(
        monkeypatch,
        lambda x, y, r: replace(r, value=r.value + diameter(x)),
    )


def _plant_lower_bound_past_the_value(monkeypatch):
    _plant_solver(monkeypatch, lambda x, y, r: replace(r, lower_bound=r.value + 1))


def _plant_value_halfway_to_the_upper_bound(monkeypatch):
    # halfway to max(diam X, diam Y) / 2, which a one-point side attains
    def change(x, y, r):
        top = max(diameter(x), diameter(y))
        return replace(r, value=(r.value + top / 2) / 2)

    _plant_solver(monkeypatch, change)


def _plant_value_one_below(monkeypatch):
    # one unit below the value, but never below the lower bound, which is
    # tight on one-point sides and scaled copies
    _plant_solver(
        monkeypatch,
        lambda x, y, r: replace(r, value=max(r.lower_bound, r.value - 1)),
    )


def _plant_isometry_cells(monkeypatch, extra):
    """Add the cells `extra(y)` to every nonempty `isometry_cells` answer."""
    real = verification.isometry_cells

    def plant(x, y):
        cells = real(x, y)
        return cells | extra(y) if cells else cells

    monkeypatch.setattr(verification, "isometry_cells", plant)


def _plant_center_moved(monkeypatch):
    _plant_isometry_cells(monkeypatch, lambda y: {(0, 1)})


def _plant_needle_moved(monkeypatch):
    _plant_isometry_cells(monkeypatch, lambda y: {(1, q) for q in range(1, len(y))})


def _plant_diameter_off_by_one(monkeypatch):
    real = verification.diameter
    monkeypatch.setattr(verification, "diameter", lambda space: real(space) + 1)


def _plant_negated_hedgehog_verdict(monkeypatch):
    real = verification.hedgehog_isometric
    monkeypatch.setattr(verification, "hedgehog_isometric", lambda a, b: not real(a, b))


def _plant_full_bucket_relation(monkeypatch):
    def plant(a, b, eps):
        rel = real(a, b, eps)
        everything = product(range(len(rel.left)), range(len(rel.right)))
        return Correspondence(rel.left, rel.right, frozenset(everything))

    real = verification.bucket_correspondence
    monkeypatch.setattr(verification, "bucket_correspondence", plant)


def _plant_unfaithful_shift(monkeypatch):
    real = verification.tuzhilin_isometry
    monkeypatch.setattr(
        verification,
        "tuzhilin_isometry",
        lambda cfg, m: replace(real(cfg, m), distance_preserving=False),
    )


def _plant_raised_certificates(monkeypatch):
    def plant(chain):
        result = real(chain)
        return replace(result, certificates=tuple(c + 1 for c in result.certificates))

    real = verification.thread_limit
    monkeypatch.setattr(verification, "thread_limit", plant)


def _plant_multiplicity_blind_verdict(monkeypatch):
    # compares the needle lengths but not how often each occurs
    monkeypatch.setattr(
        verification,
        "hedgehog_isometric",
        lambda a, b: [x for x, _ in a.needles] == [x for x, _ in b.needles],
    )


def _plant_bound_of_the_full_relation(monkeypatch):
    real = verification.gh_upper_from
    monkeypatch.setattr(
        verification,
        "gh_upper_from",
        lambda rel: real(full_correspondence(rel.left, rel.right)),
    )


def _plant_distortion_floor(monkeypatch):
    # a distortion clamped below at 1/64, so an exact match never reads 0
    real = verification.distortion
    monkeypatch.setattr(verification, "distortion", lambda rel: max(real(rel), F(1, 64)))


def _plant_dyadic_only_matcher(monkeypatch):
    # right on every grid of the eps loop (all dyadic), the full relation once
    # a length's denominator has an odd factor
    def plant(a, b, eps):
        if any(L & (L - 1) for L in (a.grid[0], b.grid[0])):
            return full_correspondence(compile_hedgehog(a), compile_hedgehog(b))
        return real(a, b, eps)

    real = verification.bucket_correspondence
    monkeypatch.setattr(verification, "bucket_correspondence", plant)


def _plant_skipped_near_probe(monkeypatch):
    # the report of a matched pair drops its near-needle probe
    real = verification.check_center_location
    monkeypatch.setattr(
        verification,
        "check_center_location",
        lambda *args: replace(real(*args), near_probe=None, near_probe_ok=None),
    )


def _plant_hedgehog_accepting_2(monkeypatch):
    def plant(obj, sampled=DEFAULT_SAMPLED_FACTORS):
        report = real(obj, sampled)
        if not isinstance(obj, HedgehogSpec):
            return report
        return replace(report, accepted=(F(1), F(2)))

    real = verification.stabilizer_finite
    monkeypatch.setattr(verification, "stabilizer_finite", plant)


def _plant_tuzhilin_gap_doubled(monkeypatch):
    real = verification.tuzhilin_isometry

    def plant(cfg, m):
        embedding = real(cfg, m)
        return replace(embedding, hausdorff_value=2 * embedding.hausdorff_value)

    monkeypatch.setattr(verification, "tuzhilin_isometry", plant)


def _plant_needle_set_gap_raised(monkeypatch):
    real = verification.needle_set_hausdorff
    monkeypatch.setattr(
        verification, "needle_set_hausdorff", lambda n, m: real(n, m) + 1
    )


def _plant_value_one_up(monkeypatch):
    _plant_solver(monkeypatch, lambda x, y, r: replace(r, value=r.value + 1))


def _plant_chain_over_budget(monkeypatch):
    class OverBudget(ThreadChain):
        def __post_init__(self):
            super().__post_init__()
            object.__setattr__(self, "budget_checked", False)

    monkeypatch.setattr(verification, "ThreadChain", OverBudget)


def _plant_raised_positive_certificates(monkeypatch):
    # the constant chain's zero certificates stay zero
    def plant(chain):
        result = real(chain)
        raised = tuple(c + 1 if c else c for c in result.certificates)
        return replace(result, certificates=raised)

    real = verification.thread_limit
    monkeypatch.setattr(verification, "thread_limit", plant)


SCALING_GRID = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3), F(4))


def _scaling_factor(x, y):
    """lam of a `gh_exact(x, scale(x, lam))` call, by the diameters."""
    return diameter(y) / diameter(x)


def _plant_value_times_factor(monkeypatch):
    # d(lam) * lam: d(1) stays 0, but d(1/lam) = d(lam)/lam fails
    _plant_solver(
        monkeypatch,
        lambda x, y, r: replace(r, value=r.value * _scaling_factor(x, y)),
    )


def _plant_doubled_value(monkeypatch):
    # 2 * d(lam) keeps the inversion identity but not the closed form
    _plant_solver(monkeypatch, lambda x, y, r: replace(r, value=2 * r.value))


def _plant_value_raised_off_the_grid(monkeypatch):
    # exact on the grid, one up off it, where only the products lam*mu are probed
    def change(x, y, r):
        if _scaling_factor(x, y) in SCALING_GRID:
            return r
        return replace(r, value=r.value + 1)

    _plant_solver(monkeypatch, change)


def _plant_center_iterate(monkeypatch, change):
    real = verification.center_iterate
    monkeypatch.setattr(
        verification,
        "center_iterate",
        lambda x, lam, n: change(real(x, lam, n)),
    )


def _plant_doubled_iterate(monkeypatch):
    _plant_center_iterate(
        monkeypatch, lambda state: replace(state, iterate=scale(state.iterate, 2))
    )


def _plant_zero_tail_bound(monkeypatch):
    _plant_center_iterate(monkeypatch, lambda state: replace(state, tail_bound=F(0)))


def _plant_one_point_report(monkeypatch, change):
    """The one-point space's stabilizer report replaced by `change(report)`."""
    real = verification.stabilizer_finite

    def plant(obj, sampled=DEFAULT_SAMPLED_FACTORS):
        report = real(obj, sampled)
        if isinstance(obj, HedgehogSpec) or len(obj) > 1:
            return report
        return change(report)

    monkeypatch.setattr(verification, "stabilizer_finite", plant)


def _plant_point_without_factor_2(monkeypatch):
    # dropped from the candidates too, so the isometry search agrees
    def keep(factors):
        return tuple(lam for lam in factors if lam != 2)

    _plant_one_point_report(
        monkeypatch,
        lambda r: replace(r, accepted=keep(r.accepted), candidates=keep(r.candidates)),
    )


def _plant_point_missing_a_zero_sample(monkeypatch):
    _plant_one_point_report(
        monkeypatch,
        lambda r: replace(r, zero_distance_sampled=r.zero_distance_sampled[1:]),
    )


@pytest.mark.parametrize(
    "name,plant,witness",
    [
        (
            "solver-oracle-equivalence",
            _plant_oracle_off_by_one,
            r"trial 0: solver 2\*value \S+ != enumerated min distortion \S+",
        ),
        (
            "solver-oracle-equivalence",
            _plant_full_witness,
            r"trial 1: witness does not attain the reported value",
        ),
        (
            "diameter-identities",
            _plant_diameter_off_by_one,
            r"one-point identity failed on space 0",
        ),
        (
            "diameter-identities",
            _plant_value_past_the_diameters,
            r"pair 0: 2\*value exceeds max diameter",
        ),
        (
            "diameter-identities",
            _plant_lower_bound_past_the_value,
            r"pair 0: lower bound above exact value",
        ),
        (
            "diameter-identities",
            _plant_value_halfway_to_the_upper_bound,
            r"space 0: scaled copies 1/2,1/2 gave 13/16, expected 0",
        ),
        (
            "diameter-identities",
            _plant_value_one_below,
            r"pair 2: equivariance failed at 2",
        ),
        (
            "hedgehog-rigidity",
            _plant_negated_hedgehog_verdict,
            r"specs 0,0: multiset equality False but \d+ cells held by isometries",
        ),
        (
            "hedgehog-rigidity",
            _plant_center_moved,
            r"specs 1,1: an isometry moves the center",
        ),
        (
            "hedgehog-rigidity",
            _plant_needle_moved,
            r"specs 3,3: an isometry changes a needle length",
        ),
        (
            "hedgehog-rigidity",
            _plant_multiplicity_blind_verdict,
            r"specs 0,1: equal multisets but different sizes",
        ),
        (
            "bucket-construction",
            _plant_full_bucket_relation,
            r"eps 1: distortion \S+ above 2\*eps",
        ),
        (
            "bucket-construction",
            _plant_bound_of_the_full_relation,
            r"eps 1: upper bound above eps",
        ),
        (
            "bucket-construction",
            _plant_distortion_floor,
            r"eps 1: identical grids did not match identically",
        ),
        (
            "bucket-construction",
            _plant_dyadic_only_matcher,
            r"thirds vs dyadic: bucket correspondence exceeded its bound",
        ),
        (
            "center-location",
            _plant_skipped_near_probe,
            r"trial 0: centers were not matched by the correspondence",
        ),
        (
            "tuzhilin-example",
            _plant_unfaithful_shift,
            r"m=1: the shift does not preserve distances",
        ),
        (
            "tuzhilin-example",
            _plant_tuzhilin_gap_doubled,
            r"m=1: realized gap 2, expected 1",
        ),
        (
            "tuzhilin-example",
            _plant_needle_set_gap_raised,
            r"needle sets 1,1: gap differs from \|1/n - 1/m\|",
        ),
        (
            "thread-limits",
            _plant_raised_certificates,
            r"constant chain produced nonzero certificates",
        ),
        (
            "thread-limits",
            _plant_value_one_up,
            r"constant chain limit is not isometric to the base space",
        ),
        (
            "thread-limits",
            _plant_chain_over_budget,
            r"contraction chain does not satisfy the 1/2\^n link budget",
        ),
        (
            "thread-limits",
            _plant_diameter_off_by_one,
            r"contraction limit diameter \S+ != \S+",
        ),
        (
            "thread-limits",
            _plant_raised_positive_certificates,
            r"layer 1: certificate \S+ above 1/2\^\(n-1\)",
        ),
        (
            "scaling-dynamics",
            _plant_value_one_up,
            r"space 0: d\(1\) != 0",
        ),
        (
            "scaling-dynamics",
            _plant_value_times_factor,
            r"space 0: inversion identity failed at 1/4",
        ),
        (
            "scaling-dynamics",
            _plant_doubled_value,
            r"space 0: closed form failed at 1/4",
        ),
        (
            "scaling-dynamics",
            _plant_value_raised_off_the_grid,
            r"space 0: subdivision bound failed at 1/4,1/4",
        ),
        (
            "scaling-dynamics",
            _plant_doubled_iterate,
            r"space 0: iterate gap is not the closed form",
        ),
        (
            "scaling-dynamics",
            _plant_zero_tail_bound,
            r"space 0: tail bound fails to dominate the gap",
        ),
        (
            "stabilizers",
            _plant_hedgehog_accepting_2,
            r"hedgehog \(\(Fraction\(1, 1\), 1\), \(Fraction\(2, 1\), 1\)\): "
            r"accepted \(Fraction\(1, 1\), Fraction\(2, 1\)\), found \(Fraction\(1, 1\),\)",
        ),
        (
            "stabilizers",
            _plant_point_without_factor_2,
            r"one-point space rejected factors \[Fraction\(2, 1\)\]",
        ),
        (
            "stabilizers",
            _plant_point_missing_a_zero_sample,
            r"one-point space: a sampled factor is not at zero distance",
        ),
    ],
)
def test_each_check_fails_on_a_planted_fault(monkeypatch, name, plant, witness):
    plant(monkeypatch)
    result = run_check(name)
    assert result.passed is False
    assert re.fullmatch(witness, result.witness)


# planted faults in glued carriers: each family of the gluing and center checks
# must see a carrier that breaks what it claims


def _replanted(glued, change, provenance=None):
    """`glued` with `change(rows, denom)` applied to a copy of its carrier grid."""
    denom, grid = glued.carrier.grid
    rows = [list(row) for row in grid]
    change(rows, denom)
    carrier = from_grid(glued.carrier.labels, denom, tuple(map(tuple, rows)), STRICT)
    return GluedSpace(carrier, glued.provenance if provenance is None else provenance)


def _raise_last_block(glued):
    """The last block's distances to every other point, one grid unit up: still
    a strict metric, but that block's gap to its tree parent moves."""
    last = glued.provenance[-1][0]
    start = next(g for g, (v, _) in enumerate(glued.provenance) if v == last)

    def change(rows, denom):
        for p in range(start):
            for q in range(start, len(rows)):
                rows[p][q] += 1
                rows[q][p] += 1

    return _replanted(glued, change)


def _break_triangle(glued):
    """|0 z| one grid unit past |0 1| + |1 z|, z the last point."""

    def change(rows, denom):
        z = len(rows) - 1
        rows[0][z] = rows[z][0] = rows[0][1] + rows[1][z] + 1

    return _replanted(glued, change)


def _swap_first_two(glued):
    """Points 0 and 1 of the first block swapped in the provenance only."""
    provenance = list(glued.provenance)
    provenance[0], provenance[1] = provenance[1], provenance[0]
    return _replanted(glued, lambda rows, denom: None, tuple(provenance))


@pytest.mark.parametrize(
    "fault,witness",
    [
        (_break_triangle, r"pair 0: carrier is not a strict metric: .*"),
        (
            _raise_last_block,
            r"pair 0: realized Hausdorff gap is not half the distortion",
        ),
        (_swap_first_two, r"pair 0: carrier does not restrict to the inputs"),
    ],
)
def test_gluing_realization_fails_on_a_planted_pair_carrier(
    monkeypatch, fault, witness
):
    real = verification.glue_pair
    monkeypatch.setattr(
        verification, "glue_pair", lambda x, y, rel: fault(real(x, y, rel))
    )
    result = run_check("gluing-realization")
    assert not result.passed
    assert re.fullmatch(witness, result.witness, re.DOTALL)


@pytest.mark.parametrize(
    "fault,witness",
    [
        (_break_triangle, r"tree 0: carrier is not a strict metric: .*"),
        (_raise_last_block, r"tree 0: edge \(\d,\d\) gap differs from its weight"),
    ],
)
def test_gluing_realization_fails_on_a_planted_tree_carrier(
    monkeypatch, fault, witness
):
    real = verification.glue_tree
    monkeypatch.setattr(verification, "glue_tree", lambda tree: fault(real(tree)))
    result = run_check("gluing-realization")
    assert not result.passed
    assert re.fullmatch(witness, result.witness, re.DOTALL)


@pytest.mark.parametrize(
    "leaf_count,witness",
    [
        # the last leaf's gap moves off dis R / 2
        (3, r"star 0: leaf 2 gap \S+ is not half the distortion"),
        # the two-leaf star no longer agrees with the three-leaf one
        (2, r"star 0: adding a leaf moved existing points"),
    ],
)
def test_gluing_realization_fails_on_a_planted_star_carrier(
    monkeypatch, leaf_count, witness
):
    real = verification.glue_star

    def plant(center, leaves):
        glued = real(center, leaves)
        return _raise_last_block(glued) if len(leaves) == leaf_count else glued

    monkeypatch.setattr(verification, "glue_star", plant)
    result = run_check("gluing-realization")
    assert not result.passed
    assert re.fullmatch(witness, result.witness)


def _center_plant(monkeypatch, change):
    """Route the center check's gluing through `change(rows, denom, na, b)`."""
    real = hedgehogs.glue_pair

    def plant(a, b, rel):
        glued = real(a, b, rel)
        return _replanted(glued, lambda rows, denom: change(rows, denom, len(a), b))

    monkeypatch.setattr(hedgehogs, "glue_pair", plant)


def _set(rows, p, q, value):
    rows[p][q] = rows[q][p] = value


def test_center_location_fails_on_centers_4m_apart(monkeypatch):
    def change(rows, denom, na, b):
        _set(rows, 0, na, denom)  # M = 1/4, so 4M is one whole unit
        _set(rows, 0, na + 1, 1)  # the first center keeps a point within M

    _center_plant(monkeypatch, change)
    result = run_check("center-location")
    assert not result.passed
    assert result.witness == "trial 0: centers at 1 >= 4M"


def test_center_location_fails_when_far_needles_sit_by_the_other_center(monkeypatch):
    def change(rows, denom, na, b):
        for p in range(1, na):
            _set(rows, p, na, 1)

    _center_plant(monkeypatch, change)
    result = run_check("center-location")
    assert not result.passed
    assert result.witness == "trial 0: a far needle lacks a close non-center partner"


def test_center_location_fails_on_a_partner_outside_the_band(monkeypatch):
    def change(rows, denom, na, b):
        # the longest needle of the first copy is put next to the second
        # copy's needle of most different length
        length = F(rows[0][na - 1], denom)
        far = max(range(1, len(b)), key=lambda j: abs(b.dist[0][j] - length))
        _set(rows, na - 1, na + far, 1)

    _center_plant(monkeypatch, change)
    result = run_check("center-location")
    assert not result.passed
    assert re.fullmatch(r"trial 0: near-needle band failed at \S+", result.witness)
