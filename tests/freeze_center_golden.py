"""Freeze the center-location golden file, tests/data/center-golden.json.

    PYTHONPATH=src python tests/freeze_center_golden.py

Builds seeded trials for each M in M_VALUES: a random spec whose needles
reach 8M, against a copy nudged by less than M/2, M, 3M/2 or 2M (the
perturbed_hedgehog correspondence, centers matched); the same pair with the
center swapped with the shortest needle (centers unmatched); the same pair
with the partners of two needles within M of each other crossed; and a spec
of needles no longer than 2M, which mostly breaks the two-tall-needles
premise.  Four fixed cases add a nonpositive M, a distortion-0
correspondence and a single nudged needle.  Each entry stores its inputs
(both specs, the sorted pairs of the correspondence on the compiled spaces,
M) and the outcome of `check_center_location`: every report field as
strings, the glued carrier as a digest of its labels, grid and provenance,
or the exception type and message.  The inputs are stored, so the golden does not depend on the
generators.  Only a deliberate change of the center-location contract should
ever re-freeze it; the test that reads it is tests/test_hedgehogs.py.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

from ghkit.correspondences import Correspondence
from ghkit.errors import GhkitError
from ghkit.generate import dense_hedgehog_spec, perturbed_hedgehog, rng_from_seed
from ghkit.hedgehogs import HedgehogSpec, check_center_location, compile_hedgehog

GOLDEN = Path(__file__).parent / "data" / "center-golden.json"

M_VALUES = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
TRIALS = 10  # per M and kind


def spec_record(spec: HedgehogSpec) -> list[list[str]]:
    return [[str(length), str(mult)] for length, mult in spec.needles]


def spec_from_record(record: list[list[str]]) -> HedgehogSpec:
    return HedgehogSpec.from_pairs((Fraction(x), int(k)) for x, k in record)


def outcome(a: HedgehogSpec, b: HedgehogSpec, pairs, m: Fraction) -> dict:
    """`check_center_location` on the compiled pair, recorded as strings."""
    rel = Correspondence(compile_hedgehog(a), compile_hedgehog(b), frozenset(pairs))
    try:
        report = check_center_location(a, b, rel, m)
    except (GhkitError, ValueError) as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    glued = report.glued
    carrier = (glued.carrier.labels, glued.carrier.mode, glued.carrier.grid)
    digest = hashlib.sha256(repr((carrier, glued.provenance)).encode()).hexdigest()
    near = report.near_probe
    return {
        "report": {
            "m": str(report.m),
            "center_distance": str(report.center_distance),
            "center_bound_ok": str(report.center_bound_ok),
            "far_needles": [list(map(str, astuple(w))) for w in report.far_needles],
            "coverage_ok": str(report.coverage_ok),
            "near_probe": None if near is None else [list(map(str, astuple(w))) for w in near],
            "near_probe_ok": str(report.near_probe_ok),
            "glued": digest,
            "passed": str(report.passed),
        }
    }


def trials():
    """(id, a, b, pairs, m) for every seeded trial and fixed case."""
    for mi, m in enumerate(M_VALUES):
        for trial in range(TRIALS):
            rng = rng_from_seed(1000 * mi + trial)
            spec = dense_hedgehog_spec(rng, count=5, max_length=8 * m)
            delta = m * rng.choice((Fraction(1, 2), 1, Fraction(3, 2), 2))
            other, rel = perturbed_hedgehog(rng, spec, delta)
            yield f"matched-{m}-{trial}", spec, other, rel.pairs, m
            swapped = (rel.pairs - {(0, 0), (1, 1)}) | {(0, 1), (1, 0)}
            yield f"unmatched-{m}-{trial}", spec, other, swapped, m
            lengths = spec.expanded()
            close = [
                (i, j)
                for i in range(1, len(lengths))
                for j in range(i + 1, len(lengths) + 1)
                if lengths[j - 1] - lengths[i - 1] < m
            ]
            i, j = rng.choice(close) if close else (1, 1)
            crossed = (rel.pairs - {(i, i), (j, j)}) | {(i, j), (j, i)}
            yield f"crossed-{m}-{trial}", spec, other, crossed, m
            short = dense_hedgehog_spec(rng, count=2, max_length=2 * m)
            other, rel = perturbed_hedgehog(rng, short, m)
            yield f"short-{m}-{trial}", short, other, rel.pairs, m
    spec = HedgehogSpec.of(2, 3)
    identity = {(i, i) for i in range(3)}
    nudged = HedgehogSpec.of(Fraction(9, 4), 3)
    yield "m-zero", spec, nudged, identity, Fraction(0)
    yield "m-negative", spec, nudged, identity, Fraction(-1, 2)
    yield "zero-distortion", spec, spec, identity, Fraction(1)
    yield "nudged", spec, nudged, identity, Fraction(1, 4)


def main() -> int:
    entries = []
    for case_id, a, b, pairs, m in trials():
        entry = {
            "id": case_id,
            "a": spec_record(a),
            "b": spec_record(b),
            "pairs": sorted(map(list, pairs)),
            "m": str(m),
            **outcome(a, b, pairs, m),
        }
        entries.append(entry)
        print(case_id, entry.get("error", ["ok"])[0], file=sys.stderr)
    with open(GOLDEN, "w") as out:
        out.write('{"cases": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in entries))
        out.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
