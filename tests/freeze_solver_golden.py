"""Freeze the stressed-size solver golden file, tests/data/solver-golden.json.

    PYTHONPATH=src python tests/freeze_solver_golden.py

Builds the seeded 10-16 point pairs listed in RECIPES (random spaces, a space
against 5 times itself with one coordinate moved one unit, and a hedgehog
against a copy with every needle nudged by less than 1/4), solves each with
`gh_exact`, and records both integer grids with the exact value and the
lex-min witness.  The grids are stored, so the golden does not depend on the
generators.  Only a deliberate change of the solver's contract should ever
re-freeze it; the test that reads it is tests/test_solver.py.  `build_pair`
also draws the pairs that tests/test_map_reference.py checks.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from ghkit.generate import perturbed_hedgehog, random_metric_space, rng_from_seed
from ghkit.hedgehogs import HedgehogSpec, compile_hedgehog
from ghkit.solver import gh_exact
from ghkit.spaces import validate

GOLDEN = Path(__file__).parent / "data" / "solver-golden.json"

# (family, n, m, seed): seed 1000*n + s for square pairs, 1000*n + 100*m + s
# otherwise; picked among the first seeds for solving in under 0.1 s each
# with many search nodes
RECIPES = [
    ("random", 12, 12, 12002),
    ("random", 14, 14, 14005),
    ("random", 16, 16, 16002),
    ("random", 10, 16, 11600),
    ("random", 16, 11, 17101),
    ("random", 13, 15, 14503),
    ("near_scaled", 12, 12, 12004),
    ("near_scaled", 14, 14, 14005),
    ("near_scaled", 16, 16, 16001),
    ("hedgehog", 12, 12, 12005),
    ("hedgehog", 14, 14, 14004),
    ("hedgehog", 16, 16, 16000),
    ("hedgehog", 16, 16, 16003),
]


def _sup_rows(points, denominator):
    return [
        [Fraction(max(abs(a - b) for a, b in zip(p, q)), denominator) for q in points]
        for p in points
    ]


def build_pair(family, n, m, seed):
    rng = rng_from_seed(seed)
    if family == "random":
        return random_metric_space(rng, n), random_metric_space(rng, m)
    if family == "near_scaled":
        box = [(a, b, c) for a in range(13) for b in range(13) for c in range(13)]
        points = rng.sample(box, n)
        moved = [[5 * c for c in point] for point in points]
        moved[rng.randrange(n)][rng.randrange(3)] += rng.choice((-1, 1))
        return validate(_sup_rows(points, 6)), validate(_sup_rows(moved, 6))
    lengths = [Fraction(rng.randint(1, 24), 8) for _ in range(n - 1)]
    spec = HedgehogSpec.from_pairs((length, 1) for length in lengths)
    other, _ = perturbed_hedgehog(rng, spec, Fraction(1, 4))
    return compile_hedgehog(spec), compile_hedgehog(other)


def main() -> int:
    entries = []
    for family, n, m, seed in RECIPES:
        x, y = build_pair(family, n, m, seed)
        result = gh_exact(x, y)
        entries.append(
            {
                "id": f"{family}-{n}x{m}-{seed}",
                "x": {"denominator": x.grid[0], "rows": [list(r) for r in x.grid[1]]},
                "y": {"denominator": y.grid[0], "rows": [list(r) for r in y.grid[1]]},
                "value": str(result.value),
                "witness": [list(p) for p in result.witness.sorted_pairs()],
            }
        )
        print(entries[-1]["id"], result.value, file=sys.stderr)
    with open(GOLDEN, "w") as out:
        out.write('{"pairs": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in entries))
        out.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
