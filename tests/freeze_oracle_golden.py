"""Freeze the enumeration-oracle golden file, tests/data/oracle-golden.json.

    PYTHONPATH=src python tests/freeze_oracle_golden.py

Builds one seeded pair per shape in SHAPES, 13 to 20 cells (n*m), with
integer coordinates up to 3 so that distortions tie often, runs
`min_distortion_by_enumeration` on each, and records both integer grids with
the minimum distortion and the sorted pairs of its witness: the first
covering minimizer in ascending cell-mask order.  The grids are stored, so
the golden does not depend on the generators.  Only a deliberate change of
the oracle's contract should ever re-freeze it; the test that reads it is
tests/test_correspondences.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ghkit.correspondences import min_distortion_by_enumeration
from ghkit.generate import random_metric_space, rng_from_seed

GOLDEN = Path(__file__).parent / "data" / "oracle-golden.json"

# (n, m): the pair is drawn from rng_from_seed(100*n + m)
SHAPES = [(3, 5), (5, 3), (4, 4), (4, 5), (5, 4), (2, 10), (10, 2), (1, 20)]


def main() -> int:
    entries = []
    for n, m in SHAPES:
        seed = 100 * n + m
        rng = rng_from_seed(seed)
        x = random_metric_space(rng, n, denominator=1, coord_max=3)
        y = random_metric_space(rng, m, denominator=1, coord_max=3)
        value, witness = min_distortion_by_enumeration(x, y)
        entries.append(
            {
                "id": f"{n}x{m}-{seed}",
                "x": {"denominator": x.grid[0], "rows": [list(r) for r in x.grid[1]]},
                "y": {"denominator": y.grid[0], "rows": [list(r) for r in y.grid[1]]},
                "value": str(value),
                "witness": [list(p) for p in witness.sorted_pairs()],
            }
        )
        print(entries[-1]["id"], value, len(witness.pairs), file=sys.stderr)
    with open(GOLDEN, "w") as out:
        out.write('{"pairs": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in entries))
        out.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
