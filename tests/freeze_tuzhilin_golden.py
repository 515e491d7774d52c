"""Freeze the Tuzhilin golden file, tests/data/tuzhilin-golden.json.

    PYTHONPATH=src python tests/freeze_tuzhilin_golden.py

Runs `tuzhilin_isometry` for n = 2..10, k in {n, n + 5, 20} and every shift
m = 1..n, and records each `TuzhilinEmbedding` as strings: the ambient
labels, a sha256 of the ambient grid, the indices of both parts, the
mapping, `distance_preserving`, `hausdorff_value` and `expected`.  It also
records `needle_set_hausdorff(n, m)` for n, m = 1..30.  Only a deliberate
change of the needle-shift contract should ever re-freeze it; the test that
reads it is tests/test_tuzhilin.py.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from ghkit.tuzhilin import TuzhilinConfig, needle_set_hausdorff, tuzhilin_isometry

GOLDEN = Path(__file__).parent / "data" / "tuzhilin-golden.json"

NEEDLE_SETS = 30  # needle_set_hausdorff(n, m) for n, m = 1..NEEDLE_SETS


def configs() -> list[tuple[int, int]]:
    return [(n, k) for n in range(2, 11) for k in sorted({n, n + 5, 20})]


def outcome(n: int, k: int, m: int) -> dict:
    """`tuzhilin_isometry(TuzhilinConfig(n, k), m)`, recorded as strings."""
    embedding = tuzhilin_isometry(TuzhilinConfig(n, k), m)
    ambient = embedding.ambient
    grid = hashlib.sha256(repr(ambient.grid).encode()).hexdigest()
    return {
        "n": n,
        "k": k,
        "m": m,
        "ambient_labels": list(ambient.labels),
        "ambient_grid_sha256": grid,
        "x_part": sorted(embedding.x_part.indices),
        "image_part": sorted(embedding.image_part.indices),
        "mapping": [list(pair) for pair in embedding.mapping],
        "distance_preserving": str(embedding.distance_preserving),
        "hausdorff_value": str(embedding.hausdorff_value),
        "expected": str(embedding.expected),
    }


def needle_sets() -> list[list[str]]:
    """Row n - 1, column m - 1: `needle_set_hausdorff(n, m)` as a string."""
    span = range(1, NEEDLE_SETS + 1)
    return [[str(needle_set_hausdorff(n, m)) for m in span] for n in span]


def main() -> int:
    entries = [
        outcome(n, k, m) for n, k in configs() for m in range(1, n + 1)
    ]
    with open(GOLDEN, "w") as out:
        out.write('{"embeddings": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in entries))
        out.write('\n],\n"needle_sets": ')
        out.write(json.dumps(needle_sets()))
        out.write("\n}\n")
    print(f"{len(entries)} embeddings", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
