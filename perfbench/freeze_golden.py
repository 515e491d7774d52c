"""Freeze the solve-corpus golden file at the default seed.

    PYTHONPATH=src python3 perfbench/freeze_golden.py

Solves every pair of the default-seed corpus with `gh_exact` under a
per-pair limit (FREEZE_LIMIT_S) far above the benchmark's, and records its
exact value, lex-min witness and node count in perfbench/golden/.  A pair
still unsolved at the limit is recorded with value null; the benchmark then
checks only its invariants.  The last freeze solved all 216 pairs, the
slowest in 35 s on a 2-CPU machine.  Only a deliberate change of the corpus
or of the solver's contract should ever re-freeze it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from ghkit import io, solver
from workloads import (
    DEFAULT_SEED,
    GOLDEN_PATH,
    TimeLimit,
    install_time_limit,
    limited,
    solve_corpus_pairs,
)


FREEZE_LIMIT_S = 120.0


def main() -> int:
    install_time_limit()
    solve = limited(solver.gh_exact, FREEZE_LIMIT_S, lambda: 1.0)  # plain seconds
    entries = []
    for batch in solve_corpus_pairs(DEFAULT_SEED):
        for pair in batch:
            x, y = (io.parse_space(text) for text in pair.texts)
            entry = {"id": pair.id, "family": pair.family, "inputs": pair.inputs}
            began = perf_counter()
            try:
                result = solve(x, y)
            except TimeLimit:
                entry.update(value=None, witness=None, nodes=None)
            else:
                entry.update(
                    value=str(result.value),
                    witness=[list(p) for p in result.witness.sorted_pairs()],
                    nodes=result.nodes_explored,
                )
            seconds = perf_counter() - began
            print(f"{pair.id} {pair.family} {entry['value']} {seconds:.2f}s",
                  file=sys.stderr, flush=True)
            entries.append(entry)
    with open(GOLDEN_PATH, "w") as out:
        header = {"seed": DEFAULT_SEED, "limit_s": FREEZE_LIMIT_S}
        out.write(json.dumps(header)[:-1] + ', "pairs": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in entries))
        out.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
