#!/usr/bin/env python3
"""Stabilizer reports over random spaces, one CSV row per (space, factor).

Each space has pairwise distinct distances.  Its coordinates range over
{0..max(60, points^3 / 2)}, so the n(n-1)/2 distances of larger spaces can
be drawn distinct: the box of 60 runs out of draws from 8 points.
"""

from __future__ import annotations

import argparse

from ghkit.dynamics import stabilizer_finite
from ghkit.generate import random_metric_space, rng_from_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spaces", type=int, default=10)
    parser.add_argument("--points", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = rng_from_seed(args.seed)
    coord_max = max(60, args.points**3 // 2)
    print("space,lambda,accepted")
    for index in range(args.spaces):
        space = random_metric_space(
            rng, args.points, coord_max=coord_max, distinct_distances=True
        )
        report = stabilizer_finite(space)
        for lam in report.candidates:
            print(f"{index},{lam},{str(lam in report.accepted).lower()}")


if __name__ == "__main__":
    main()
