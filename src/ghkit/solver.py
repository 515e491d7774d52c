"""Exact Gromov-Hausdorff distance between finite strict metric spaces.

d_GH(X, Y) = (1/2) min over correspondences R of dis R.  The minimum is
searched over pairs of total maps (f: X -> Y, g: Y -> X) with
R = graph(f) u graph(g)^-1: every correspondence contains such a
sub-correspondence of no larger distortion, and every such union is itself a
correspondence, so the minimum is preserved while the search space shrinks
from 2^(nm) to m^n * n^m.  Branch-and-bound assigns images for points in
decreasing-eccentricity order and prunes any partial assignment whose
distortion already reaches the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .correspondences import (
    Correspondence,
    IntRows,
    cell_gap_table,
    distortion,
    scaled_integer_matrices,
)
from .errors import InvariantBroken, SizeLimitExceeded
from .spaces import STRICT, FiniteMetricSpace, diameter

DEFAULT_SIZE_CAP = 8


@dataclass(frozen=True)
class GHResult:
    value: Fraction
    witness: Correspondence
    lower_bound: Fraction
    nodes_explored: int


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Fraction:
    """Half the diameter gap; never exceeds the exact distance."""
    return abs(diameter(x) - diameter(y)) / 2


def gh_upper_from(rel: Correspondence) -> Fraction:
    """Half the distortion of any correspondence bounds the distance above."""
    return distortion(rel) / 2


def gh_exact(
    x: FiniteMetricSpace, y: FiniteMetricSpace, cap: int = DEFAULT_SIZE_CAP
) -> GHResult:
    """Exact distance, an optimal witness, and search statistics.

    The witness is the lexicographically smallest pair set among all
    correspondences attaining the minimum distortion, so repeated runs (and
    snapshot tests) see one canonical answer.
    """
    if x.mode != STRICT or y.mode != STRICT:
        raise ValueError("gh_exact requires strict spaces")
    n, m = len(x), len(y)
    if max(n, m) > cap:
        raise SizeLimitExceeded(f"sizes {n}x{m} exceed cap {cap}")

    denom, dx, dy = scaled_integer_matrices(x, y)
    lb_int = abs(max(max(r) for r in dx) - max(max(r) for r in dy))

    best, nodes = _search_min_distortion(n, m, dx, dy, lb_int)
    witness_pairs = _lex_min_witness(n, m, dx, dy, best)
    witness = Correspondence(x, y, witness_pairs)
    return GHResult(
        value=Fraction(best, 2 * denom),
        witness=witness,
        lower_bound=Fraction(lb_int, 2 * denom),
        nodes_explored=nodes,
    )


def _search_min_distortion(
    n: int, m: int, dx: IntRows, dy: IntRows, lb: int
) -> tuple[int, int]:
    """Branch-and-bound over (f, g) assignment pairs; returns (min dis, nodes)."""
    order_x = sorted(range(n), key=lambda i: (-max(dx[i]), i))
    order_y = sorted(range(m), key=lambda j: (-max(dy[j]), j))
    slots = [(0, p) for p in order_x] + [(1, p) for p in order_y]
    total = len(slots)

    assigned: list[tuple[int, int]] = []  # (x index, y index)
    best = None
    nodes = 0

    def search(slot: int, current: int) -> None:
        nonlocal best, nodes
        if best is not None and best <= lb:
            return
        if slot == total:
            best = current  # pruning guarantees current < best here
            return
        side, p = slots[slot]
        choices = range(m) if side == 0 else range(n)
        ranked = []
        for q in choices:
            pair = (p, q) if side == 0 else (q, p)
            worst = current
            for a, b in assigned:
                gap = dx[pair[0]][a] - dy[pair[1]][b]
                if gap < 0:
                    gap = -gap
                if gap > worst:
                    worst = gap
            if best is None or worst < best:
                ranked.append((worst, q, pair))
        ranked.sort()
        for worst, _, pair in ranked:
            if best is not None and worst >= best:
                break
            nodes += 1
            assigned.append(pair)
            search(slot + 1, worst)
            assigned.pop()
            if best is not None and best <= lb:
                return

    search(0, 0)
    if best is None:
        raise InvariantBroken("branch-and-bound reached no full assignment")
    return best, nodes


def _lex_min_witness(
    n: int, m: int, dx: IntRows, dy: IntRows, target: int
) -> frozenset[tuple[int, int]]:
    """Lexicographically smallest correspondence with distortion <= target.

    Cells are scanned in index order; a cell joins the witness whenever the
    prefix (chosen cells, earlier cells excluded) still extends to a full
    correspondence within the distortion budget.  Prefix-closed comparison:
    once the chosen set covers both sides, any extension sorts later, so the
    scan stops.
    """
    nm = n * m
    cells = [(i, j) for i in range(n) for j in range(m)]
    diff = cell_gap_table(n, m, dx, dy)

    def compatible(cell: int, members: list[int]) -> bool:
        base = cell * nm
        return all(diff[base + other] <= target for other in members)

    def covers(members: list[int]) -> bool:
        rows = {cells[c][0] for c in members}
        cols = {cells[c][1] for c in members}
        return len(rows) == n and len(cols) == m

    def feasible(members: list[int], start: int) -> bool:
        """Can `members` extend to a full correspondence using cells >= start?"""
        chosen = list(members)
        available = [
            c for c in range(start, nm) if compatible(c, chosen)
        ]

        def extend() -> bool:
            need_rows = set(range(n)) - {cells[c][0] for c in chosen}
            need_cols = set(range(m)) - {cells[c][1] for c in chosen}
            if not need_rows and not need_cols:
                return True
            # most-constrained row or column first
            best_cands: list[int] | None = None
            for r in sorted(need_rows):
                cands = [
                    c
                    for c in available
                    if cells[c][0] == r and compatible(c, chosen)
                ]
                if best_cands is None or len(cands) < len(best_cands):
                    best_cands = cands
                    if not cands:
                        return False
            for col in sorted(need_cols):
                cands = [
                    c
                    for c in available
                    if cells[c][1] == col and compatible(c, chosen)
                ]
                if best_cands is None or len(cands) < len(best_cands):
                    best_cands = cands
                    if not cands:
                        return False
            if best_cands is None:
                raise InvariantBroken("no uncovered row or column to extend")
            for c in best_cands:
                chosen.append(c)
                if extend():
                    chosen.pop()
                    return True
                chosen.pop()
            return False

        return extend()

    chosen: list[int] = []
    for cell in range(nm):
        if covers(chosen):
            break
        if not compatible(cell, chosen):
            continue
        if feasible(chosen + [cell], cell + 1):
            chosen.append(cell)
    if not covers(chosen):
        raise InvariantBroken(
            f"grid distortion {target} admits no correspondence (solver bug)"
        )
    return frozenset(cells[c] for c in chosen)


def isometric_bijections(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> list[tuple[int, ...]]:
    """All distance-preserving bijections X -> Y, as image tuples.

    Exhaustive backtracking with exact mismatch pruning: a partial map is
    abandoned the moment one pair of distances disagrees, which never skips a
    genuine isometry.  Empty result means the spaces are not isometric.
    """
    n = len(x)
    if n != len(y):
        return []
    dx, dy = x.dist, y.dist
    found: list[tuple[int, ...]] = []
    image: list[int] = []
    used = [False] * n

    def place(i: int) -> None:
        if i == n:
            found.append(tuple(image))
            return
        for j in range(n):
            if used[j]:
                continue
            ok = True
            for a in range(i):
                if dx[i][a] != dy[j][image[a]]:
                    ok = False
                    break
            if ok:
                used[j] = True
                image.append(j)
                place(i + 1)
                image.pop()
                used[j] = False

    place(0)
    return found


def are_isometric(x: FiniteMetricSpace, y: FiniteMetricSpace) -> bool:
    n = len(x)
    if n != len(y):
        return False
    dx, dy = x.dist, y.dist
    image: list[int] = []
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j]:
                continue
            if all(dx[i][a] == dy[j][image[a]] for a in range(i)):
                used[j] = True
                image.append(j)
                if place(i + 1):
                    return True
                image.pop()
                used[j] = False
        return False

    return place(0)
