"""Realize correspondences as ambient embeddings on disjoint unions.

Two spaces joined by a correspondence R get the cross metric
|xy| = min over (x', y') in R of |xx'| + (1/2) dis R + |y'y|; the realized
Hausdorff distance between the two copies is then exactly (1/2) dis R.
Trees of spaces extend this edge metric along unique paths, relaying through
intermediate spaces.

The min-plus passes run on integers: every vertex grid is rescaled to one
denominator 2L (L the lcm of the vertex denominators), on which each
(1/2) dis R is integral too.  The carrier's exact `Fraction` distances are
built once at the end, with that grid cached on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Sequence

from .correspondences import Correspondence, distortion, grid_distortion, rescaled
from .errors import DistortionBudgetExceeded, NotATree, ZeroDistortion
from .spaces import STRICT, FiniteMetricSpace, SubsetRef, as_fraction, from_grid


@dataclass(frozen=True)
class GluingTree:
    """Spaces at the vertices, correspondences (with positive distortion) on edges."""

    vertices: tuple[FiniteMetricSpace, ...]
    edges: tuple[tuple[int, int, Correspondence], ...]

    def __post_init__(self) -> None:
        v = len(self.vertices)
        if v == 0:
            raise ValueError("a gluing tree needs at least one vertex")
        if len(self.edges) != v - 1:
            raise NotATree(f"{v} vertices need {v - 1} edges, got {len(self.edges)}")
        adjacency: dict[int, list[int]] = {i: [] for i in range(v)}
        for u, w, rel in self.edges:
            if not (0 <= u < v and 0 <= w < v) or u == w:
                raise NotATree(f"bad edge ({u}, {w})")
            if rel.left != self.vertices[u] or rel.right != self.vertices[w]:
                raise ValueError(f"edge ({u}, {w}): correspondence spaces do not match")
            if distortion(rel) == 0:
                raise ZeroDistortion(
                    f"edge ({u}, {w}) has distortion 0; such copies must be "
                    "merged, not glued"
                )
            adjacency[u].append(w)
            adjacency[w].append(u)
        stack = [0]
        seen = {0}
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != v:
            raise NotATree("edge set is not connected")

    def weight(self, edge_index: int) -> Fraction:
        return distortion(self.edges[edge_index][2]) / 2


@dataclass(frozen=True)
class GluedSpace:
    """One ambient space containing an isometric copy of every glued vertex."""

    carrier: FiniteMetricSpace
    provenance: tuple[tuple[int, int], ...]  # carrier index -> (vertex, local index)

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {point: g for g, point in enumerate(self.provenance)}

    @cached_property
    def _parts(self) -> dict[int, SubsetRef]:
        members: dict[int, list[int]] = {}
        for g, (v, _) in enumerate(self.provenance):
            members.setdefault(v, []).append(g)
        return {
            v: SubsetRef(self.carrier, frozenset(indices))
            for v, indices in members.items()
        }

    def part(self, vertex: int) -> SubsetRef:
        try:
            return self._parts[vertex]
        except KeyError:
            raise ValueError(f"no vertex {vertex} in this gluing") from None

    def locate(self, vertex: int, local: int) -> int:
        try:
            return self._index[vertex, local]
        except KeyError:
            raise ValueError(f"no point ({vertex}, {local}) in this gluing") from None


def glue_pair(
    x: FiniteMetricSpace, y: FiniteMetricSpace, rel: Correspondence
) -> GluedSpace:
    """Glue two strict spaces along a correspondence of positive distortion."""
    return glue_tree(GluingTree((x, y), ((0, 1, rel),)))


def glue_tree(tree: GluingTree) -> GluedSpace:
    """Extend the vertex metrics to the whole disjoint union.

    Distances between points of distant vertices relay through the unique
    tree path; the minimum over relay points factorizes, so each new vertex
    is attached with one min-plus pass against everything already placed.
    """
    for v_space in tree.vertices:
        if v_space.mode != STRICT:
            raise ValueError("gluing is defined for strict spaces")

    v = len(tree.vertices)
    adjacency: dict[int, list[tuple[int, frozenset[tuple[int, int]]]]] = {
        i: [] for i in range(v)
    }
    for u, w, rel in tree.edges:
        adjacency[u].append((w, rel.pairs))
        adjacency[w].append((u, frozenset((j, i) for i, j in rel.pairs)))

    grids = [space.grid for space in tree.vertices]
    denom = 2 * math.lcm(*(d for d, _ in grids))
    rows = [rescaled(g, denom // d) for d, g in grids]

    provenance: list[tuple[int, int]] = []
    offsets: dict[int, int] = {}

    def place(vertex: int) -> None:
        offsets[vertex] = len(provenance)
        provenance.extend((vertex, p) for p in range(len(tree.vertices[vertex])))

    place(0)
    dist: list[list[int]] = [list(row) for row in rows[0]]

    frontier = [0]
    attached = {0}
    while frontier:
        u = frontier.pop(0)
        for w, pairs in adjacency[u]:
            if w in attached:
                continue
            attached.add(w)
            frontier.append(w)
            du, dw = rows[u], rows[w]
            omega = grid_distortion(du, dw, pairs) // 2
            nu, nw = len(du), len(dw)
            # cross[q][p] = min over (x', y') of |p x'| + omega + |y' q|
            cross = [
                [
                    omega + min([du[p][i] + dw[j][q] for i, j in pairs])
                    for p in range(nu)
                ]
                for q in range(nw)
            ]
            base = offsets[u]
            place(w)
            columns = [
                [min(map(add, row[base : base + nu], cross_q)) for row in dist]
                for cross_q in cross
            ]
            for z, row in enumerate(dist):
                row.extend(column[z] for column in columns)
            for q in range(nw):
                dist.append(columns[q] + list(dw[q]))

    labels = tuple(
        f"{vtx}.{tree.vertices[vtx].labels[p]}" for vtx, p in provenance
    )
    carrier = from_grid(labels, denom, tuple([tuple(row) for row in dist]), STRICT)
    return GluedSpace(carrier, tuple(provenance))


def glue_star(
    center: FiniteMetricSpace,
    leaves: Sequence[tuple[FiniteMetricSpace, Correspondence, int | Fraction]],
) -> GluedSpace:
    """Star gluing with per-leaf budgets: each leaf must satisfy 0 < dis R < 2M.

    The realized Hausdorff distance from the center copy to leaf i is then
    (1/2) dis R_i < M_i.
    """
    if not leaves:
        raise ValueError("a star needs at least one leaf")
    vertices = [center]
    edges = []
    for index, (space, rel, budget) in enumerate(leaves):
        bound = as_fraction(budget)
        dis = distortion(rel)
        if dis == 0:
            raise ZeroDistortion(f"leaf {index}: distortion 0")
        if dis >= 2 * bound:
            raise DistortionBudgetExceeded(
                index, f"leaf {index}: dis R = {dis} is not below 2M = {2 * bound}"
            )
        if rel.left != center or rel.right != space:
            raise ValueError(f"leaf {index}: correspondence spaces do not match")
        vertices.append(space)
        edges.append((0, index + 1, rel))
    return glue_tree(GluingTree(tuple(vertices), tuple(edges)))
