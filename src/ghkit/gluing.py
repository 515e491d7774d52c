"""Realize correspondences as ambient embeddings on disjoint unions.

Two spaces joined by a correspondence R get the cross metric
|xy| = min over (x', y') in R of |xx'| + (1/2) dis R + |y'y|; the realized
Hausdorff distance between the two copies is then exactly (1/2) dis R.
Trees of spaces extend this edge metric along unique paths.

The min-plus passes run on integers, on the least denominator L on which
every vertex grid and every weight (1/2) dis R is integral: the lcm of their
denominators.  A vertex already on L is not rescaled, and the carrier needs
no reduction: the full power of each prime p in L is in the denominator of a
vertex grid, which is canonical, so one of its entries keeps no factor p on
L, or of a weight, which is itself an entry (a matched pair's distance).
Attaching w to a placed vertex u along R gives each placed point z the
distance |zq| = (1/2) dis R + min over x' of |zx'| + near[x'][q], near[x'][q]
the least |y'q| over the partners y' of x': one C-level pass over the carrier.
It is exact because the carrier built so far is a metric whose u block is u's
own rows (rows are only ever extended), so min over x in u of |zx| + |xx'| is
|zx'|: >= by the triangle inequality, = at x = x'.  Exact `Fraction`
distances are built once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Sequence

from .correspondences import Correspondence, distortion, rescaled
from .errors import DistortionBudgetExceeded, IndexOutOfRange, NotATree, ZeroDistortion
from .spaces import (
    STRICT,
    FiniteMetricSpace,
    SubsetRef,
    as_fraction,
    check_points,
    from_grid,
)


@dataclass(frozen=True)
class GluingTree:
    """Spaces at the vertices, correspondences (with positive distortion) on edges.

    The constructor checks the tree once, walking it breadth-first from
    vertex 0.  It keeps each edge's weight (1/2) dis R in `weights` and the
    order in which `glue_tree` attaches the vertices: (placed vertex, new
    vertex, pairs oriented from the placed one, weight).
    """

    vertices: tuple[FiniteMetricSpace, ...]
    edges: tuple[tuple[int, int, Correspondence], ...]
    weights: tuple[Fraction, ...] = field(init=False, compare=False)
    _attach: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vertices, edges = tuple(self.vertices), tuple(map(tuple, self.edges))
        self.__dict__.update(vertices=vertices, edges=edges)
        v = len(self.vertices)
        if v == 0:
            raise ValueError("a gluing tree needs at least one vertex")
        check_points("gluing tree has", sum(map(len, self.vertices)))
        if len(self.edges) != v - 1:
            raise NotATree(f"{v} vertices need {v - 1} edges, got {len(self.edges)}")
        weights = []
        adjacency: list[list] = [[] for _ in range(v)]
        for u, w, rel in self.edges:
            if not (0 <= u < v and 0 <= w < v) or u == w:
                raise NotATree(f"bad edge ({u}, {w})")
            if rel.left != self.vertices[u] or rel.right != self.vertices[w]:
                raise ValueError(f"edge ({u}, {w}): correspondence spaces do not match")
            weight = distortion(rel) / 2
            if weight == 0:
                raise ZeroDistortion(
                    f"edge ({u}, {w}) has distortion 0; such copies must be "
                    "merged, not glued"
                )
            weights.append(weight)
            adjacency[u].append((w, rel.pairs, False, weight))
            adjacency[w].append((u, rel.pairs, True, weight))
        order, placed, attach = [0], {0}, []
        for u in order:  # grows while it is read: a breadth-first queue
            for w, pairs, backwards, weight in adjacency[u]:
                if w not in placed:
                    placed.add(w)
                    order.append(w)
                    if backwards:  # the edge was given as (w, u)
                        pairs = frozenset((j, i) for i, j in pairs)
                    attach.append((u, w, pairs, weight))
        if len(order) != v:
            raise NotATree("edge set is not connected")
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "_attach", tuple(attach))

    def weight(self, edge_index: int) -> Fraction:
        """The edge's weight (1/2) dis R; `IndexOutOfRange` for an index
        outside 0 .. len(edges) - 1."""
        if not 0 <= edge_index < len(self.weights):
            raise IndexOutOfRange(
                f"edge must be in 0..{len(self.weights) - 1}, got {edge_index}"
            )
        return self.weights[edge_index]


@dataclass(frozen=True)
class GluedSpace:
    """One ambient space containing an isometric copy of every glued vertex.

    The carrier lists each vertex as one block, in `glue_tree`'s attach order
    (for `glue_pair`: the first space, then the second).
    """

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

    Each new vertex is attached, in the order the tree recorded, with one
    min-plus pass against everything already placed, through the block of
    its tree parent.  The carrier lists the vertices in that order, each as
    one contiguous block of its points.
    """
    for v_space in tree.vertices:
        if v_space.mode != STRICT:
            raise ValueError("gluing is defined for strict spaces")

    grids = [space.grid for space in tree.vertices]
    denom = math.lcm(*(d for d, _ in grids), *(w.denominator for w in tree.weights))
    rows = [rescaled(g, denom // d) for d, g in grids]

    provenance = [(0, p) for p in range(len(rows[0]))]
    offsets = {0: 0}
    dist: list[list[int]] = [list(row) for row in rows[0]]
    for u, w, pairs, weight in tree._attach:
        # the weight's denominator divides L, so omega is exact
        omega = weight.numerator * (denom // weight.denominator)
        dw = rows[w]
        nu, nw = len(rows[u]), len(dw)
        partners: list[list[int]] = [[] for _ in range(nu)]
        for i, j in pairs:
            partners[i].append(j)
        # near[x'][q], the least |y' q| over the partners y' of x', column
        # by column; the first partner's row twice gives min two arguments
        near = [list(map(min, dw[js[0]], *map(dw.__getitem__, js))) for js in partners]
        base = offsets[u]
        offsets[w] = len(provenance)
        provenance.extend((w, p) for p in range(nw))
        blocks = [row[base : base + nu] for row in dist]  # each placed row's u block
        columns = [
            [omega + min(map(add, block, near_q)) for block in blocks]
            for near_q in zip(*near)
        ]
        for row, new in zip(dist, zip(*columns)):
            row.extend(new)
        for q in range(nw):
            dist.append(columns[q] + list(dw[q]))

    labels = tuple(
        f"{vtx}.{tree.vertices[vtx].labels[p]}" for vtx, p in provenance
    )
    carrier = from_grid(labels, denom, dist, STRICT)
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
    tree = GluingTree(
        (center, *(space for space, _, _ in leaves)),
        tuple((0, index + 1, rel) for index, (_, rel, _) in enumerate(leaves)),
    )
    for index, ((_, _, budget), weight) in enumerate(zip(leaves, tree.weights)):
        bound = as_fraction(budget)
        if weight >= bound:
            raise DistortionBudgetExceeded(
                index,
                f"leaf {index}: dis R = {2 * weight} is not below 2M = {2 * bound}",
            )
    return glue_tree(tree)
