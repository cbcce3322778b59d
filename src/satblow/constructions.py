"""Extremal generators: small saturated and extra-saturated host subgraphs.

Each generator returns a PartiteGraph whose edge count matches a closed
form, and each closed form has a companion helper so callers can tabulate
without building graphs.  The helper holds the family's parameter checks,
and its generator calls it before building, so a table refuses exactly the
parameters a build refuses.  Generators only guarantee the saturation
property on the parameter ranges where it has been established; outside
those ranges they still emit the graph but raise a
VerificationRangeWarning, letting the caller decide whether to verify or
discard.

Distinguished vertices always occupy the low indices of their part (index 1,
then index 2), so equal parameters give identical graphs.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Optional

from .core import (
    BlowupHost,
    PartiteGraph,
    PatternGraph,
    is_two_connected,
)


class VerificationRangeWarning(UserWarning):
    """The requested parameters are outside the range where the generator's
    saturation property is known to hold.  The graph is still produced."""


def _warn_range(message: str) -> None:
    # name the first caller outside this module, whether it called a
    # generator directly or through ConstructionSpec.build
    frame, level = sys._getframe(2), 3
    while frame.f_globals["__name__"] == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, VerificationRangeWarning, stacklevel=level)


# --------------------------------------------------------------------------
# complete pattern on four parts
# --------------------------------------------------------------------------

# Anchor vertices: x_i is index 1 of part i, x_i' is index 2.  The core of
# the generator is this fixed 15-edge graph on the eight anchors; (i, t)
# means index t of part i.
_K4_CORE = (
    ((1, 1), (2, 1)),
    ((1, 1), (2, 2)),
    ((1, 1), (3, 2)),
    ((1, 1), (4, 2)),
    ((1, 2), (2, 2)),
    ((1, 2), (3, 1)),
    ((1, 2), (4, 1)),
    ((2, 1), (3, 1)),
    ((2, 1), (4, 1)),
    ((2, 1), (4, 2)),
    ((2, 2), (3, 2)),
    ((2, 2), (4, 1)),
    ((3, 1), (4, 2)),
    ((3, 2), (4, 1)),
    ((3, 2), (4, 2)),
)

# Every vertex of part i beyond the anchors is joined to these anchors.
_K4_ATTACH = {
    1: ((2, 1), (3, 1), (3, 2), (4, 1)),
    2: ((1, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    3: ((1, 1), (1, 2), (2, 1), (4, 1)),
    4: ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)),
}


def k4_saturation_edges(n: int) -> int:
    if n < 2:
        raise ValueError("k4_construction needs n >= 2")
    return 18 * n - 21


def k4_construction(n: int) -> PartiteGraph:
    """A saturated subgraph of K4[n] with 18n - 21 edges.

    Eight anchor vertices (two per part) carry a fixed 15-edge graph; every
    other vertex is joined to a fixed 4- or 5-subset of the anchors.
    Saturation holds for n >= 3; n = 2 yields just the anchor graph.
    """
    want = k4_saturation_edges(n)
    if n == 2:
        _warn_range("k4_construction(2) is outside the verified saturation range n >= 3")
    host = BlowupHost(PatternGraph.complete(4), n)
    edges = list(_K4_CORE)
    for part, anchors in _K4_ATTACH.items():
        for index in range(3, n + 1):
            u = (part, index)
            edges.extend((u, (p, t)) for p, t in anchors)
    G = PartiteGraph(host, edges)
    assert G.edge_count() == want
    return G


# --------------------------------------------------------------------------
# stars
# --------------------------------------------------------------------------


def star_saturation_edges(r: int, n: int) -> int:
    if r < 2:
        raise ValueError("star_construction needs r >= 2")
    if n < 1:
        raise ValueError("star_construction needs n >= 1")
    return (r - 1) * n * n


def star_construction(r: int, n: int) -> PartiteGraph:
    """The saturated subgraph of K_{1,r}[n] with (r-1) n^2 edges: every
    center vertex is joined to all of the first r-1 leaf parts and to none
    of the last one."""
    want = star_saturation_edges(r, n)
    host = BlowupHost(PatternGraph.star(r), n)
    rng = range(1, n + 1)
    edges = [
        ((1, a), (leaf, b))
        for leaf in range(2, r + 1)
        for a in rng
        for b in rng
    ]
    G = PartiteGraph(host, edges)
    assert G.edge_count() == want
    return G


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------


def path_saturation_edges(r: int, n: int) -> int:
    if r < 4:
        raise ValueError("path_construction needs r >= 4")
    if n < 2:
        raise ValueError("path_construction needs n >= 2")
    if r % 2 == 0:
        return (r // 2 - 1) * n * n + (r - 2) * n + 3 - r
    return ((r - 1) // 2) * n * n + (r - 4) * n + 5 - r


def _path_gate_sizes(r: int, n: int) -> list[int]:
    """|A_i| for each part: the gate sets steering where edges may live."""
    sizes = [0] * (r + 1)  # 1-based
    sizes[1] = n
    sizes[r] = 0
    if r % 2 == 0:
        for i in range(2, r - 1, 2):
            sizes[i] = 1
        for i in range(3, r):
            if i % 2 == 1:
                sizes[i] = n - 1
    else:
        sizes[r - 1] = n - 1
        for i in range(2, r - 2, 2):
            sizes[i] = 1
        for i in range(3, r - 1):
            if i % 2 == 1:
                sizes[i] = n - 1
    return sizes


def path_construction(r: int, n: int) -> PartiteGraph:
    """A saturated subgraph of P_r[n] built from gate sets A_i within parts.

    Edges between consecutive parts run either from A_i to A_{i+1} or from
    the complement of A_i to all of part i+1.  A_1 is everything, A_r is
    empty, and interior gates alternate between a single vertex and all but
    one.  Saturation is established for n >= 2r.
    """
    want = path_saturation_edges(r, n)
    if n < 2 * r:
        _warn_range(
            f"path_construction(r={r}, n={n}) is outside the verified saturation range n >= {2 * r}"
        )
    host = BlowupHost(PatternGraph.path(r), n)
    sizes = _path_gate_sizes(r, n)
    edges = []
    for i in range(1, r):
        a_here, a_next = sizes[i], sizes[i + 1]
        for a in range(1, a_here + 1):
            edges.extend(
                ((i, a), (i + 1, b)) for b in range(1, a_next + 1)
            )
        for a in range(a_here + 1, n + 1):
            edges.extend(
                ((i, a), (i + 1, b)) for b in range(1, n + 1)
            )
    G = PartiteGraph(host, edges)
    assert G.edge_count() == want
    return G


# --------------------------------------------------------------------------
# two-connected patterns: a linear-in-n saturated upper bound
# --------------------------------------------------------------------------


def two_connected_edge_bound(pattern: PatternGraph, n: int) -> int:
    if not is_two_connected(pattern):
        raise ValueError("two_connected_stages needs a two-connected pattern")
    e = pattern.edge_count()
    if n < e:
        raise ValueError(f"two_connected_stages needs n >= e(H) = {e}")
    return 2 * e * e * n - e * e * e


def two_connected_stages(pattern: PatternGraph, n: int) -> tuple[PartiteGraph, PartiteGraph]:
    """The two deterministic stages of the linear upper-bound construction.

    Stage one places, for the k-th pattern edge ij (lexicographic), a copy of
    the pattern stripped of all edges at i and j on index k of every part.
    Stage two joins each stripped-copy vertex that was adjacent to i (or j)
    to every vertex of part i (or j) outside the reserved index block.  The
    second stage is partite-free: any copy would need an edge inside one
    stripped copy at its missing endpoints.
    """
    two_connected_edge_bound(pattern, n)  # the range checks
    e = pattern.edge_count()
    host = BlowupHost(pattern, n)
    pattern_edges = sorted(pattern.edges)
    g1_edges = []
    for k, (i, j) in enumerate(pattern_edges, start=1):
        for u, w in pattern.edges:
            if u in (i, j) or w in (i, j):
                continue
            g1_edges.append(((u, k), (w, k)))
    G1 = PartiteGraph(host, g1_edges)

    g2_edges = list(g1_edges)
    outside = range(e + 1, n + 1)
    for k, (i, j) in enumerate(pattern_edges, start=1):
        for center in (i, j):
            for u in pattern.neighbors(center):
                if u in (i, j):
                    continue
                g2_edges.extend(
                    ((u, k), (center, b)) for b in outside
                )
    G2 = PartiteGraph(host, g2_edges)
    return G1, G2


def two_connected_upper(pattern: PatternGraph, n: int, seed: int) -> PartiteGraph:
    """A saturated subgraph of H[n] with at most 2 e(H)^2 n - e(H)^3 edges,
    for two-connected H and n >= e(H).  The deterministic stages are topped
    up to saturation by the seeded greedy."""
    from .solve import greedy_saturate

    _, G2 = two_connected_stages(pattern, n)
    G3 = greedy_saturate(G2, seed)
    assert G3.edge_count() <= two_connected_edge_bound(pattern, n)
    return G3


# --------------------------------------------------------------------------
# extra-saturation generators
# --------------------------------------------------------------------------


def clique_exsat_edges(r: int, n: int) -> int:
    if r < 3:
        raise ValueError("clique_exsat_construction needs r >= 3")
    if n < 1:
        raise ValueError("clique_exsat_construction needs n >= 1")
    return (2 * n - 1) * r * (r - 1) // 2


def clique_exsat_construction(r: int, n: int) -> PartiteGraph:
    """Extra-saturated subgraph of K_r[n] with (2n-1) C(r,2) edges: one
    distinguished vertex per part forming a clique, each also joined to
    every vertex of every other part."""
    want = clique_exsat_edges(r, n)
    G = generic_exsat_construction(PatternGraph.complete(r), n)
    assert G.edge_count() == want
    return G


def generic_exsat_edges(pattern: PatternGraph, n: int) -> int:
    if pattern.edge_count() < 1:
        raise ValueError("generic_exsat_construction needs a pattern with an edge")
    if n < 1:
        raise ValueError("generic_exsat_construction needs n >= 1")
    return (2 * n - 1) * pattern.edge_count()


def generic_exsat_construction(pattern: PatternGraph, n: int) -> PartiteGraph:
    """Extra-saturated subgraph of H[n] with (2n-1) e(H) edges for any
    pattern with at least one edge: pin one copy of the pattern on index 1
    and join each pinned vertex to all vertices of the parts it must reach."""
    want = generic_exsat_edges(pattern, n)
    host = BlowupHost(pattern, n)
    edges = set()
    for i, j in pattern.edges:
        for b in range(1, n + 1):
            edges.add(((i, 1), (j, b)))
            edges.add(((i, b), (j, 1)))
    G = PartiteGraph(host, edges)
    assert G.edge_count() == want
    return G


def tree_exsat_edges(tree: PatternGraph, n: int) -> int:
    if not tree.is_tree():
        raise ValueError("tree_exsat_construction needs a tree pattern")
    if tree.vertex_count < 2:
        raise ValueError("tree_exsat_construction needs a tree with an edge")
    if n < 1:
        raise ValueError("tree_exsat_construction needs n >= 1")
    return (tree.vertex_count - 1) * n


def tree_exsat_construction(tree: PatternGraph, n: int) -> PartiteGraph:
    """Extra-saturated subgraph of T[n] for a tree T: n disjoint pinned
    copies, copy k on index k of every part, (|T|-1) n edges in total.
    Minimality is established for n >= 4; smaller n still yields the graph."""
    want = tree_exsat_edges(tree, n)
    if n < 4:
        _warn_range(
            f"tree_exsat_construction(n={n}) is outside the verified minimality range n >= 4"
        )
    host = BlowupHost(tree, n)
    edges = [
        ((i, k), (j, k))
        for k in range(1, n + 1)
        for i, j in tree.edges
    ]
    G = PartiteGraph(host, edges)
    assert G.edge_count() == want
    return G


# --------------------------------------------------------------------------
# CLI-facing dispatch record
# --------------------------------------------------------------------------

# family name -> (generator, closed form, the spec fields the generator
# takes in order); the closed form takes the same fields but the seed
_FAMILY_TABLE = {
    "k4": (k4_construction, k4_saturation_edges, ("n",)),
    "star": (star_construction, star_saturation_edges, ("r", "n")),
    "path": (path_construction, path_saturation_edges, ("r", "n")),
    "two-connected": (two_connected_upper, two_connected_edge_bound, ("pattern", "n", "seed")),
    "clique-exsat": (clique_exsat_construction, clique_exsat_edges, ("r", "n")),
    "generic-exsat": (generic_exsat_construction, generic_exsat_edges, ("pattern", "n")),
    "tree-exsat": (tree_exsat_construction, tree_exsat_edges, ("pattern", "n")),
}
FAMILIES = tuple(_FAMILY_TABLE)

_MISSING = {"n": "n", "r": "r", "pattern": "a pattern", "seed": "a seed for its greedy stage"}


@dataclass(frozen=True)
class ConstructionSpec:
    """Which family to build, with its parameters."""

    family: str
    n: int
    r: Optional[int] = None
    pattern: Optional[PatternGraph] = None
    seed: Optional[int] = None

    def _args(self, seeded: bool) -> tuple:
        """The family's generator (seeded) or closed form, with the values
        of the spec fields it takes; refuses an unknown family or a missing
        field."""
        if self.family not in _FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        make, formula, fields = _FAMILY_TABLE[self.family]
        values = []
        for field in fields:
            if field == "seed" and not seeded:
                continue
            value = getattr(self, field)
            if value is None:
                raise ValueError(f"family {self.family!r} needs {_MISSING[field]}")
            values.append(value)
        return (make if seeded else formula), values

    def validate(self) -> None:
        self._args(seeded=False)

    def build(self) -> PartiteGraph:
        make, values = self._args(seeded=True)
        return make(*values)

    def formula_value(self) -> int:
        """The closed-form edge count (an upper bound for two-connected); it
        refuses the parameters that build refuses, and needs no seed."""
        formula, values = self._args(seeded=False)
        return formula(*values)
