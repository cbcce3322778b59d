"""Smallest multipartite witnesses used by the clique saturation bounds:
m_value and kr_sat_bounds.  m_value's search, its lex-leader test and the
proof of its one cut are given in its docstring.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .solve import _deadline
from .symmetry import _POOLS, _Leader, _child_leader, _root_leader, _slot_group


@dataclass(frozen=True)
class MultipartiteGraph:
    """A graph on parts of possibly different sizes; vertices are (part,
    index) pairs, 1-based, and edges never stay inside a part."""

    part_sizes: tuple[int, ...]
    edges: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def vertices(self) -> list[tuple[int, int]]:
        return [
            (p + 1, i + 1)
            for p, size in enumerate(self.part_sizes)
            for i in range(size)
        ]

    def has_edge(self, u, v) -> bool:
        u, v = tuple(u), tuple(v)
        return (u, v) in self.edges or (v, u) in self.edges

    def edge_count(self) -> int:
        return len(self.edges)

    def has_clique(self, k: int) -> bool:
        verts = self.vertices()
        return any(
            all(self.has_edge(x, y) for x, y in itertools.combinations(combo, 2))
            for combo in itertools.combinations(verts, k)
        )

    def parts_have_transversal_clique(self, parts: tuple[int, ...]) -> bool:
        pools = [
            [(p, i + 1) for i in range(self.part_sizes[p - 1])] for p in parts
        ]
        return any(
            all(self.has_edge(x, y) for x, y in itertools.combinations(combo, 2))
            for combo in itertools.product(*pools)
        )


@dataclass(frozen=True)
class MResult:
    """Smallest vertex count of an r-partite graph (all parts non-empty)
    that is K_s-free yet has a transversal K_{s-1} inside every choice of
    s - 1 parts.  value None means the search space was exhausted or the
    budget ran out before a witness appeared.  A witness is re-checked from
    the definition, on its own edges, before it is returned.

    stats says where the search went, as plain JSON-ready data:
    stats["vertex_counts"] holds one record per vertex count searched, with
    "vertices", "partitions" (part-size splits tried), "candidates" (each
    split's empty root, and the slots above the last slot of a node, as far
    as the search reached them), "nodes" (candidates visited) and "cuts",
    the candidates dropped by reason: "clique" (the slot closes a K_s),
    "not_canonical" (not the lex leader of its orbit) and "uncoverable"
    (every slot above an uncoverable node, see m_value).  Each candidate is
    a node or cut exactly once, so candidates = nodes + the sum of the cuts
    on every record.  "pools" counts the splits tried by the group their
    lex-leader test ran on (see symmetry._slot_group): "full" (every
    permutation within each part), "cyclic" (index shifts, where the full
    group passes the caps), "automorphisms" (never, as m_value has no part
    map but the identity) and "none" (no test); a node count from a split
    run on "cyclic" or "none" is larger than under the full group.
    stats["cuts"] holds each reason's total, and nodes_explored the total
    of the nodes."""

    r: int
    s: int
    value: Optional[int]
    witness: Optional[MultipartiteGraph]
    nodes_explored: int
    elapsed: float
    exhausted_budget: bool
    stats: Optional[dict] = None


def _partitions(total: int, parts: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - (parts - 1) * minimum + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


class _BudgetExceeded(Exception):
    pass


# why a candidate slot set of the m-value search was dropped, in the order
# the search tests them
_M_CUT_REASONS = ("clique", "not_canonical", "uncoverable")


def _m_stats(vertices: int) -> dict:
    return {
        "vertices": vertices,
        "partitions": 0,
        "candidates": 0,
        "nodes": 0,
        "cuts": dict.fromkeys(_M_CUT_REASONS, 0),
        "pools": dict.fromkeys([name for name, _, _ in _POOLS] + ["none"], 0),
    }


class _MPartition:
    """One split into part sizes: its slots (vertex pairs in different
    parts, vertices numbered part by part), the index permutations within
    each part from the largest pool that fits the caps of
    symmetry._slot_group (None when only the identity does, as when every
    part has size 1), and a graph held as one adjacency bitmask per
    vertex."""

    def __init__(self, sizes: tuple[int, ...], s: int):
        r = len(sizes)
        offsets = list(itertools.accumulate(sizes, initial=0))
        total = offsets[-1]
        # index a of part p to index b of part q, p < q, in the order of
        # the vertex pairs (offsets[p] + a, offsets[q] + b)
        ends = [
            (p, a, q, b)
            for p in range(r)
            for a in range(sizes[p])
            for q in range(p + 1, r)
            for b in range(sizes[q])
        ]
        slots = [(offsets[p] + a, offsets[q] + b) for p, a, q, b in ends]
        self.group = _slot_group(sizes, [tuple(range(r))], ends)
        part_masks = [((1 << size) - 1) << offsets[p] for p, size in enumerate(sizes)]
        self.s, self.slots, self.ends, self.L = s, slots, ends, len(slots)
        self.adj = [0] * total
        # each choice of s - 1 parts, as the vertex masks of its parts
        self.choices = [
            tuple(part_masks[p] for p in choice)
            for choice in itertools.combinations(range(r), s - 1)
        ]
        self.everything = (1 << total) - 1
        # the choice that failed last is tried first: a child adds one edge
        # to its parent, so it most often still lacks the same transversal
        self.last_failed = 0

    def toggle(self, ks) -> None:
        adj, slots = self.adj, self.slots
        for k in ks:
            x, y = slots[k]
            adj[x] ^= 1 << y
            adj[y] ^= 1 << x

    def free_of(self, ks) -> list[int]:
        """The slots of ks that close no K_s with the graph."""
        adj, slots = self.adj, self.slots

        def clique_in(need: int, pool: int) -> bool:
            # does pool hold a clique of size `need`?
            if need == 0:
                return True
            while pool:
                bit = pool & -pool
                pool ^= bit
                if clique_in(need - 1, pool & adj[bit.bit_length() - 1]):
                    return True
            return False

        return [k for k in ks if not clique_in(self.s - 2, adj[slots[k][0]] & adj[slots[k][1]])]

    def covered(self) -> bool:
        """Does the graph hold a transversal K_{s-1} on every s - 1 parts?"""
        adj = self.adj

        def grow(choice: tuple[int, ...], idx: int, pool: int) -> bool:
            # a transversal clique on the parts choice[idx:], inside pool
            if idx == len(choice):
                return True
            cand = pool & choice[idx]
            while cand:
                bit = cand & -cand
                cand ^= bit
                if grow(choice, idx + 1, pool & adj[bit.bit_length() - 1]):
                    return True
            return False

        first, choices = self.last_failed, self.choices
        for i in itertools.chain(range(first, len(choices)), range(first)):
            if not grow(choices[i], 0, self.everything):
                self.last_failed = i
                return False
        return True

    def uncoverable(self, free: list[int]) -> bool:
        """Is the graph plus the slots `free` (none of them in it) still not
        covered?  Then no set between the two is (see m_value)."""
        self.toggle(free)
        reachable = self.covered()
        self.toggle(free)
        return not reachable

    def edges(self, chosen) -> frozenset:
        """The slots `chosen` as MultipartiteGraph edges."""
        ends = map(self.ends.__getitem__, chosen)
        return frozenset(((p + 1, a + 1), (q + 1, b + 1)) for p, a, q, b in ends)


def _m_search_partition(
    sizes: tuple[int, ...],
    s: int,
    deadline: Optional[float] = None,
    row: Optional[dict] = None,
    prune: bool = True,
) -> Optional[frozenset]:
    """The first covered K_s-free lex leader on parts of these sizes, in
    depth-first preorder, as MultipartiteGraph edges, or None.  Counts go to
    row, an _m_stats record.  prune=False leaves out the uncoverable cut, a
    reference path for tests: the answer is the same, with more nodes."""
    if row is None:
        row = _m_stats(sum(sizes))
    cut = row["cuts"]
    part = _MPartition(sizes, s)
    L, group = part.L, part.group

    def dfs(
        S: tuple[int, ...], free: list[int], parent: Optional[_Leader]
    ) -> Optional[tuple[int, ...]]:
        # S is a K_s-free lex leader held in part.adj, free lists the slots
        # above max S that close no K_s with it, and parent is the _Leader
        # of S[:-1] (None at the root, or with no group)
        row["nodes"] += 1
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded
        if part.covered():
            return S
        later = L - 1 - (S[-1] if S else -1)
        if prune and part.uncoverable(free):
            cut["uncoverable"] += later
            return None
        cut["clique"] += later - len(free)
        leader = None
        if group is not None and free:
            leader = _child_leader(group, parent, S) if S else _root_leader(group)
        for i, k in enumerate(free):
            if leader is not None and not leader.admits(group, k):
                cut["not_canonical"] += 1
                continue
            part.toggle((k,))
            got = dfs(S + (k,), part.free_of(free[i + 1 :]), leader)
            part.toggle((k,))
            if got is not None:
                return got
        return None

    row["partitions"] += 1
    row["pools"]["none" if group is None else group.pool] += 1
    witness = dfs((), part.free_of(range(L)), None)
    return None if witness is None else part.edges(witness)


def _m_search(
    r: int, s: int, max_vertices: Optional[int], budget: Optional[float], prune: bool = True
) -> MResult:
    """The search behind m_value; prune=False is the reference path of
    _m_search_partition."""
    if s < 3:
        raise ValueError("m_value needs s >= 3")
    if r < s:
        raise ValueError("m_value needs r >= s")
    if max_vertices is None:
        max_vertices = 2 * r
    deadline = _deadline(budget)
    start = time.monotonic()
    rows: list[dict] = []

    def result(value, witness, exhausted) -> MResult:
        # an independent path: the definition, on the witness's own edges
        if witness is not None and (
            witness.has_clique(s)
            or not all(
                witness.parts_have_transversal_clique(parts)
                for parts in itertools.combinations(range(1, r + 1), s - 1)
            )
        ):
            raise RuntimeError(
                f"the m({r}, {s}) search returned a {value}-vertex witness that is not valid"
            )
        for row in rows:  # each candidate is a node or cut exactly once
            row["candidates"] = row["nodes"] + sum(row["cuts"].values())
        totals = {c: sum(row["cuts"][c] for row in rows) for c in _M_CUT_REASONS}
        stats = {"vertex_counts": rows, "cuts": totals}
        nodes = sum(row["nodes"] for row in rows)
        return MResult(r, s, value, witness, nodes, time.monotonic() - start, exhausted, stats)

    try:
        for total in range(r, max_vertices + 1):
            rows.append(_m_stats(total))
            for sizes in sorted(_partitions(total, r)):
                if deadline is not None and time.monotonic() > deadline:
                    raise _BudgetExceeded
                edges = _m_search_partition(sizes, s, deadline, rows[-1], prune)
                if edges is not None:
                    return result(total, MultipartiteGraph(sizes, edges), False)
    except _BudgetExceeded:
        return result(None, None, True)
    return result(None, None, False)


def m_value(
    r: int,
    s: int,
    max_vertices: Optional[int] = None,
    budget: Optional[float] = None,
) -> MResult:
    """Search vertex counts upward for the smallest K_s-free r-partite graph
    whose every (s-1)-subset of parts holds a transversal K_{s-1}.

    Each split of the vertex count into part sizes is searched depth-first
    over slot sets, up to index permutations within each part.  A child set
    is kept only when it is the lex leader of its orbit, by the test the
    exact search uses (see symmetry.py): symmetry._slot_group builds the
    permutations under the caps the exact search's group meets, all of
    them or, on a split whose full group passes the caps, the cyclic
    shifts of each part; each node with free slots derives its _Leader
    from its parent's, and _Leader.admits tests each free slot as the loop
    reaches it.  A smaller group leaves the search complete, with more
    nodes: every split up to 2r vertices keeps its full group for r <= 7,
    and m(10, 3) = 18 runs (1 x 9, 9) on 9 shifts, not 9! permutations.

    Every node S carries its free slots F: those above max S that close no
    K_s with S.  Its children are S + (k,) for k in F, and the free slots
    of a child are those of F above k that close no K_s with it, since a
    slot that closes a K_s with a graph closes one with every supergraph.
    So every set of the subtree of S lies inside S + F, and as being
    covered (a transversal K_{s-1} in every s - 1 parts) only grows with
    edges, S is dropped with its subtree when S + F is not covered
    (uncoverable).  No dropped subtree holds a covered set, so the first
    covered set in depth-first preorder, the witness, is the one the search
    without the cut returns.  stats (see MResult) counts each split tried,
    the nodes and the cuts."""
    return _m_search(r, s, max_vertices, budget)


@dataclass(frozen=True)
class KrSatBounds:
    """Linear-in-n bounds on the least edge count of a saturated subgraph of
    K_r[n]; either side is None when its multipartite witness search came
    back UNKNOWN."""

    r: int
    n: int
    lower: Optional[int]
    upper: Optional[int]
    m_lower: MResult
    m_upper: MResult


def kr_sat_bounds(
    r: int,
    n: int,
    *,
    max_vertices: Optional[int] = None,
    budget: Optional[float] = None,
) -> KrSatBounds:
    """Bounds m(r-1, r-1) * r * n / 2 <= sat <= m(r, r-1) * (r-1) * n, with
    the m-values computed by m_value.  budget is the wall-clock limit of
    both searches together: the second gets what the first left.

    n = 1 is refused: the lower bound's degree argument needs each vertex to
    miss some vertex of every other part, and at n = 1 a vertex can see a
    whole part (sat of K4[1] is 5, not 8)."""
    if r < 4:
        raise ValueError("kr_sat_bounds needs r >= 4")
    if n < 2:
        raise ValueError("kr_sat_bounds needs n >= 2: at n = 1 the lower bound does not hold")
    deadline = _deadline(budget)
    m_lower = m_value(r - 1, r - 1, max_vertices, budget)
    left = None if deadline is None else max(0.0, deadline - time.monotonic())
    m_upper = m_value(r, r - 1, max_vertices, left)
    lower = None if m_lower.value is None else (m_lower.value * r * n + 1) // 2
    upper = None if m_upper.value is None else m_upper.value * (r - 1) * n
    return KrSatBounds(r, n, lower, upper, m_lower, m_upper)
