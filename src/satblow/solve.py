"""Greedy samplers and exact minimum searches.

The exact searches (min_sat_exact, min_exsat_exact) deepen on a target edge
count m, starting from a proven lower bound, and run a complete search over
edge sets of size m up to symmetry before moving to m + 1.  The symmetry
group combines index permutations within each part with automorphisms of the
pattern; a candidate edge set is kept only when it is the lexicographically
least member of its orbit (its lex leader), slots being numbered in
lexicographic endpoint order and a set being compared as its sorted tuple.
Appending slots in increasing order preserves that canonical form under
prefix removal, so each orbit is expanded exactly once and levels are
carried over between deepening steps instead of being rebuilt.

One lex-leader rule serves both this search and m_value.  Let P be a lex
leader and C = P + (s,) with s > max P.  For a group element g, the
threshold t_g of P is the first slot of P missing from g(P), or s when g
fixes P as a set.  Then g maps C below C exactly when g(s) < t_g, and only
g(s) == t_g < s leaves a sorted comparison to make.  Proof: P[:i] lies in
g(P) for t_g = P[i], and every other slot of g(P) exceeds t_g (g(P) sorts
no lower than P, and differs from it first at position i), so g(s) < t_g
puts g(s) into the shared prefix ahead of a larger slot of C, g(s) > t_g
leaves position i of the image above t_g = C[i], and when g fixes P the
image is P + (g(s),) up to sorting.  A slot s whose orbit minimum lies
below P[0] is rejected at once.  For the rest, t_g = P[0] unless some
slot of P maps onto P[0] (the rows U), and g(s) >= P[0], with equality
exactly when s itself maps onto P[0] (the rows W).  So outside U and W the
whole child maps above P[0] = C[0] and cannot give a smaller image; the
exact search tests U rows by their thresholds and W rows by comparing
sorted(g(P)) with P[1:] + (s,), and never reads any other row.

Two facts prune the tree without losing any optimum:

* a subgraph of a partite-free graph is partite-free, so non-free prefixes
  are dead in the saturation search;
* in any saturated or extra-saturated graph, a vertex whose part has pattern
  degree at least two cannot be isolated (one added edge cannot carry two
  pattern edges at that vertex), so a prefix that has permanently passed all
  slots at such a vertex while leaving it isolated is dead in both searches.

When the full group is too large to tabulate, a subgroup (cyclic index
shifts, or pattern automorphisms alone) is used instead; the search then
revisits some orbits but stays complete.  A seeded greedy run provides the
upper end of the deepening range and the fallback answer when the wall-clock
budget runs out.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import (
    BlowupHost,
    PartiteGraph,
    PartiteVertex,
    PatternGraph,
    _build_masks,
    _closes_copy,
    first_uncovered_slot,
    has_partite_copy,
    is_two_connected,
)

# --------------------------------------------------------------------------
# greedy samplers
# --------------------------------------------------------------------------


def _greedy_fill(G: PartiteGraph, seed: int) -> PartiteGraph:
    """Add, in a seeded order, every slot whose addition creates no copy
    through it.  Rejections are permanent (more edges only create more
    copies), so a single pass reaches the fixpoint."""
    host = G.host
    pattern, n = host.pattern, host.n
    slots, ends0 = host.slots(), host.ends0()
    masks = [[list(row) for row in part] for part in G._masks]
    candidates = [k for k, (p, a, q, b) in enumerate(ends0) if not masks[p][a][q] >> b & 1]
    random.Random(seed).shuffle(candidates)
    edges = set(G.edges)
    for k in candidates:
        p, a, q, b = ends0[k]
        if not _closes_copy(pattern, n, masks, p, a, q, b):
            masks[p][a][q] |= 1 << b
            masks[q][b][p] |= 1 << a
            edges.add(slots[k])
    return PartiteGraph(host, edges)


def greedy_saturate(G: PartiteGraph, seed: int) -> PartiteGraph:
    """A partite-saturated supergraph of G, grown in seeded random order.
    G itself must be partite-free; an already saturated input comes back
    unchanged."""
    if has_partite_copy(G):
        raise ValueError("greedy_saturate needs a partite-free input graph")
    return _greedy_fill(G, seed)


def greedy_extra_saturate(G: PartiteGraph, seed: int) -> PartiteGraph:
    """An extra-saturated supergraph of G, grown in seeded random order by
    adding slots whose addition leaves the copy count unchanged."""
    return _greedy_fill(G, seed)


# --------------------------------------------------------------------------
# lower bound seeding the exact search
# --------------------------------------------------------------------------


def saturation_lower_bound(pattern: PatternGraph, n: int) -> int:
    """For a two-connected pattern, every vertex sitting in a part of
    pattern degree >= 2 needs at least one edge in any saturated or
    extra-saturated graph, which forces at least half that many edges.
    Other patterns get the trivial bound 0."""
    if not is_two_connected(pattern):
        return 0
    needy = sum(1 for v in pattern.vertices if pattern.degree_of(v) >= 2)
    return (needy * n + 1) // 2


# --------------------------------------------------------------------------
# slot bookkeeping for the orderly search
# --------------------------------------------------------------------------


class _SlotSystem:
    def __init__(self, host: BlowupHost):
        pattern, n = host.pattern, host.n
        v = pattern.vertex_count
        self.host = host
        self.pattern = pattern
        self.n = n
        self.slots = host.slots()
        self.L = len(self.slots)
        self.ends0 = host.ends0()
        # vertices that may never end up isolated, and the slot index after
        # which each vertex's adjacency is settled for good
        needy_parts = {p for p in range(v) if len(pattern._adj0[p]) >= 2}
        last_touch: dict[int, int] = {}
        for k, (p, a, q, b) in enumerate(self.ends0):
            last_touch[p * n + a] = k
            last_touch[q * n + b] = k
        self.needy_final: list[list[int]] = [[] for _ in range(self.L)]
        for vid, k in last_touch.items():
            if vid // n in needy_parts:
                self.needy_final[k].append(vid)

    def masks_for(self, slot_ids) -> list:
        masks = _build_masks(self.pattern.vertex_count, self.n, ())
        for k in slot_ids:
            p, a, q, b = self.ends0[k]
            masks[p][a][q] |= 1 << b
            masks[q][b][p] |= 1 << a
        return masks

    def degrees_for(self, slot_ids) -> list[int]:
        degs = [0] * (self.pattern.vertex_count * self.n)
        for k in slot_ids:
            p, a, q, b = self.ends0[k]
            degs[p * self.n + a] += 1
            degs[q * self.n + b] += 1
        return degs

    def graph_for(self, slot_ids) -> PartiteGraph:
        return PartiteGraph(self.host, (self.slots[k] for k in slot_ids))


def _pattern_automorphisms(pattern: PatternGraph) -> list[tuple[int, ...]]:
    """Every automorphism of the pattern as a 0-based vertex map, in
    lexicographic order, found by backtracking over partial maps.  Vertices
    are mapped in breadth-first order, so a vertex with a neighbour mapped
    earlier may only go to a neighbour of that neighbour's image; each
    choice must also match degrees and agree on adjacency with every vertex
    mapped before it."""
    v = pattern.vertex_count
    adj = [frozenset(a) for a in pattern._adj0]
    order: list[int] = []
    anchor = [-1] * v
    seen: set[int] = set()
    for root in range(v):
        queue = [] if root in seen else [root]
        seen.update(queue)
        for u in queue:  # grows as it is walked: breadth-first
            for w in pattern._adj0[u]:
                if w not in seen:
                    seen.add(w)
                    anchor[w] = u
                    queue.append(w)
        order += queue

    image = [-1] * v
    used = [False] * v

    def choices(depth: int) -> Iterator[int]:
        # lazy: each candidate is checked against the map as it stands when
        # drawn, which is the map above this depth once deeper ones unwind
        x = order[depth]
        pool = adj[image[anchor[x]]] if anchor[x] >= 0 else range(v)
        return (
            t
            for t in pool
            if not used[t]
            and len(adj[t]) == len(adj[x])
            and all((y in adj[x]) == (image[y] in adj[t]) for y in order[:depth])
        )

    auts: list[tuple[int, ...]] = []
    stack = [choices(0)]
    while stack:
        x = order[len(stack) - 1]
        if image[x] >= 0:
            used[image[x]] = False
            image[x] = -1
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        image[x] = t
        used[t] = True
        if len(stack) == v:
            auts.append(tuple(image))
        else:
            stack.append(choices(len(stack)))
    return sorted(auts)


_GROUP_ROW_CAP = 200_000
_GROUP_ENTRY_CAP = 8_000_000


@dataclass(frozen=True)
class _SlotGroup:
    """A tabulated group of slot permutations, one column per element g:
    image[x, g] = g(x) and preimage[y, g] = g^-1(y).  orbit_min[x] is the
    least slot in the orbit of x."""

    image: np.ndarray
    preimage: np.ndarray
    orbit_min: list[int]


def _symmetry_group(sys: _SlotSystem) -> Optional[_SlotGroup]:
    """The slot permutations of the symmetry group, or None when only the
    identity fits the tabulation caps.  The rows are written one pattern
    automorphism at a time straight into an int16 table (int32 past 32767
    slots), then deduplicated: the action is not faithful when n = 1 or
    the pattern has an isolated vertex."""
    pattern, n, L = sys.pattern, sys.n, sys.L
    v = pattern.vertex_count
    auts = _pattern_automorphisms(pattern)

    def fits(rows: int) -> bool:
        return rows <= _GROUP_ROW_CAP and rows * L <= _GROUP_ENTRY_CAP

    full_pool = None
    if fits(math.factorial(n) ** v * len(auts)):
        full_pool = [tuple(p) for p in itertools.permutations(range(n))]
    elif fits(n ** v * len(auts)):
        full_pool = [tuple((a + t) % n for a in range(n)) for t in range(n)]
    elif fits(len(auts)):
        full_pool = [tuple(range(n))]
    else:
        return None
    if len(full_pool) == 1 and len(auts) == 1:
        return None

    dtype = np.int16 if L <= np.iinfo(np.int16).max else np.int32
    pool = np.array(full_pool, dtype=np.intp)
    combos = np.array(list(itertools.product(range(len(pool)), repeat=v)), dtype=np.intp)
    vtot = v * n
    slot_id = np.full((vtot, vtot), -1, dtype=dtype)
    for k, (p, a, q, b) in enumerate(sys.ends0):
        slot_id[p * n + a, q * n + b] = k
        slot_id[q * n + b, p * n + a] = k

    R = len(combos)
    table = np.empty((len(auts) * R, L), dtype=dtype)
    F = np.empty((R, vtot), dtype=np.intp)
    for j, g in enumerate(auts):
        # F[:, vertex] is where each group element of this coset sends it
        for i in range(v):
            F[:, i * n : (i + 1) * n] = g[i] * n + pool[combos[:, g[i]]]
        block = table[j * R : (j + 1) * R]
        for k, (p, a, q, b) in enumerate(sys.ends0):
            block[:, k] = slot_id[F[:, p * n + a], F[:, q * n + b]]
    rows = np.unique(table.view(np.dtype((np.void, table.itemsize * L))))
    del table  # before the transposed copies, so they do not raise the peak
    if len(rows) == 1:
        return None
    image = np.ascontiguousarray(rows.view(dtype).reshape(len(rows), L).T)
    del rows
    assert (image >= 0).all()
    preimage = np.empty_like(image)
    cols = np.arange(image.shape[1])
    for x in range(L):
        preimage[image[x], cols] = x
    return _SlotGroup(image, preimage, image.min(axis=1).tolist())


def _canonical_extensions(
    group: Optional[_SlotGroup], parent: tuple[int, ...], exts: list[int]
) -> list[int]:
    """The extension slots s for which parent + (s,) is still the lex leader
    of its orbit.  parent must be a lex leader, sorted, and every ext must
    exceed its maximum.

    This applies the rule of the module docstring to all of exts at once.
    A slot whose orbit minimum lies below parent[0] (below s itself at the
    root) is rejected first.  One gather of the preimage of parent[0] under
    every group element then picks the rows that can matter: U, where a
    parent slot maps onto parent[0], and W, where an ext does.  On these
    rows s is rejected when g(s) < t_g, and where g(s) == t_g the sorted
    image of the child is compared with the child.  A W row has
    t_g = parent[0] = g(s), so there that comparison is sorted(g(parent))
    against parent[1:] + (s,), and most W rows are settled by its first
    slot alone."""
    if group is None or not exts:
        return exts
    omin = group.orbit_min
    if not parent:
        return [s for s in exts if omin[s] >= s]
    p0 = parent[0]
    exts = [s for s in exts if omin[s] >= p0]
    if not exts:
        return exts
    image, preimage = group.image, group.preimage
    L, m = len(omin), len(exts)
    P = np.asarray(parent, dtype=np.intp)
    S = np.asarray(exts, dtype=np.intp)
    code = np.zeros(L, dtype=np.intp)  # -1 in parent, 1 + position in exts
    code[P] = -1
    code[S] = np.arange(1, m + 1)
    who = code.take(preimage[p0])
    U = np.flatnonzero(who < 0)
    W = np.flatnonzero(who > 0)

    # held[i, j]: parent[i] lies in the image of the parent under row U[j]
    held = code.take(preimage.take(P, axis=0).take(U, axis=1)) < 0
    first = held.argmin(axis=0)
    thr = np.where(held[first, np.arange(len(U))], L, P.take(first))
    gs = image.take(S, axis=0).take(U, axis=1)
    rejected = (gs < np.minimum(thr, S[:, None])).any(axis=1)
    ti, tj = np.nonzero(gs == thr)

    # a W row pairs with the one ext it maps onto parent[0]
    img_parent = image.take(P, axis=0)
    e = who.take(W) - 1
    low = img_parent.take(W, axis=1).min(axis=0)
    second = P[1] if len(P) > 1 else S.take(e)
    rejected[e[low < second]] = True
    tie = low == second

    ties = np.concatenate((ti, e[tie]))
    if len(ties):
        cols = np.concatenate((U.take(tj), W[tie]))
        s_tie = S.take(ties)
        img = np.vstack(
            (
                img_parent.take(cols, axis=1),
                image.ravel().take(s_tie * image.shape[1] + cols),
            )
        )
        img.sort(axis=0)
        child = np.empty_like(img)
        child[:-1] = P[:, None]
        child[-1] = s_tie
        first = (img != child).argmax(axis=0)  # 0 where the two are equal
        at = np.arange(len(ties))
        rejected[ties[img[first, at] < child[first, at]]] = True
    return [s for s, r in zip(exts, rejected.tolist()) if not r]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    value is None when the budget ran out (UNKNOWN); witness then holds the
    best verified graph found (the greedy upper bound) and upper_bound its
    edge count.  Otherwise witness is an optimal graph with value edges,
    the lexicographically least one over canonical slot sets.
    nodes_explored counts the canonical sets admitted to the search tree.
    """

    value: Optional[int]
    witness: Optional[PartiteGraph]
    nodes_explored: int
    elapsed: float
    exhausted_budget: bool
    upper_bound: Optional[int] = None


def _exact_minimum(
    pattern: PatternGraph,
    n: int,
    require_free: bool,
    budget: Optional[float],
    use_symmetry: bool,
    seed: int,
) -> SolveResult:
    if pattern.edge_count() < 1:
        raise ValueError("exact search needs a pattern with at least one edge")
    if n < 1:
        raise ValueError("exact search needs n >= 1")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    host = BlowupHost(pattern, n)
    empty = PartiteGraph(host)
    ub_graph = _greedy_fill(empty, seed)
    ub = ub_graph.edge_count()
    lb = saturation_lower_bound(pattern, n)
    nodes = 1  # the empty root
    if ub == 0:
        return SolveResult(0, ub_graph, nodes, time.monotonic() - start, False, 0)

    sys_ = _SlotSystem(host)
    group = _symmetry_group(sys_) if use_symmetry else None

    frontier: list[tuple[int, ...]] = [()]
    for m in range(1, ub + 1):
        next_frontier: list[tuple[int, ...]] = []
        testing = m >= max(lb, 1)
        for parent in frontier:
            if deadline is not None and time.monotonic() > deadline:
                return SolveResult(
                    None, ub_graph, nodes, time.monotonic() - start, True, ub
                )
            masks = sys_.masks_for(parent)
            degs = sys_.degrees_for(parent)
            top = parent[-1] if parent else -1
            exts: list[int] = []
            for s in range(top + 1, sys_.L):
                p, a, q, b = sys_.ends0[s]
                if not require_free or not _closes_copy(pattern, n, masks, p, a, q, b):
                    exts.append(s)
                # slots at or below s are now settled for every later
                # extension; a needy vertex left isolated there kills them all
                if any(degs[vid] == 0 for vid in sys_.needy_final[s]):
                    break
            for s in _canonical_extensions(group, parent, exts):
                nodes += 1
                child = parent + (s,)
                if testing:
                    p, a, q, b = sys_.ends0[s]
                    masks[p][a][q] |= 1 << b
                    masks[q][b][p] |= 1 << a
                    good = first_uncovered_slot(pattern, n, masks, sys_.ends0) is None
                    masks[p][a][q] &= ~(1 << b)
                    masks[q][b][p] &= ~(1 << a)
                    if good:
                        return SolveResult(
                            m,
                            sys_.graph_for(child),
                            nodes,
                            time.monotonic() - start,
                            False,
                            m,
                        )
                if m < ub:
                    next_frontier.append(child)
        frontier = next_frontier
        if not frontier and m < ub:
            # every continuation was pruned as unable to reach a valid
            # graph, so the greedy witness is already optimal
            return SolveResult(ub, ub_graph, nodes, time.monotonic() - start, False, ub)
    # the canonical form of the greedy witness lives at level ub, so the
    # scan above cannot actually fall through; keep a safe answer anyway
    return SolveResult(ub, ub_graph, nodes, time.monotonic() - start, False, ub)


def min_sat_exact(
    pattern: PatternGraph,
    n: int,
    budget: Optional[float] = None,
    *,
    use_symmetry: bool = True,
    seed: int = 0,
) -> SolveResult:
    """Least edge count of a partite-saturated subgraph of H[n], found by
    deepening on the edge count with a complete per-level search."""
    return _exact_minimum(pattern, n, True, budget, use_symmetry, seed)


def min_exsat_exact(
    pattern: PatternGraph,
    n: int,
    budget: Optional[float] = None,
    *,
    use_symmetry: bool = True,
    seed: int = 0,
) -> SolveResult:
    """Least edge count of an extra-saturated subgraph of H[n]."""
    return _exact_minimum(pattern, n, False, budget, use_symmetry, seed)


# --------------------------------------------------------------------------
# smallest multipartite witnesses used by the clique saturation bounds
# --------------------------------------------------------------------------


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
    budget ran out before a witness appeared."""

    r: int
    s: int
    value: Optional[int]
    witness: Optional[MultipartiteGraph]
    nodes_explored: int
    elapsed: float
    exhausted_budget: bool


def _partitions(total: int, parts: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - (parts - 1) * minimum + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _child_thresholds(
    perms: list[tuple[int, ...]],
    thresholds: list[int],
    child: tuple[int, ...],
    fixed: int,
) -> Optional[list[int]]:
    """The lex-leader rule of the module docstring, one group element at a
    time.  thresholds holds t_g of the lex-leader parent child[:-1] under
    each g in perms, with fixed (above every slot) where g fixes the parent
    as a set.  Returns the thresholds of child, or None when some g maps
    child below itself.  Only where g(s) == t_g < s is the image sorted."""
    s = child[-1]
    out = []
    for g, t in zip(perms, thresholds):
        gs = g[s]
        if t > s:
            if gs < s:
                return None
            out.append(fixed if gs == s else s)
        elif gs > t:
            out.append(t)
        elif gs < t:
            return None
        else:
            for c, d in zip(child, sorted(g[k] for k in child)):
                if c != d:
                    if d < c:
                        return None
                    out.append(c)
                    break
            else:
                out.append(fixed)
    return out


class _BudgetExceeded(Exception):
    pass


def _m_search_partition(
    sizes: tuple[int, ...], s: int, deadline: Optional[float], counter: list[int]
) -> Optional[frozenset]:
    r = len(sizes)
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    total = offsets[-1]
    part_of = [p for p, size in enumerate(sizes) for _ in range(size)]
    slots = [
        (x, y)
        for x in range(total)
        for y in range(x + 1, total)
        if part_of[x] != part_of[y]
    ]
    L = len(slots)

    # within-part index permutations, as vertex maps
    pools = [list(itertools.permutations(range(size))) for size in sizes]
    group = []
    for combo in itertools.product(*pools):
        vmap = list(range(total))
        for p in range(r):
            for i, image in enumerate(combo[p]):
                vmap[offsets[p] + i] = offsets[p] + image
        group.append(tuple(vmap))
    slot_index = {e: k for k, e in enumerate(slots)}
    slot_perms = []
    for vmap in group:
        if all(vmap[i] == i for i in range(total)):
            continue
        slot_perms.append(
            tuple(
                slot_index[
                    (min(vmap[x], vmap[y]), max(vmap[x], vmap[y]))
                ]
                for x, y in slots
            )
        )

    adj = [0] * total
    part_masks = [
        sum(1 << (offsets[p] + i) for i in range(sizes[p])) for p in range(r)
    ]

    def creates_clique(x: int, y: int, need: int, pool: int) -> bool:
        # does pool contain a clique of size `need` extending {x, y}?
        if need == 0:
            return True
        while pool:
            bit = pool & -pool
            pool ^= bit
            w = bit.bit_length() - 1
            if creates_clique(x, y, need - 1, pool & adj[w]):
                return True
        return False

    part_choices = list(itertools.combinations(range(r), s - 1))

    def covered() -> bool:
        for choice in part_choices:
            ok = False

            def grow(idx: int, pool_bits: int) -> bool:
                if idx == len(choice):
                    return True
                cand = pool_bits & part_masks[choice[idx]]
                while cand:
                    bit = cand & -cand
                    cand ^= bit
                    w = bit.bit_length() - 1
                    if grow(idx + 1, pool_bits & adj[w]):
                        return True
                return False

            ok = grow(0, (1 << total) - 1)
            if not ok:
                return False
        return True

    def dfs(
        S: tuple[int, ...], last: int, thresholds: list[int]
    ) -> Optional[tuple[int, ...]]:
        counter[0] += 1
        if deadline is not None and counter[0] % 256 == 0 and time.monotonic() > deadline:
            raise _BudgetExceeded
        if covered():
            return S
        for k in range(last + 1, L):
            x, y = slots[k]
            if creates_clique(x, y, s - 2, adj[x] & adj[y]):
                continue
            child = S + (k,)
            child_thresholds = _child_thresholds(slot_perms, thresholds, child, L)
            if child_thresholds is None:
                continue
            adj[x] |= 1 << y
            adj[y] |= 1 << x
            got = dfs(child, k, child_thresholds)
            adj[x] &= ~(1 << y)
            adj[y] &= ~(1 << x)
            if got is not None:
                return got
        return None

    witness = dfs((), -1, [L] * len(slot_perms))
    if witness is None:
        return None
    edges = []
    for k in witness:
        x, y = slots[k]
        edges.append(
            (
                (part_of[x] + 1, x - offsets[part_of[x]] + 1),
                (part_of[y] + 1, y - offsets[part_of[y]] + 1),
            )
        )
    return frozenset(edges)


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
    is kept only when it is the lex leader of its orbit, by the threshold
    rule of the module docstring: every DFS node hands each group element's
    threshold down to its children, so a child costs one comparison per
    element, and its image is sorted only where g(s) meets the threshold.
    The root's thresholds are all "fixed", which makes the first level the
    orbit-minimum test g(s) >= s."""
    if s < 3:
        raise ValueError("m_value needs s >= 3")
    if r < s:
        raise ValueError("m_value needs r >= s")
    if max_vertices is None:
        max_vertices = 2 * r
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    counter = [0]
    try:
        for total in range(r, max_vertices + 1):
            for sizes in sorted(_partitions(total, r)):
                edges = _m_search_partition(sizes, s, deadline, counter)
                if edges is not None:
                    witness = MultipartiteGraph(sizes, edges)
                    return MResult(
                        r, s, total, witness, counter[0], time.monotonic() - start, False
                    )
    except _BudgetExceeded:
        return MResult(r, s, None, None, counter[0], time.monotonic() - start, True)
    return MResult(r, s, None, None, counter[0], time.monotonic() - start, False)


# keyed on the vertex cap as well: a value found under one cap says nothing
# about a search held to a smaller one
_M_CACHE: dict[tuple[int, int, Optional[int]], MResult] = {}


def _cached_m_value(
    r: int, s: int, max_vertices: Optional[int], budget: Optional[float]
) -> MResult:
    key = (r, s, max_vertices)
    hit = _M_CACHE.get(key)
    if hit is not None:
        return hit
    got = m_value(r, s, max_vertices, budget)
    if got.value is not None:
        _M_CACHE[key] = got
    return got


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
    the m-values computed (and cached) by m_value."""
    if r < 4:
        raise ValueError("kr_sat_bounds needs r >= 4")
    if n < 1:
        raise ValueError("kr_sat_bounds needs n >= 1")
    m_lower = _cached_m_value(r - 1, r - 1, max_vertices, budget)
    m_upper = _cached_m_value(r, r - 1, max_vertices, budget)
    lower = None if m_lower.value is None else (m_lower.value * r * n + 1) // 2
    upper = None if m_upper.value is None else m_upper.value * (r - 1) * n
    return KrSatBounds(r, n, lower, upper, m_lower, m_upper)
