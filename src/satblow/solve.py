"""Greedy samplers and exact minimum searches.

The exact searches (min_sat_exact, min_exsat_exact) walk one tree depth
first: orderly generation with a lex-leader test, in the sense of Kaski and
Ostergard, Classification Algorithms for Codes and Designs (2006).  The
symmetry group combines index permutations within each part with
automorphisms of the pattern; a slot set is kept only when it is the
lexicographically least member of its orbit (its lex leader), slots being
numbered in lexicographic endpoint order and a set being compared as its
sorted tuple.  A set's children append one slot above its last one, and
removing the last slot of a lex leader leaves a lex leader, so every orbit
has exactly one node in the tree, reached from the empty root.  Children
are visited in ascending slot order, so the walk's preorder is the
lexicographic order of the tuples, a proper prefix coming first.

The walk keeps an incumbent, the best valid set so far: first the greedy
graph of ub edges.  It looks for valid sets of at most `bound` slots, with
bound = ub at the start; on meeting a valid set of f slots it takes that set
as the incumbent, lowers bound to f - 1, and leaves the parent at once, since
the parent's later children are as large and lexicographically greater.  It
stops when the walk is done or bound falls below the proven lower bound.
The first optimum it meets is the witness, and it is the lexicographically
least canonical optimum W, whatever the greedy graph was.  Proof: bound
never falls below the optimum f* before W is met, since a valid set of f*
slots met earlier would be lexicographically smaller than W.  So until then
every cut (those below are proved for any bound >= f*) keeps every prefix of
W, a parent left early holds no prefix of W (its later children and their
subtrees have at least as many slots as the valid child found, which has
more than f*), and W is met; from then on bound = f* - 1 and no set of f*
slots is taken.  Lowering bound to f - 1 is safe for the value: a set of f
slots or more cannot improve on the incumbent.

The proven lower bound the walk starts from, its floor, is
saturation_lower_bound, a degree bound.  Let D be saturated or
extra-saturated, and v a vertex of part p of pattern degree d.  If D lacks
a slot vu, u in part q, the copy through vu in D + vu puts a neighbour of v
in every pattern neighbour of p but q.  So if v has no neighbour in some
neighbour part q, every slot from v to q is missing (n >= 1 of them), and
v is joined to all n vertices of every other neighbour part r (a missing
slot to r would ask for a neighbour in q); otherwise v has a neighbour in
each of the d parts.  Hence deg_D(v) >= demand_p = min(d, (d - 1) n): for
d = 1 that is 0 (an added slot carries the copy's one edge at v), and a
part with d = 0 meets no slot and has demand 0 (the formula would give
-n).  Give the parts weights y >= 0 with y_p + y_q <= 1 on each pattern
edge.  Every edge of D joins two such parts, so |D| >= sum over edges uv
of D of (y_p(u) + y_p(v)) = sum over vertices v of y_p(v) deg_D(v) >= n
sum_p y_p demand_p, and the floor is n times the maximum of that weighted
fractional vertex packing, rounded up.  The maximum is half the one on the
bipartite double cover B of the pattern (parts p' and p'', an edge p'q''
and q'p'' per pattern edge): y gives (y, y) on B, of twice the weight,
and (a, b) on B gives (a + b) / 2, of half the weight, with (a_p + b_p +
a_q + b_q) / 2 <= 1 since a_p + b_q and a_q + b_p are at most 1.  B is
bipartite, so its packing polytope is integral: its maximum is 2 sum_p
demand_p less a least-weight vertex cover of B, and that is a minimum cut,
so the maximum flow, of source -> p' (capacity demand_p) -> q'' (no
capacity limit) -> sink (capacity demand_q).  So half-integral y suffice
(Nemhauser and Trotter, 1975), and the floor is ceil(n (2 sum_p demand_p -
flow) / 2), found in polynomial time.  The proof of the witness above
holds for any proven floor; the floor only lets the walk stop as soon as
it meets a valid set of that size.

The Delta rule.  For a group element g and a slot set C, let d be the least
slot of the symmetric difference g(C) Delta C.  Then sorted(g(C)) < C
exactly when d lies in g(C).  Proof: the two sets share every slot below d,
so their sorted tuples agree up to the position where d would sit; there
the set holding d has d and the other a larger slot (both have |C| slots,
so the one without d still has a slot at that position).  So C is a lex
leader iff no g has the least slot of g(C) Delta C inside g(C), and a scan
of the slots y upward decides it: while g(C) and C agree below y, y in C
but not in g(C) clears g, and y in g(C) but not in C rejects C.

The threshold rule is the Delta rule for a child C = P + (s,) of a lex
leader P, s > max P, one group element at a time.  Let t_g be the least
slot of g(P) Delta P, which lies in P since P is a lex leader (so it is the
first slot of P missing from g(P)), or t_g = s when g fixes P as a set.
g(P) and P agree below t_g, g(C) = g(P) + {g(s)} and C = P + {s}.  If
g(s) < t_g, then g(s) is not in P (every slot of P below t_g is already
the image of a slot of P) and is below s, so it is the least slot of the
difference and lies in g(C): g rejects C.  If g(s) > t_g, t_g stays the
least slot of the difference, and lies in C; g(s) == t_g = s means g fixes
C.  Only g(s) == t_g < s (a tie) goes on: both sets hold t_g, and above it
the scan compares g(P) with P + {s}, g(P) having one slot more there than
P.  If they first differ at a slot of g(P) below max P, g rejects C
whatever s is; at a slot u of P, g keeps C and u becomes its threshold; and
if g(P) is P - {t_g} + {e} with e > max P, g rejects C when e < s and fixes
it when e == s.

Both searches with a group, the exact one and m_value's, apply the rule
to every group element at once: the group is held as one bit per element,
per slot and image slot (a _SlotGroup), and each node of a walk with a slot
to test derives its _Leader once, from its parent's: the elements of each
threshold and the outcome of each tie, so testing an extension
(_Leader.admits) is one walk over the images of s below s.  The exact
search tests one child at a time, only when the walk reaches it, and
derives a node's _Leader at its first tested child, so a node whose
children all fall to a cut made before the test derives none.  m_value
derives the _Leader of each node with free slots and tests each free slot
as its loop reaches it.

Pruning rests on one fact.  A child C = P + (s,) only ever gains slots
above s, so every slot y < s not in C is a non-edge of every completion D
of C (D holds C, and D - C lies above s): y is *settled*.  For D to be
saturated (or extra-saturated), y must close a copy in D + y.  A slot
covered by C (closing a copy in C + y) stays covered in every D, since
copies only grow as edges are added.  Four cuts drop a child without
losing any optimum:

* not free (saturation only): a subgraph of a partite-free graph is
  partite-free, so a slot closing a copy with P never joins P.
* uncoverable: let F be the slots a completion of C may still add: for
  saturation, the slots above s that close no copy with C (a slot that
  closes one can never join, by the first cut, as D is partite-free); for
  extra-saturation, every slot above s.  Every completion D lies inside
  C + F, so D + y lies inside C + F + y.  If a settled y closes no copy in
  C + F + y, it closes none in any D + y, and no completion is valid.
* uncoverable siblings: let G be P plus, for saturation, the open slots of
  P from s on (those that close no copy with P), and for extra-saturation
  every slot from s on.  A later sibling C' = P + (s',), s' > s, only ever
  adds slots of G: s' itself, and slots above s' that, for saturation,
  close no copy with C' and so none with P.  So every completion D' of C'
  lies inside G.  A slot y < s that C lacks is not in C' either, so it is
  settled for C'.  If such a y closes no copy in G + y, it closes none in
  any D' + y, and the child and every later sibling are dropped together.
  Only the settled slots C leaves uncovered can fail, since G holds C.
  For extra-saturation G = C + F, the graph of C's own uncoverable test,
  so every uncoverable child drops its later siblings; for saturation G
  is tested only when C's own test fires.  Each sibling dropped so would
  fall to its own tests anyway (y stays settled and uncovered for it, and
  its C' + F' lies inside G), so the cut changes no node of the walk.
* over bound: take a settled y = (x, w) left uncovered by C, x in part p
  and w in part q.  A copy through y in D + y puts a vertex in every
  pattern neighbour r != q of p, adjacent to x in D, so if x has no
  neighbour in part r yet, D - C holds an edge of bundle {p, r} at x; call
  the set of such x need(p -> r), and likewise for w.  An edge of bundle
  {p, r} meets one vertex of part p and one of part r, and bundles share no
  slot, so |D - C| >= sum over pattern edges {p, r} of
  max(|need(p -> r)|, |need(r -> p)|); and |D - C| >= 1 when C itself is
  not valid.  The child is dropped when m plus that bound exceeds the
  walk's bound.  The test is strict: a prefix of any valid set of at most
  bound slots survives.

A vertex whose part has pattern degree at least two is isolated in no
valid graph (one added edge cannot carry two pattern edges at it), and
the uncoverable cut already drops every child that leaves such a vertex
isolated for good.  Let v, of part p with pattern degree at least two, be
isolated in P with its last slot below s, and C = P + (s,).  Every slot y
at v is settled for C.  No such y closes a copy in C + F + y: v has no
edge in C + F, as F lies above s, and a copy through y needs two edges at
v.  For the same reason no y closes a copy with P or with C, so each is in
P's settled slots left uncovered or in its open slots, and so among the
settled slots C leaves uncovered (see below).  So the uncoverable cut drops
C, and its sibling-wide form every later sibling, since G holds no slot at
v either.

Each node of the walk holds the children it has not yet tried as one slot
set, and tries them from its lowest slot up.  Expanding the node drops the
not-free ones in bulk; each other child s then meets, in turn: the
over-bound bound of the node at s (_SlotSystem.settle, which only grows
with s, so it drops s and every later sibling at once), the lex-leader
test, adding s, the validity test, and the child's own over-bound and
uncoverable tests (_SlotSystem.cut), the second with its sibling-wide
form.  A candidate dropped in bulk is charged to the cut that dropped it.

The last three cuts are computed incrementally.  Each node of the walk
carries its settled slots left uncovered and its open slots (those above
its last slot that close no copy with it).  A child's settled, uncovered
slots are its parent's plus the parent's open slots below s, less those
the new slot s covers, and its open slots are the parent's above s, less
those it covers.  A slot newly covered by C has a copy using both it and
s, so only slots whose ends agree with s's (no part given two different
indices) are searched again.

The bundle-need bound is kept the same way.  Its sets lack[d] are unions
over vertices, and a vertex's bits depend only on its own row of the graph
and on the settled uncovered slots at it.  Each node keeps the sets of its
graph and of the slots settled for its next child: moving on to a later
child settles the open slots passed over, and only their ends are
recomputed.  A child's sets are its parent's with the ends recomputed of
s, whose rows gain an edge, and of the open slots settled since the
parent's sets were last moved that the child leaves uncovered; they start
the child's own.  A slot y = (u, w) that s covers changes no bit: the copy
through y in C + y gives u an edge of C toward every pattern neighbour
part of u's but w's, and one of P too unless that edge is s (u is then an
end of s), so no check of u that y can answer ever asks for an edge,
before s or after; likewise for w.  The graphs the uncoverable tests ask about, C + F and G, are held
in a second set of masks that is moved from one test's graph to the
next by toggling only the slots in which the two differ: for
extra-saturation, from P + {s, s + 1, ...} to the next sibling's it drops
the slots passed over, and a child's first child asks about the very
graph its parent was tested on.

m_value's depth-first search has one cut of the same kind.  It wants a
K_s-free set that is covered (a transversal K_{s-1} in every s - 1 parts),
and a node S only ever gains slots above max S.  A slot that closes a K_s
with S closes one with every superset of S, so every set of the subtree of
S lies inside S + F, where F is the free slots of S: those above max S that
close no K_s with S.  Being covered only grows with edges, so when S + F
is not covered, no set of the subtree is, and the subtree is dropped
(uncoverable).  It holds no covered set, so the first covered set in
depth-first preorder, the witness, is the same with the cut or without.

When the budget runs out, the walk answers UNKNOWN with the incumbent and
a proven lower bound.  If the optimum is below the incumbent's size, the
walk has not met the canonical form D of an optimal set (it would be the
incumbent), and no cut or early leave removed it (the argument above, with
bound >= |D| throughout).  So D lies in the subtree of an untried child
P + (s,) of a set P on the walk's stack, s at least the next child t of P
to try that is a lex leader (each frame is first moved past the children
the lex-leader test rejects, since D and its prefixes are lex leaders).
Every slot below t that P lacks is settled for D, so |D| is at least
|P| + max(1, the bundle-need bound of those slots left uncovered by P).
The least of these over the stack, capped at the incumbent's size, is the
lower bound.

When the full group is too large to hold, a subgroup (cyclic index
shifts, or pattern automorphisms alone) is used instead; the search then
revisits some orbits but stays complete.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    BlowupHost,
    PartiteGraph,
    PartiteVertex,
    PatternGraph,
    _build_masks,
    _closes_copy,
    first_uncovered_slot,
    has_partite_copy,
)
from .verify import is_extra_saturated, is_partite_saturated

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


def _check_budget(budget: Optional[float]) -> None:
    # a NaN deadline compares false with every clock reading, so the search
    # would never stop
    if budget is not None and math.isnan(budget):
        raise ValueError("budget must be a number of seconds, got nan")


# --------------------------------------------------------------------------
# lower bound seeding the exact search
# --------------------------------------------------------------------------


def saturation_lower_bound(pattern: PatternGraph, n: int) -> int:
    """A lower bound on the edge count of every saturated or extra-saturated
    subgraph of pattern[n]: ceil(n * max sum_p y_p demand_p) over weights
    y >= 0 with y_p + y_q <= 1 on each pattern edge, where demand_p, the
    least degree of a vertex of part p, is min(d, (d - 1) n) for a part of
    pattern degree d >= 1 and 0 for d = 0 (see the module docstring).  The
    maximum is half of 2 sum_p demand_p less the maximum flow of the
    bipartite double cover, so the bound takes polynomial time."""
    demand = [max(0, min(len(a), (len(a) - 1) * n)) for a in pattern._adj0]
    total = sum(demand)
    # source 0, sink 1; part p is node 2 + 2p on the left of the cover and
    # 3 + 2p on the right; no flow passes total, so it bounds no middle arc
    arcs = [(0, 2 + 2 * p, w) for p, w in enumerate(demand)]
    arcs += [(3 + 2 * p, 1, w) for p, w in enumerate(demand)]
    arcs += [(2 + 2 * p, 3 + 2 * q, total) for p, a in enumerate(pattern._adj0) for q in a]
    twice = 2 * total - _max_flow(2 + 2 * len(demand), arcs, 0, 1)
    return (n * twice + 1) // 2


def _max_flow(size: int, arcs: list[tuple[int, int, int]], source: int, sink: int) -> int:
    """The maximum flow from source to sink over arcs (tail, head, capacity)
    on nodes 0..size - 1, by Dinic's blocking flows.  It runs on loops
    alone, so a long augmenting path cannot overflow the stack."""
    out: list[list[int]] = [[] for _ in range(size)]
    head: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:  # arc e and its reverse e ^ 1
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)
    flow = 0
    while True:
        level = [-1] * size
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in out[u]:
                if cap[e] and level[head[e]] < 0:
                    level[head[e]] = level[u] + 1
                    queue.append(head[e])
        if level[sink] < 0:
            return flow
        # augment along level-raising arcs until none reaches the sink; next_[u]
        # is the first arc of u not yet found dead in this phase
        next_ = [0] * size
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                flow += push
                path.clear()
                u = source
            arcs_u = out[u]
            while next_[u] < len(arcs_u):
                e = arcs_u[next_[u]]
                if cap[e] and level[head[e]] == level[u] + 1:
                    path.append(e)
                    u = head[e]
                    break
                next_[u] += 1
            else:
                if u == source:
                    break
                u = head[path.pop() ^ 1]
                next_[u] += 1


# --------------------------------------------------------------------------
# slot bookkeeping for the orderly search
# --------------------------------------------------------------------------


class _Frame:
    """A node P of the exact walk.  todo: the children not yet tried, as a
    slot set; uncovered: P's settled slots left uncovered; open_: its open
    slots (None with prune off); lack: the bundle-need sets (see
    _SlotSystem.need) of the graph P and of uncovered plus the open slots
    below upto (None with prune off), and need their bound (None until it
    is asked for, or when lack has changed since); leader: P's _Leader,
    None until a child is tested."""

    __slots__ = ("todo", "uncovered", "open_", "lack", "upto", "need", "leader")

    def __init__(
        self,
        uncovered: int,
        open_: Optional[int],
        lack: Optional[list],
        upto: int,
        need: Optional[int] = None,
    ):
        self.todo = 0
        self.uncovered, self.open_, self.lack, self.upto = uncovered, open_, lack, upto
        self.need = need
        self.leader: Optional[_Leader] = None


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
        # slot sets as ints, one bit per slot: elsewhere[p * n + a] holds the
        # slots meeting part p at an index other than a
        at_vertex = [0] * (v * n)
        for k, (p, a, q, b) in enumerate(self.ends0):
            at_vertex[p * n + a] |= 1 << k
            at_vertex[q * n + b] |= 1 << k
        self.elsewhere = []
        for p in range(v):
            in_part = 0
            for a in range(n):
                in_part |= at_vertex[p * n + a]
            self.elsewhere += [in_part ^ at_vertex[p * n + a] for a in range(n)]
        self.bundles = [(p - 1, r - 1) for p, r in pattern.edges]
        self.most_need = len(self.bundles) * n  # need() never exceeds it
        # need_at[p * n + a]: (p, a, its bit in a part, checks), a check being
        # (r, direction, slots at the vertex outside bundle {p, r}) for each
        # pattern neighbour r of p; direction 2j is bundle j = (p, r) of
        # self.bundles read from p, 2j + 1 from r.  ends[k]: the vertices
        # p * n + a of slot k's two ends, as bits
        direction, toward = {}, {}
        for j, (p, r) in enumerate(self.bundles):
            direction[p, r], direction[r, p] = 2 * j, 2 * j + 1
        for k, (p, a, q, b) in enumerate(self.ends0):
            toward[p * n + a, q] = toward.get((p * n + a, q), 0) | 1 << k
            toward[q * n + b, p] = toward.get((q * n + b, p), 0) | 1 << k
        self.need_at = [
            (p, a, 1 << a, tuple(
                (r, direction[p, r], at_vertex[p * n + a] ^ toward[p * n + a, r])
                for r in pattern._adj0[p]
            ))
            for p in range(v)
            for a in range(n)
        ]
        self.ends = [1 << p * n + a | 1 << q * n + b for p, a, q, b in self.ends0]

    def flip(self, masks: list, slots: int) -> None:
        """Toggle every slot of the set `slots` in masks."""
        while slots:
            bit = slots & -slots
            slots ^= bit
            p, a, q, b = self.ends0[bit.bit_length() - 1]
            masks[p][a][q] ^= 1 << b
            masks[q][b][p] ^= 1 << a

    def clash(self, k: int) -> int:
        """The slots that share no copy with slot k: they give one of its
        parts another index."""
        p, a, q, b = self.ends0[k]
        return self.elsewhere[p * self.n + a] | self.elsewhere[q * self.n + b]

    def covered(self, masks: list, slots: int, stop_at_miss: bool = False) -> int:
        """The slots of the set `slots` that close a copy on masks; with
        stop_at_miss, only those below the first slot that closes none."""
        pattern, n = self.pattern, self.n
        hit, rest = 0, slots
        while rest:
            bit = rest & -rest
            rest ^= bit
            p, a, q, b = self.ends0[bit.bit_length() - 1]
            if _closes_copy(pattern, n, masks, p, a, q, b):
                hit |= bit
            elif stop_at_miss:
                break
        return hit

    def uncoverable(self, stand: list, left: int, graph: int) -> bool:
        """Does some slot of `left` close no copy in the slot set `graph`?
        stand is [masks, the slot set they hold], moved to graph by toggling
        only the slots in which the two differ."""
        self.flip(stand[0], stand[1] ^ graph)
        stand[1] = graph
        return self.covered(stand[0], left, stop_at_miss=True) != left

    def reach(self, masks: list, uncovered: int, open_: int, t: int, m: int) -> int:
        """The fewest slots of a valid set through a child P + (s,), s >= t,
        of the set P of m slots held in masks, whose settled slots left
        uncovered and open slots are `uncovered` and `open_`: every slot
        below t that P lacks is settled for it (see the module docstring).
        Found afresh; the walk's frames keep it as they go (settle)."""
        return m + max(1, self.need(masks, uncovered | open_ & (1 << t) - 1))

    def settled_uncovered(self, masks: list, frame: _Frame, s: int) -> int:
        """The settled slots that child = P + (s,), held in masks, leaves
        uncovered: P's (frame.uncovered), and its open slots below s, less
        those s lets close a copy."""
        left = frame.uncovered | frame.open_ & (1 << s) - 1
        return left ^ self.covered(masks, left & ~self.clash(s))

    def settle(self, masks: list, frame: _Frame, t: int) -> int:
        """The bundle-need bound of the slots settled for P's child t, P
        held in masks and t not below frame.upto: frame.lack is grown by
        the open slots settled since frame.upto, and moved up to t."""
        fresh = frame.open_ & (1 << t) - (1 << frame.upto)
        frame.upto = t
        if fresh:
            left = frame.uncovered | frame.open_ & (1 << t) - 1
            if self.relack(masks, left, frame.lack, self.ends_of(fresh)):
                frame.need = None
        if frame.need is None:
            frame.need = self.total(frame.lack)
        return frame.need

    def root(self, masks: list) -> _Frame:
        """The frame of the empty set, held in masks: every slot is open,
        none is settled, and so no vertex needs an edge."""
        every = (1 << self.L) - 1
        return _Frame(0, every ^ self.covered(masks, every), [0] * 2 * len(self.bundles), 0)

    def cut(
        self,
        masks: list,
        stand: list,
        require_free: bool,
        frame: _Frame,
        chosen: int,
        left: int,
        s: int,
        ub: int,
    ) -> tuple[Optional[str], Optional[_Frame], bool]:
        """Why child = P + (s,), held in masks, cannot lead to a valid graph
        of ub slots or fewer ("over_bound" or "uncoverable"), or None; the
        child's frame when it is not cut (its todo still 0); and whether
        every later sibling of the child is uncoverable too.  frame is P's,
        chosen P as a slot set, left what settled_uncovered gives for the
        child, and stand the graph of the uncoverable tests (see
        uncoverable)."""
        m = chosen.bit_count() + 1
        lack = need = None
        if m >= ub:
            return "over_bound", None, False
        if m + self.most_need > ub:
            lack = self.child_lack(masks, frame, left, s)
            need = self.total(lack)
            if m + max(1, need) > ub:
                return "over_bound", None, False
        later = self.child_open(masks, frame, s)
        if left:
            # the graph of the slots a completion may still add; for
            # extra-saturation it is also what a later sibling may add, so
            # the child's verdict is theirs
            child = chosen | 1 << s
            if require_free:
                if self.uncoverable(stand, left, child | later):
                    siblings = self.uncoverable(stand, left, chosen | frame.open_ >> s << s)
                    return "uncoverable", None, siblings
            elif self.uncoverable(stand, left, child | (1 << self.L) - (1 << s + 1)):
                return "uncoverable", None, True
        if lack is None:
            lack = self.child_lack(masks, frame, left, s)
        return None, _Frame(left, later, lack, s + 1, need), False

    def child_open(self, masks: list, frame: _Frame, s: int) -> int:
        """The open slots of child = P + (s,), held in masks: P's above s,
        less those s lets close a copy."""
        later = frame.open_ >> s + 1 << s + 1
        return later ^ self.covered(masks, later & ~self.clash(s))

    def child_lack(self, masks: list, frame: _Frame, left: int, s: int) -> list[int]:
        """The bundle-need sets of child = P + (s,), held in masks, whose
        settled slots left uncovered are `left`, s not below frame.upto:
        P's (frame.lack), with the ends recomputed of s and of the open
        slots settled since frame.upto that s leaves uncovered (see the
        module docstring)."""
        fresh = frame.open_ & (1 << s) - (1 << frame.upto) & left
        lack = frame.lack[:]
        self.relack(masks, left, lack, self.ends_of(fresh) | self.ends[s])
        return lack

    def ends_of(self, slots: int) -> int:
        """The ends of the slots of `slots`, as vertex bits (see ends)."""
        ends, out = self.ends, 0
        while slots:
            bit = slots & -slots
            slots ^= bit
            out |= ends[bit.bit_length() - 1]
        return out

    def relack(self, masks: list, uncovered: int, lack: list[int], vertices: int) -> bool:
        """Set, in the bundle-need sets lack, the bits of the vertices of
        `vertices` (see ends) as need gives them for the graph in masks and
        the settled non-edges `uncovered`; is any bit changed?"""
        need_at, changed = self.need_at, False
        while vertices:
            bit = vertices & -vertices
            vertices ^= bit
            p, a, at, checks = need_at[bit.bit_length() - 1]
            row = masks[p][a]
            for r, d, away in checks:
                if uncovered & away and not row[r]:
                    if not lack[d] & at:
                        lack[d] |= at
                        changed = True
                elif lack[d] & at:
                    lack[d] ^= at
                    changed = True
        return changed

    @staticmethod
    def total(lack: list[int]) -> int:
        """The bundle-need bound of the sets lack (see need)."""
        total = 0
        for d in range(0, len(lack), 2):
            a, b = lack[d].bit_count(), lack[d + 1].bit_count()
            total += a if a > b else b
        return total

    def need(self, masks: list, uncovered: int) -> int:
        """The bundle-need bound: edges any completion of the graph in masks
        must add so that each slot of `uncovered`, a settled non-edge, can
        close a copy (see the module docstring).  lack[d] holds, per bundle
        direction p -> r, the indices of the vertices of part p that need an
        edge toward part r: they have none yet, and an uncovered slot from
        another bundle."""
        lack = [0] * (2 * len(self.bundles))
        self.relack(masks, uncovered, lack, self.ends_of(uncovered))
        return self.total(lack)

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
# the maps hold one int of `rows` bits per slot and image slot
_GROUP_MAP_BYTES_CAP = 32 << 20


class _SlotGroup:
    """A group of slot permutations held as one bit per group element (row).
    maps[x] maps each slot y of the orbit of x, in ascending order, to the
    rows that send x to y; below[x] lists those (y, rows) pairs with y < x.
    everyone has a bit for every row.  pool names the index permutations
    each part draws on: "full" (S_n), "cyclic" (index shifts) or
    "automorphisms" (the identity alone)."""

    __slots__ = ("maps", "below", "everyone", "pool")

    def __init__(self, maps: list[dict[int, int]], rows: int, pool: str):
        """maps as above, its images in any order, over `rows` rows."""
        self.maps = [dict(sorted(images.items())) for images in maps]
        self.below = [tuple((y, b) for y, b in m.items() if y < x) for x, m in enumerate(self.maps)]
        self.everyone = (1 << rows) - 1
        self.pool = pool


def _index_rows(pools: list[list[tuple[int, ...]]]) -> list[list[dict[int, int]]]:
    """sends[t][a][a2]: the rows of the product of the pools (one index
    permutation per part t, drawn from pools[t]) whose permutation for part
    t sends index a to a2.  The bit of a row choosing
    (c_0, .., c_{v-1}) is the mixed-radix number c_0 ... c_{v-1}, so each
    entry is a periodic bit pattern, one repunit product, and nothing is
    ever tabulated per row."""
    total = math.prod(map(len, pools))
    sends = []
    run = total
    for pool in pools:
        run //= len(pool)  # consecutive rows sharing this part's choice
        period = run * len(pool)
        repunit = ((1 << total) - 1) // ((1 << period) - 1)
        per_index = []
        for a in range(len(pool[0])):
            base: dict[int, int] = {}
            for c, perm in enumerate(pool):
                base[perm[a]] = base.get(perm[a], 0) | ((1 << run) - 1) << (c * run)
            per_index.append({a2: bits * repunit for a2, bits in base.items()})
        sends.append(per_index)
    return sends


def _group_pool(sys: _SlotSystem, auts: list[tuple[int, ...]]) -> Optional[list]:
    """The index permutations of the largest pool whose group fits the caps
    (see _symmetry_group), or None when not even the identity does.  The
    maps take sum over slots x of |orbit(x)| ints of one bit per row, and
    that sum is counted before anything is built: a pool that moves every
    index sends a slot onto all n^2 slots of each bundle that an
    automorphism sends its bundle to."""
    n, L, v = sys.n, sys.L, sys.pattern.vertex_count

    def fits(rows: int, orbits) -> bool:
        return (
            rows <= _GROUP_ROW_CAP
            and rows * L <= _GROUP_ENTRY_CAP
            and rows * orbits() <= 8 * _GROUP_MAP_BYTES_CAP
        )

    def moved() -> int:
        images = sum(len({frozenset((g[p], g[r])) for g in auts}) for p, r in sys.bundles)
        return n**4 * images

    def still() -> int:
        return sum(
            len({frozenset(((g[p], a), (g[q], b))) for g in auts}) for p, a, q, b in sys.ends0
        )

    if fits(math.factorial(n) ** v * len(auts), moved):
        return list(itertools.permutations(range(n)))
    if fits(n**v * len(auts), moved):
        return [tuple((a + t) % n for a in range(n)) for t in range(n)]
    if fits(len(auts), still):
        return [tuple(range(n))]
    return None


def _symmetry_group(sys: _SlotSystem) -> Optional[_SlotGroup]:
    """The slot permutations of the symmetry group, or None when only the
    identity fits the caps or the group fixes every slot (n = 1, or an
    isolated vertex, can make it act trivially).

    A row is a pattern automorphism g with one index permutation per part
    from a pool: the full S_n, else cyclic shifts, else the identity alone,
    the first whose rows, table entries and map bytes fit the caps.
    Rows of automorphism j fill bits j * R .. j * R + R - 1, where
    R = |pool| ** v, numbered within the block as in _index_rows; the rows
    sending slot (p, a)-(q, b) to (g(p), a2)-(g(q), b2) are the AND of two
    of its patterns shifted into block j.  Only the images the pool can
    produce are visited."""
    pattern, n = sys.pattern, sys.n
    v = pattern.vertex_count
    auts = _pattern_automorphisms(pattern)
    pool = _group_pool(sys, auts)
    if pool is None or len(pool) == 1 and len(auts) == 1:
        return None

    R = len(pool) ** v
    sends = _index_rows([pool] * v)
    slot_of = {}
    for k, (p, a, q, b) in enumerate(sys.ends0):
        slot_of[p * n + a, q * n + b] = slot_of[q * n + b, p * n + a] = k
    maps = []
    for p, a, q, b in sys.ends0:
        to: dict[int, int] = {}
        for j, g in enumerate(auts):
            gp, gq, shift = g[p], g[q], j * R
            for a2, rows_a in sends[gp][a].items():
                for b2, rows_b in sends[gq][b].items():
                    y = slot_of[gp * n + a2, gq * n + b2]
                    to[y] = to.get(y, 0) | (rows_a & rows_b) << shift
        maps.append(to)
    if all(len(images) == 1 for images in maps):
        return None
    if len(pool) == 1:
        name = "automorphisms"
    else:
        name = "full" if len(pool) == math.factorial(n) else "cyclic"
    return _SlotGroup(maps, len(auts) * R, name)


class _Leader:
    """What the lex-leader test needs to know of a lex leader P, one bit per
    group row.  For each row g, t_g is the first slot of P missing from
    g(P); the row is fixed when g(P) = P.

    * thr, cls: the thresholds in ascending order and the rows of each;
      fixed: the fixed rows; held(y): the rows with y in g(P).
    * A row rejects P + (s,) when g(s) < t_g (t_g = s for fixed rows), so
      above[i] holds the rows with t_g > y for y in [thr[i-1], thr[i]).
    * For a tied row (g(s) = t_g), g(child) and child agree up to t_g, so
      the comparison goes on between g(P) and P above t_g, where g(P) has
      one slot more.  If they first differ at a slot of g(P), the row
      rejects whatever s is: at[i] adds those rows of class i to above[i+1],
      as what rejects when g(s) = thr[i].  If at a slot u of P, it accepts,
      and u becomes its threshold: high[u].  Otherwise g(P) is
      P - {t_g} + {e} with e > max P, and the row is in `even`: it rejects
      when e < s and fixes the child when e == s.  eqcls lists the
      (t, rows of class t in even) pairs.
    * past, upto: the cursor of admits, past holding the rows with a slot
      of g(P) in (max P, upto).

    The rows of held(y) are the parent's held(y) or group.maps[max P][y],
    so a _Leader keeps its parent and materialises a row set only when it
    is read: a read walks up the parents to the nearest one that holds
    that slot's row set (the root holds every one, as 0), then ORs the
    maps back down, keeping the row set at every _Leader it passes.  Most
    row sets are never read: the derivation reads them only while some
    tied row is still undecided, and admits only for the `even` rows."""

    __slots__ = (
        "top", "thr", "cls", "fixed", "rows", "parent", "images", "above", "at", "high",
        "even", "eqcls", "past", "upto",
    )

    def __init__(
        self,
        group: _SlotGroup,
        chosen: tuple[int, ...],
        classes: dict,
        fixed: int,
        parent: Optional[_Leader],
    ):
        """chosen is P and parent the _Leader of P[:-1], None for the root."""
        top = self.top = chosen[-1] if chosen else -1
        self.parent, self.images = parent, group.maps[top] if chosen else {}
        # rows[y]: held(y) once it has been read
        rows = self.rows = [None if chosen else 0] * len(group.maps)
        thr = sorted(classes)
        cls = [classes[t] for t in thr]
        k = len(thr)
        low, high, alive = 0, {}, 0
        if thr:  # so P is not the root
            # each read of held(z) below is done inline, from the parent's row
            # set: held() itself is called only when the parent lacks it
            up, image = parent.rows, self.images.get
            alive, i, prev = cls[0], 1, thr[0]
            for y in chosen[bisect.bisect_right(chosen, prev) :]:
                if alive:
                    for z in range(prev + 1, y):  # the slots between members
                        got = up[z]
                        got = rows[z] = (parent.held(z) if got is None else got) | image(z, 0)
                        hit = alive & got
                        if hit:
                            low |= hit
                            alive ^= hit
                    got = up[y]
                    got = rows[y] = (parent.held(y) if got is None else got) | image(y, 0)
                    kept = alive & got
                    if kept != alive:
                        high[y] = alive ^ kept
                    alive = kept
                if i < k and y == thr[i]:
                    alive |= cls[i]
                    i += 1
                prev = y
        above = [fixed] * (k + 1)
        for i in range(k - 1, -1, -1):
            above[i] = above[i + 1] | cls[i]
        self.thr, self.cls, self.fixed = thr, cls, fixed
        self.above, self.at = above, [above[i + 1] | cls[i] & low for i in range(k)]
        self.high, self.even = high, alive
        self.eqcls = [(t, c & alive) for t, c in zip(thr, cls) if c & alive]
        self.past, self.upto = 0, top + 1

    def held(self, y: int) -> int:
        """The rows with y in g(P)."""
        node, chain = self, []
        rows = node.rows[y]
        while rows is None:
            chain.append(node)
            node = node.parent
            rows = node.rows[y]
        for node in reversed(chain):
            rows = node.rows[y] = rows | node.images.get(y, 0)
        return rows

    def admits(self, group: _SlotGroup, s: int) -> bool:
        """Is P + (s,) still the lex leader of its orbit?  s exceeds max P,
        and the slots one _Leader is asked about must ascend.  A walk over
        the images of s below s rejects s on any row with g(s) < t_g, or
        with g(s) == t_g and a comparison above t_g that goes below; the
        `even` rows also need to know whether they hold a slot between
        max P and s, which `past` gathers as the slots ascend."""
        thr, above, at = self.thr, self.above, self.at
        k, i = len(thr), 0
        for x, rows in group.below[s]:
            while i < k and thr[i] < x:
                i += 1
            if rows & (at[i] if i < k and thr[i] == x else above[i]):
                return False
        if not self.eqcls:
            return True
        past, y, rows = self.past, self.upto, self.rows
        while y < s:
            got = rows[y]
            past |= self.held(y) if got is None else got
            y += 1
        self.past, self.upto = past, y
        into = group.maps[s]
        return not (past and any(into.get(t, 0) & rows & past for t, rows in self.eqcls))


def _root_leader(group: _SlotGroup) -> _Leader:
    return _Leader(group, (), {}, group.everyone, None)


def _child_leader(group: _SlotGroup, state: _Leader, child: tuple[int, ...]) -> _Leader:
    """The _Leader of child = parent + (s,), a lex leader, from its parent's."""
    s = child[-1]
    into = group.maps[s]
    tie = 0
    for t, c in zip(state.thr, state.cls):
        tie |= into.get(t, 0) & c
    classes = {}
    for t, c in zip(state.thr, state.cls):
        c ^= c & tie
        if c:
            classes[t] = c
    for u, rows in state.high.items():
        if rows & tie:
            classes[u] = classes.get(u, 0) | rows & tie
    fix = into.get(s, 0)
    held = state.held(s) if tie & state.even else 0
    stay = state.fixed & fix | tie & state.even & held
    move = state.fixed & ~fix | tie & state.even & ~held
    if move:
        classes[s] = move
    return _Leader(group, child, classes, stay, state)


# why an extension slot of an expanded set was dropped, in the order the
# walk tests them
_CUT_REASONS = ("not_free", "not_canonical", "over_bound", "uncoverable")


def _level_stats(level: int) -> dict:
    return {
        "level": level,
        "expanded": 0,
        "candidates": 0,
        "admitted": 0,
        "cuts": dict.fromkeys(_CUT_REASONS, 0),
    }


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    value is None when the budget ran out (UNKNOWN); witness then holds the
    best valid graph found so far (the greedy graph, or a smaller set the
    walk met), re-checked from the definition, and upper_bound its edge
    count.  Otherwise witness is an optimal graph with value edges, the
    lexicographically least one over canonical slot sets, re-checked from
    the definition before it is returned.  lower_bound is proven: on an
    UNKNOWN, the larger of saturation_lower_bound and the least, over the
    sets whose children the walk had not all tried, of the set's size plus
    what any completion of it through an untried child must still add (see
    the module docstring), capped at upper_bound; it equals value on an
    exact result.  nodes_explored counts the canonical sets admitted to the
    search tree, the empty root included.

    stats says where the search went, as plain JSON-ready data:
    stats["levels"][m] is the record of sets of m slots with "candidates"
    (the extension slots of each expanded set of m - 1 slots that the walk
    tried, or the root alone at size 0), "admitted" (sets kept as nodes),
    "expanded" (of those, the sets whose children were generated) and
    "cuts", the candidates dropped by reason: "not_free", "not_canonical",
    "over_bound", "uncoverable" (see the module docstring).  Each candidate
    is admitted or cut exactly once, so candidates = admitted + the sum of
    the cuts on every record; slots a walk never reached (it left a set
    after meeting a valid child, or ran out of budget) are not candidates.
    A candidate dropped in bulk, with every sibling after it (by the
    over-bound bound of its parent, or by the sibling-wide uncoverable
    cut), is charged to the cut that dropped it, whether or not the
    lex-leader test, which it never met, would have rejected it.  stats["cuts"] holds each reason's total over the sizes.
    stats["improvements"] lists the upper bounds in the order they were
    found, each as {"size", "nodes"} with nodes the count admitted by then:
    first the greedy graph (nodes 0), then each valid set smaller than the
    bound before it; the last size is value on an exact result.
    stats["group"] is {"pool", "rows"}: the index permutations of the group
    the lex-leader test runs on ("full", "cyclic" or "automorphisms", see
    _symmetry_group) and its element count, or None and 0 when no test runs
    (use_symmetry off, a trivial search, or a group that acts trivially or
    does not fit the caps).  stats["leaders"] counts the _Leader
    derivations, the root's included.  stats["floor"] is
    saturation_lower_bound, the proven bound the walk starts from: the walk
    stops as soon as it meets a valid set of that size (of one slot when
    it is 0), so an exact result whose value equals it may leave children
    untried.
    """

    value: Optional[int]
    witness: Optional[PartiteGraph]
    nodes_explored: int
    elapsed: float
    exhausted_budget: bool
    upper_bound: Optional[int] = None
    lower_bound: Optional[int] = None
    stats: Optional[dict] = None


def _exact_minimum(
    pattern: PatternGraph,
    n: int,
    require_free: bool,
    budget: Optional[float],
    use_symmetry: bool,
    seed: int,
    prune: bool = True,
) -> SolveResult:
    """The search behind min_sat_exact and min_exsat_exact.  prune=False
    leaves out the over-bound and uncoverable cuts, a reference path for
    tests: the answer is the same, with more nodes."""
    if pattern.edge_count() < 1:
        raise ValueError("exact search needs a pattern with at least one edge")
    if n < 1:
        raise ValueError("exact search needs n >= 1")
    _check_budget(budget)
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    host = BlowupHost(pattern, n)
    ub_graph = _greedy_fill(PartiteGraph(host), seed)
    ub = ub_graph.edge_count()
    lb = saturation_lower_bound(pattern, n)
    levels = [_level_stats(0)]  # the empty root is the one candidate of size 0
    levels[0].update(candidates=1, admitted=1)
    improvements = [{"size": ub, "nodes": 0}]
    group: Optional[_SlotGroup] = None
    leaders = 0  # _Leader objects built

    def result(value, witness, exhausted, upper, lower) -> SolveResult:
        # an independent path: the definition, on a graph built afresh
        check = is_partite_saturated if require_free else is_extra_saturated
        if not check(PartiteGraph(host, witness.edges)).ok:
            raise RuntimeError(
                f"the exact search returned a witness of size {upper} that fails {check.__name__}"
            )
        totals = {r: sum(row["cuts"][r] for row in levels) for r in _CUT_REASONS}
        stats = {
            "levels": levels,
            "cuts": totals,
            "improvements": improvements,
            "group": {
                "pool": None if group is None else group.pool,
                "rows": 0 if group is None else group.everyone.bit_count(),
            },
            "leaders": leaders,
            "floor": lb,
        }
        nodes = sum(row["admitted"] for row in levels)
        elapsed = time.monotonic() - start
        return SolveResult(value, witness, nodes, elapsed, exhausted, upper, lower, stats)

    if ub == 0:
        return result(0, ub_graph, False, 0, 0)

    sys_ = _SlotSystem(host)
    L = sys_.L
    group = _symmetry_group(sys_) if use_symmetry else None
    masks = _build_masks(pattern.vertex_count, n, ())
    floor = max(lb, 1)  # no smaller set is valid; the root is not
    bound = ub  # the walk looks for valid sets of at most this many slots
    best: Optional[tuple[int, ...]] = None  # the walk's least valid set so far
    # path is the set masks holds, and chosen the same set as one int;
    # stack[d] is the _Frame of path[:d]; stand is the graph of the
    # uncoverable tests, [masks, the slot set they hold]
    path: list[int] = []
    chosen = 0
    stack: list[_Frame] = []
    stand = [_build_masks(pattern.vertex_count, n, ()), 0]
    every = (1 << L) - 1

    def drop(row: dict, reason: str, count: int) -> None:
        row["candidates"] += count
        row["cuts"][reason] += count

    def expand(top: int, frame: _Frame) -> None:
        """Generate the children of path (last slot top) and push its frame."""
        m = len(path)
        levels[m]["expanded"] += 1
        if len(levels) == m + 1:
            levels.append(_level_stats(m + 1))
        todo = every ^ ((1 << top + 1) - 1)  # the slots above top
        if require_free:
            open_ = frame.open_
            if open_ is None:
                open_ = todo ^ sys_.covered(masks, todo)
            drop(levels[m + 1], "not_free", todo.bit_count() - open_.bit_count())
            todo = open_  # the open slots all lie above top
        frame.todo = todo
        stack.append(frame)

    def canonical(d: int, s: int) -> bool:
        """Is path[:d] + (s,) a lex leader?  The slots asked about for one
        frame ascend.  Derives the frame's _Leader on first use, from its
        parent frame's, and charges a rejected slot to not_canonical."""
        nonlocal leaders
        frame = stack[d]
        if frame.leader is None:
            frame.leader = (
                _child_leader(group, stack[d - 1].leader, tuple(path[:d]))
                if d
                else _root_leader(group)
            )
            leaders += 1
        if frame.leader.admits(group, s):
            return True
        drop(levels[d + 1], "not_canonical", 1)
        return False

    expand(-1, sys_.root(masks) if prune else _Frame(0, None, None, 0))
    while stack:
        frame = stack[-1]
        todo = frame.todo
        if not todo:
            stack.pop()
            if path:
                k = path.pop()
                chosen ^= 1 << k
                sys_.flip(masks, 1 << k)
            continue
        if deadline is not None and time.monotonic() > deadline:
            if group is not None:
                # the bound grows with the next child, so move each frame to
                # its next canonical one
                for d, frame in enumerate(stack):
                    todo = frame.todo
                    while todo and not canonical(d, (todo & -todo).bit_length() - 1):
                        todo &= todo - 1
                    frame.todo = todo
            upper = ub if best is None else len(best)
            return result(
                None,
                ub_graph if best is None else sys_.graph_for(best),
                True,
                upper,
                max(lb, min(upper, _open_bound(sys_, masks, path, stack))),
            )
        s = (todo & -todo).bit_length() - 1
        m = len(path) + 1
        row = levels[m]
        if prune and m - 1 + sys_.most_need > bound and m - 1 + max(
            1, sys_.settle(masks, frame, s)
        ) > bound:
            # the bound grows with s, so no later sibling can come in either
            drop(row, "over_bound", todo.bit_count())
            frame.todo = 0
            continue
        frame.todo = todo & todo - 1
        if group is not None and not canonical(m - 1, s):
            continue
        sys_.flip(masks, 1 << s)
        if prune:
            left = sys_.settled_uncovered(masks, frame, s)
            # with every settled slot covered, the slots above s decide
            scan_from = s + 1 if m >= floor and not left else None
        else:
            left = 0
            scan_from = 0 if m >= floor else None
        if scan_from is not None and first_uncovered_slot(pattern, n, masks, scan_from) is None:
            row["candidates"] += 1
            row["admitted"] += 1
            sys_.flip(masks, 1 << s)
            best, bound = (*path, s), m - 1
            if m < improvements[-1]["size"]:
                improvements.append({"size": m, "nodes": sum(r["admitted"] for r in levels)})
            if bound < floor:
                break
            frame.todo = 0  # later siblings are as large and lex-greater
            continue
        if prune:
            reason, child, siblings = sys_.cut(
                masks, stand, require_free, frame, chosen, left, s, bound
            )
        else:
            reason, child, siblings = None, _Frame(0, None, None, s + 1), False
        if reason is not None:
            sys_.flip(masks, 1 << s)
            if siblings:
                # no later sibling can be completed either
                drop(row, reason, todo.bit_count())
                frame.todo = 0
            else:
                drop(row, reason, 1)
            continue
        row["candidates"] += 1
        row["admitted"] += 1
        if m < bound:
            path.append(s)
            chosen |= 1 << s
            expand(s, child)
        else:
            sys_.flip(masks, 1 << s)
    if best is None:
        # the canonical form of the greedy graph is a node of the walk, so
        # this only keeps a safe answer
        return result(ub, ub_graph, False, ub, ub)
    return result(len(best), sys_.graph_for(best), False, len(best), len(best))


def _open_bound(sys_: _SlotSystem, masks: list, path: list[int], stack: list[_Frame]) -> int:
    """The least size a valid set the walk has not met can have: the least,
    over the frames with a child left to try, of _SlotSystem.reach at the
    next of those children, the lowest slot of the frame's untried set; with
    prune off, whose frames carry no open slots, the frame's size plus one.
    The walk first moves each frame past the children the lex-leader test
    rejects.  Takes path out of masks."""
    least = math.inf
    for d in range(len(stack) - 1, -1, -1):
        frame = stack[d]
        if frame.todo:
            t = (frame.todo & -frame.todo).bit_length() - 1
            if frame.open_ is None:
                reach = d + 1
            else:
                reach = sys_.reach(masks, frame.uncovered, frame.open_, t, d)
            least = min(least, reach)
        if d:
            sys_.flip(masks, 1 << path.pop())
    return least


def min_sat_exact(
    pattern: PatternGraph,
    n: int,
    budget: Optional[float] = None,
    *,
    use_symmetry: bool = True,
    seed: int = 0,
) -> SolveResult:
    """Least edge count of a partite-saturated subgraph of H[n], found by a
    depth-first branch-and-bound walk over canonical slot sets."""
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
    budget ran out before a witness appeared.

    stats says where the search went, as plain JSON-ready data:
    stats["vertex_counts"] holds one record per vertex count searched, with
    "vertices", "partitions" (part-size splits tried), "candidates" (each
    split's empty root, and the slots above the last slot of a node, as far
    as the search reached them), "nodes" (candidates visited) and "cuts",
    the candidates dropped by reason: "clique" (the slot closes a K_s),
    "not_canonical" (not the lex leader of its orbit) and "uncoverable"
    (every slot above an uncoverable node, see m_value).  Each candidate is
    a node or cut exactly once, so candidates = nodes + the sum of the cuts
    on every record.  stats["cuts"] holds each reason's total, and
    nodes_explored the total of the nodes."""

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
    }


class _MPartition:
    """One split into part sizes: its slots (vertex pairs in different
    parts, vertices numbered part by part), the index permutations within
    each part as a _SlotGroup (None when every part has size 1), and a graph
    held as one adjacency bitmask per vertex."""

    def __init__(self, sizes: tuple[int, ...], s: int):
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
        slot_index = {e: k for k, e in enumerate(slots)}
        self.group = None
        if total > r:
            pools = [list(itertools.permutations(range(size))) for size in sizes]
            sends = _index_rows(pools)
            maps = []
            for x, y in slots:
                p, q = part_of[x], part_of[y]  # p < q
                maps.append(
                    {
                        slot_index[offsets[p] + a2, offsets[q] + b2]: rows_a & rows_b
                        for a2, rows_a in sends[p][x - offsets[p]].items()
                        for b2, rows_b in sends[q][y - offsets[q]].items()
                    }
                )
            self.group = _SlotGroup(maps, math.prod(map(len, pools)), "full")
        part_masks = [((1 << size) - 1) << offsets[p] for p, size in enumerate(sizes)]
        self.s, self.slots, self.L = s, slots, len(slots)
        self.offsets, self.part_of = offsets, part_of
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
        out = []
        for k in chosen:
            x, y = self.slots[k]
            px, py = self.part_of[x], self.part_of[y]
            out.append(((px + 1, x - self.offsets[px] + 1), (py + 1, y - self.offsets[py] + 1)))
        return frozenset(out)


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
            row["candidates"] += later
            cut["uncoverable"] += later
            return None
        row["candidates"] += later - len(free)
        cut["clique"] += later - len(free)
        leader = None
        if group is not None and free:
            leader = _child_leader(group, parent, S) if S else _root_leader(group)
        for i, k in enumerate(free):
            row["candidates"] += 1
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
    row["candidates"] += 1  # the empty root
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
    _check_budget(budget)
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    rows: list[dict] = []

    def result(value, witness, exhausted) -> MResult:
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
    exact search uses (see the module docstring): the permutations are held
    as a _SlotGroup, each node with free slots derives its _Leader from its
    parent's, and _Leader.admits tests each free slot as the loop reaches
    it.

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
    both searches together: the second gets what the first left."""
    if r < 4:
        raise ValueError("kr_sat_bounds needs r >= 4")
    if n < 1:
        raise ValueError("kr_sat_bounds needs n >= 1")
    _check_budget(budget)
    deadline = None if budget is None else time.monotonic() + budget
    m_lower = m_value(r - 1, r - 1, max_vertices, budget)
    left = None if deadline is None else max(0.0, deadline - time.monotonic())
    m_upper = m_value(r, r - 1, max_vertices, left)
    lower = None if m_lower.value is None else (m_lower.value * r * n + 1) // 2
    upper = None if m_upper.value is None else m_upper.value * (r - 1) * n
    return KrSatBounds(r, n, lower, upper, m_lower, m_upper)
