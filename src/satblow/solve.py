"""Greedy samplers and exact minimum searches.

The exact searches (min_sat_exact, min_exsat_exact) walk one tree depth
first, keeping a slot set only when it is the lex leader of its orbit
under the symmetry group of H[n] (see symmetry.py), slots being numbered in
lexicographic endpoint order.  A set's children append one slot above its
last one, so every orbit has exactly one node in the tree, reached from the
empty root.  Children are visited in ascending slot order, so the walk's
preorder is the lexicographic order of the tuples, a proper prefix coming
first.

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
before s or after; likewise for w.  The graphs the uncoverable tests ask
about, C + F and G, are held in a second set of masks that is moved from
one test's graph to the next by toggling only the slots in which the two
differ: for extra-saturation, from P + {s, s + 1, ...} to the next
sibling's it drops the slots passed over, and a child's first child asks
about the very graph its parent was tested on.

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
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional

from .core import (
    BlowupHost,
    PartiteGraph,
    PatternGraph,
    _closes_copy,
    _empty_masks,
    first_uncovered_slot,
    has_partite_copy,
)
from .symmetry import _Leader, _SlotGroup, _child_leader, _root_leader, _symmetry_group
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


def _deadline(budget: Optional[float]) -> Optional[float]:
    """The clock reading at which a search of `budget` seconds stops, or
    None for no budget."""
    if budget is None:
        return None
    # a NaN deadline compares false with every clock reading, so the search
    # would never stop
    if math.isnan(budget):
        raise ValueError("budget must be a number of seconds, got nan")
    return time.monotonic() + budget


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
    _SlotSystem.relack) of the graph P and of uncovered plus the open slots
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
        self.most_need = len(self.bundles) * n  # no bundle-need bound exceeds it
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
        `vertices` (see ends) for the graph in masks and the settled
        non-edges `uncovered`; is any bit changed?  lack[d] holds, per bundle
        direction p -> r, the indices of the vertices of part p that need an
        edge toward part r: they have none yet, and an uncovered slot from
        another bundle (see the module docstring)."""
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
        """The bundle-need bound of the sets lack (see relack): edges any
        completion must add so that each uncovered slot can close a copy."""
        total = 0
        for d in range(0, len(lack), 2):
            a, b = lack[d].bit_count(), lack[d + 1].bit_count()
            total += a if a > b else b
        return total

    def graph_for(self, slot_ids) -> PartiteGraph:
        return PartiteGraph(self.host, (self.slots[k] for k in slot_ids))



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
    symmetry._slot_group) and its element count, or None and 0 when no test runs
    (use_symmetry off, a trivial search, or a group that acts trivially or
    does not fit the caps).  stats["leaders"] counts the _Leader
    derivations, the root's included.  stats["floor"] is
    saturation_lower_bound, the proven bound the walk starts from: the walk
    stops as soon as it meets a valid set of that size (of one slot when
    it is 0), so an exact result whose value equals it may leave children
    untried.  stats["phases"] gives the seconds of each phase: "greedy"
    (the greedy fill that sets the first upper bound), "group" (building
    the symmetry group, 0 without one), "walk" (building the slot system
    and walking) and "recheck" (re-checking the witness from the
    definition); a search with an empty greedy graph has no group or walk.

    The budget is a deadline set when the search starts, and only the walk
    reads it: greedy fill, the build of the symmetry group and the witness
    re-check run to their end, so on a large host elapsed can pass the
    budget by seconds (min_sat_exact(C6, 60, budget=0.5) takes about 2.5 s,
    its walk about 0.1 s of it).
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
    start = time.monotonic()
    deadline = _deadline(budget)
    host = BlowupHost(pattern, n)
    ub_graph = _greedy_fill(PartiteGraph(host), seed)
    phases = {"greedy": time.monotonic() - start, "group": 0.0, "walk": 0.0, "recheck": 0.0}
    ub = ub_graph.edge_count()
    lb = saturation_lower_bound(pattern, n)
    levels = [_level_stats(0)]
    levels[0]["admitted"] = 1  # the empty root
    improvements = [{"size": ub, "nodes": 0}]
    group: Optional[_SlotGroup] = None
    leaders = 0  # _Leader objects built

    def result(value, witness, exhausted, upper, lower) -> SolveResult:
        if ub:  # an empty greedy graph returns before the walk
            phases["walk"] = time.monotonic() - walk_start
        # an independent path: the definition, on a graph built afresh
        check = is_partite_saturated if require_free else is_extra_saturated
        recheck_start = time.monotonic()
        if not check(PartiteGraph(host, witness.edges)).ok:
            raise RuntimeError(
                f"the exact search returned a witness of size {upper} that fails {check.__name__}"
            )
        phases["recheck"] = time.monotonic() - recheck_start
        for row in levels:  # each candidate is admitted or cut exactly once
            row["candidates"] = row["admitted"] + sum(row["cuts"].values())
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
            "phases": {name: round(t, 6) for name, t in phases.items()},
        }
        nodes = sum(row["admitted"] for row in levels)
        elapsed = time.monotonic() - start
        return SolveResult(value, witness, nodes, elapsed, exhausted, upper, lower, stats)

    if ub == 0:
        return result(0, ub_graph, False, 0, 0)

    group_start = time.monotonic()
    group = _symmetry_group(host) if use_symmetry else None
    walk_start = time.monotonic()
    phases["group"] = walk_start - group_start
    sys_ = _SlotSystem(host)
    L = sys_.L
    masks = _empty_masks(pattern.vertex_count, n)
    floor = max(lb, 1)  # no smaller set is valid; the root is not
    bound = ub  # the walk looks for valid sets of at most this many slots
    best: Optional[tuple[int, ...]] = None  # the walk's least valid set so far
    # path is the set masks holds, and chosen the same set as one int;
    # stack[d] is the _Frame of path[:d]; stand is the graph of the
    # uncoverable tests, [masks, the slot set they hold]
    path: list[int] = []
    chosen = 0
    stack: list[_Frame] = []
    stand = [_empty_masks(pattern.vertex_count, n), 0]
    every = (1 << L) - 1

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
            levels[m + 1]["cuts"]["not_free"] += todo.bit_count() - open_.bit_count()
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
        levels[d + 1]["cuts"]["not_canonical"] += 1
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
            row["cuts"]["over_bound"] += todo.bit_count()
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
                row["cuts"][reason] += todo.bit_count()
                frame.todo = 0
            else:
                row["cuts"][reason] += 1
            continue
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
    over the frames with a child left to try, of the frame's size plus
    max(1, its bundle-need bound at the next of those children, the lowest
    slot of its untried set; see _SlotSystem.settle); with prune off, whose
    frames carry no open slots, the frame's size plus one.  The walk first
    moves each frame past the children the lex-leader test rejects.  Takes
    path out of masks."""
    least = math.inf
    for d in range(len(stack) - 1, -1, -1):
        frame = stack[d]
        if frame.todo:
            if frame.open_ is None:
                least = min(least, d + 1)
            else:
                t = (frame.todo & -frame.todo).bit_length() - 1
                least = min(least, d + max(1, sys_.settle(masks, frame, t)))
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

