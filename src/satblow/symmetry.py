"""The symmetry group of a slot set and its lex-leader test.

A search over slot sets keeps one set of each orbit of a group of slot
permutations: orderly generation with a lex-leader test, in the sense of
Kaski and Ostergard, Classification Algorithms for Codes and Designs
(2006).  Slots are numbered, and a set is compared as its sorted tuple; a
set is kept only when it is the lexicographically least member of its
orbit (its lex leader).  Removing the last slot of a lex leader leaves a
lex leader, so a tree whose children append one slot above the last one
holds exactly one node of each orbit.  The exact walk (solve.py) runs on
index permutations within each part of H[n] combined with automorphisms
of the pattern; m_value (mvalue.py) on index permutations within each part.

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

Both searches apply the rule to every group element at once: the group is
held as one bit per element, per slot and image slot (a _SlotGroup), and
each node of a walk with a slot to test derives its _Leader once, from its
parent's: the elements of each threshold and the outcome of each tie, so
testing an extension (_Leader.admits) is one walk over the images of s
below s.  The exact search tests a child only when the walk reaches it
and the child's int tests (solve._SlotSystem.cut, or the validity test)
have kept it, and derives a node's _Leader at its first tested child, so a
node whose children all fall to those tests derives none.
m_value derives the _Leader of each node with free slots and tests each
free slot as its loop reaches it.

Both searches take their group from _slot_group, under one set of caps on
its rows, table entries and map bytes.  Every part draws on one pool of
index permutations: the full symmetric group if the group fits, else
cyclic shifts, else the identity alone, which leaves the walk its pattern
automorphisms and m_value no group.  Under a subgroup a search revisits
some orbits but stays complete; m(10, 3) reaches splits such as
(1 x 9, 9), whose 9! rows pass the cap, and runs them on 9 shifts.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from typing import Callable, Iterator, Optional, Sequence

from .core import BlowupHost, PatternGraph


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


def _slot_maps(
    pools: list[list[tuple[int, ...]]],
    auts: list[tuple[int, ...]],
    ends: Sequence[tuple[int, int, int, int]],
    expired: Optional[Callable[[], bool]] = None,
) -> Optional[list[dict[int, int]]]:
    """The maps of a _SlotGroup whose rows pair a part map g of auts with
    one index permutation per part, that of part t drawn from pools[t].
    ends lists the slots as (p, a, q, b), index a of part p to index b of
    part q, and each g sends the parts of every slot to those of a slot.
    The rows of g = auts[j] fill bits j * R .. j * R + R - 1, R the product
    of the pool sizes, numbered within the block as in _index_rows; the
    rows sending slot (p, a)-(q, b) to (g(p), a2)-(g(q), b2) are the AND of
    two of its patterns shifted into block j.  Only the images the pools
    can produce are visited.  None once expired(), asked before each slot,
    is true."""
    R = math.prod(map(len, pools))
    sends = _index_rows(pools)
    # vertices numbered part by part: index a of part t is first[t] + a
    first = list(itertools.accumulate((len(pool[0]) for pool in pools), initial=0))
    slot_of = {}
    for k, (p, a, q, b) in enumerate(ends):
        slot_of[first[p] + a, first[q] + b] = slot_of[first[q] + b, first[p] + a] = k
    maps = []
    for p, a, q, b in ends:
        if expired is not None and expired():
            return None
        to: dict[int, int] = {}
        for j, g in enumerate(auts):
            gp, gq, shift = g[p], g[q], j * R
            fp, fq = first[gp], first[gq]
            for a2, rows_a in sends[gp][a].items():
                for b2, rows_b in sends[gq][b].items():
                    y = slot_of[fp + a2, fq + b2]
                    to[y] = to.get(y, 0) | (rows_a & rows_b) << shift
        maps.append(to)
    return maps


# the index permutations a part of k indices can draw on, largest first:
# (pool name, pool size, the pool)
_POOLS = (
    ("full", math.factorial, lambda k: list(itertools.permutations(range(k)))),
    ("cyclic", lambda k: k, lambda k: [tuple((a + t) % k for a in range(k)) for t in range(k)]),
    ("automorphisms", lambda k: 1, lambda k: [tuple(range(k))]),
)


def _slot_group(
    sizes: Sequence[int],
    auts: list[tuple[int, ...]],
    ends: Sequence[tuple[int, int, int, int]],
    expired: Optional[Callable[[], bool]] = None,
) -> Optional[_SlotGroup]:
    """The group of slot permutations pairing a part map of auts with one
    index permutation per part, every part drawing on the same pool of
    _POOLS: the first whose rows, table entries (rows per slot) and map bytes
    fit the caps.  ends lists the slots as for _slot_maps, over parts of
    these sizes.  Returns None when the group is trivial (one row, or every
    slot fixed), when not even the identity pool fits, or when expired()
    turns true while the maps are built.

    The maps take the sum over slots x of |orbit(x)| ints of one bit per
    row, counted before anything is built.  A pool that moves every index
    sends x onto every slot of each bundle that an element of auts sends
    x's bundle to, so that count goes bundle by bundle."""
    for name, size, make in _POOLS:
        rows = len(auts) * math.prod(map(size, sizes))
        if rows == 1:
            return None
        if rows > _GROUP_ROW_CAP or rows * len(ends) > _GROUP_ENTRY_CAP:
            continue
        if name == "automorphisms":
            orbits = sum(
                len({frozenset(((g[p], a), (g[q], b))) for g in auts}) for p, a, q, b in ends
            )
        else:
            bundles = collections.Counter((p, q) for p, _, q, _ in ends)
            orbits = sum(
                count * sum(sizes[t] * sizes[u] for t, u in {frozenset((g[p], g[q])) for g in auts})
                for (p, q), count in bundles.items()
            )
        if rows * orbits <= 8 * _GROUP_MAP_BYTES_CAP:
            break
    else:
        return None
    maps = _slot_maps([make(k) for k in sizes], auts, ends, expired)
    if maps is None or all(len(images) == 1 for images in maps):
        return None
    return _SlotGroup(maps, rows, "automorphisms" if rows == len(auts) else name)


def _symmetry_group(
    host: BlowupHost, expired: Optional[Callable[[], bool]] = None
) -> Optional[_SlotGroup]:
    """The slot permutations of the symmetry group of H[n] that fit the caps
    (see _slot_group), or None, also once expired() is true (the exact
    walk's deadline has passed).  n = 1, or an isolated vertex, can make the
    group act trivially."""
    auts = _pattern_automorphisms(host.pattern)
    return _slot_group([host.n] * host.pattern.vertex_count, auts, host.ends0(), expired)


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
        "thr", "cls", "fixed", "rows", "parent", "images", "above", "at", "high", "even",
        "eqcls", "past", "upto",
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
        top = chosen[-1] if chosen else -1
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
