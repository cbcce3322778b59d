"""The symmetry group of a slot set and its lex-leader test.

A search over slot sets keeps one set of each orbit of a group of slot
permutations: orderly generation with a lex-leader test, in the sense of
Kaski and Ostergard, Classification Algorithms for Codes and Designs
(2006).  Slots are numbered, and a set is compared as its sorted tuple; a
set is kept only when it is the lexicographically least member of its
orbit (its lex leader).  Removing the last slot of a lex leader leaves a
lex leader, so a tree whose children append one slot above the last one
holds exactly one node of each orbit.  The exact walk (solve.py) runs on
index permutations within each part of H[n] that carries slots, combined
with the automorphisms of the pattern that fix its isolated vertices (the
part of an isolated vertex carries no slot, so it stays fixed); m_value
(mvalue.py) on index permutations within each part.

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
parent's: the elements of each threshold and the fixed elements.  Testing
an extension s (_Leader.admits) is one walk over the images of s below s,
which rejects or keeps every element but the tied ones, and one scan of
the slots above the least tied threshold for the tied elements alone, so
the outcome of a tie is worked out only for an s that meets it.  The test
sorts every element by its threshold in the child as it goes, and the
child's derivation (_child_leader) reuses that split.  The exact search
tests a child only when the walk reaches it and the child's int tests
(solve._SlotSystem.cut, or the validity test) have kept it, and derives a
node's _Leader at its first tested child, so a node whose children all
fall to those tests derives none.  m_value derives the _Leader of each
node with free slots and tests each free slot as its loop reaches it.

Both searches take their group from _slot_group, under one set of caps on
its rows, table entries and map bytes.  Every part draws on one pool of
index permutations: the full symmetric group if the group fits, else
cyclic shifts, else the identity alone, which leaves the walk its pattern
automorphisms and m_value no group; the walk lists those automorphisms
only up to the row cap, since each is a row of every pool, so a pattern
with more gets no group.  Under a subgroup a search revisits
some orbits but stays complete; m(10, 3) reaches splits such as
(1 x 9, 9), whose 9! rows pass the cap, and runs them on 9 shifts.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Callable, Iterator, Optional, Sequence

from .core import BlowupHost, PatternGraph


_GROUP_ROW_CAP = 200_000
_GROUP_ENTRY_CAP = 8_000_000
# the maps hold one int of `rows` bits per slot and image slot
_GROUP_MAP_BYTES_CAP = 32 << 20


def _pattern_automorphisms(
    pattern: PatternGraph, expired: Optional[Callable[[], bool]] = None
) -> Optional[list[tuple[int, ...]]]:
    """Every automorphism of the pattern that fixes each isolated vertex, as
    a 0-based vertex map, in lexicographic order, found by backtracking over
    partial maps; an isolated vertex carries no slot, so moving it would
    only repeat slot permutations.  Vertices are mapped in breadth-first
    order, so a vertex with a neighbour mapped earlier may only go to a
    neighbour of that neighbour's image; each choice must also match
    degrees and agree on adjacency with every vertex mapped before it.
    None once more than _GROUP_ROW_CAP are found (each is a row of every
    group built on them, so none would fit), or once expired(), asked
    every 1024th choice, is true.

    Twins are counted before anything is listed.  Vertices with one open
    neighbourhood, or one closed neighbourhood, can be permuted among
    themselves at will, and no vertex with an edge has twins of both kinds
    (were u, v false twins and v, w true twins, w would be a neighbour of
    u and u then one of v), so the twin classes of the vertices with an
    edge move disjoint sets and the product of their factorials is the
    order of a group of automorphisms.  When it passes _GROUP_ROW_CAP the
    answer is None at once: star(9) has nine leaves with one open
    neighbourhood, and 9! automorphisms."""
    v = pattern.vertex_count
    adj = [frozenset(a) for a in pattern._adj0]
    twins = itertools.chain(
        collections.Counter(a for a in adj if a).values(),
        collections.Counter(a | {x} for x, a in enumerate(adj) if a).values(),
    )
    if math.prod(map(math.factorial, twins)) > _GROUP_ROW_CAP:
        return None
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
        if anchor[x] >= 0:
            pool = adj[image[anchor[x]]]
        else:
            pool = range(v) if adj[x] else (x,)
        return (
            t
            for t in pool
            if not used[t]
            and len(adj[t]) == len(adj[x])
            and all((y in adj[x]) == (image[y] in adj[t]) for y in order[:depth])
        )

    auts: list[tuple[int, ...]] = []
    stack = [choices(0)]
    steps = 0
    while stack:
        x = order[len(stack) - 1]
        if image[x] >= 0:
            used[image[x]] = False
            image[x] = -1
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        steps += 1
        if not steps & 1023 and expired is not None and expired():
            return None
        image[x] = t
        used[t] = True
        if len(stack) < v:
            stack.append(choices(len(stack)))
        elif len(auts) == _GROUP_ROW_CAP:
            return None
        else:
            auts.append(tuple(image))
    return sorted(auts)


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
    walk's deadline has passed).  The group acts on the parts that carry
    slots: an isolated pattern vertex stays fixed and its part gets a
    one-index pool, so no slot permutation is held twice.  n = 1 can make
    the group act trivially."""
    auts = _pattern_automorphisms(host.pattern, expired)
    if auts is None:
        return None
    sizes = [host.n if adj else 1 for adj in host.pattern._adj0]
    return _slot_group(sizes, auts, host.ends0(), expired)


class _Leader:
    """What the lex-leader test needs to know of a lex leader P, one bit per
    group row.  For each row g, t_g is the first slot of P missing from
    g(P); the row is fixed when g(P) = P, and then t_g counts as the slot
    tested next.

    * thr, cls: the thresholds in ascending order and the rows of each;
      fixed: the fixed rows; above[i]: the rows with t_g >= thr[i] (the
      fixed rows among them), above[len(thr)] the fixed rows alone;
      held(y): the rows with y in g(P).
    * admits(s) sorts each image x < s of s, with the rows g that send s
      there, into one of three cases.  If x is not in P, then t_g != x, and
      the rows with t_g > x reject (g(s) < t_g), those of above[i] for the
      least thr[i] > x, while the others keep t_g.  If x is in P, no row
      with t_g > x sends s there: g(P) holds every slot of P below t_g,
      each the image of a slot of P, so g(s) = x would make s a slot of P.
      So if x is a threshold, its rows in cls are tied (g(s) = t_g) and
      the others keep t_g; if x is a member of P that is no row's
      threshold, every row sending s there keeps t_g.
    * Only the tied rows go on, to the scan of the threshold rule over the
      slots above t_g up to max P, one pass for all of them that starts at
      the least tied threshold and takes each row in at its own: a slot of
      g(P) not in P rejects, a slot u of P missing from g(P) accepts and
      becomes the row's threshold, and a row left at max P (even: g(P) is
      P - {t_g} + {e}, e > max P) rejects when e < s, is fixed when
      e == s, and takes threshold s otherwise, as does a fixed row with
      g(s) != s.  past, upto: the cursor for e < s, past holding the rows
      with a slot of g(P) in (max P, upto), so the slots admits is asked
      about must ascend.
    * key, child: the last s whose child (P + (s,)) admits accepted or
      _child_leader derived, and that child's classes and fixed rows, which
      _child_leader reuses.

    The rows of held(y) are the parent's held(y) or group.maps[max P][y],
    so a _Leader keeps its parent and materialises a row set only when it
    is read: a read walks up the parents to the nearest one that holds
    that slot's row set (the root holds every one, as 0), then ORs the
    maps back down, keeping the row set at every _Leader it passes.  Most
    row sets are never read: only the scan of tied rows reads them."""

    __slots__ = (
        "top", "members", "thr", "cls", "above", "fixed", "rows", "parent", "images",
        "past", "upto", "key", "child",
    )

    def __init__(
        self,
        group: _SlotGroup,
        chosen: tuple[int, ...],
        classes: dict,
        fixed: int,
        parent: Optional[_Leader],
    ):
        """chosen is P and parent the _Leader of P[:-1], None for the root;
        classes maps each threshold to its rows."""
        top = self.top = chosen[-1] if chosen else -1
        self.parent = parent
        self.members = parent.members | 1 << top if chosen else 0
        self.images = group.maps[top] if chosen else {}
        # rows[y]: held(y) once it has been read
        self.rows = [None if chosen else 0] * len(group.maps)
        thr = self.thr = sorted(classes)
        cls = self.cls = [classes[t] for t in thr]
        above = self.above = [fixed] * (len(thr) + 1)
        for i in range(len(thr) - 1, -1, -1):
            above[i] = above[i + 1] | cls[i]
        self.fixed = fixed
        self.past, self.upto = 0, top + 1
        self.key, self.child = -1, None

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
        and the slots one _Leader is asked about must ascend.  A child it
        admits keeps its split (see _split) for _child_leader."""
        return self._split(group, s, True)

    def _split(self, group: _SlotGroup, s: int, test: bool) -> bool:
        """Sort the rows by their outcome on P + (s,), keeping the child's
        classes and fixed rows as child and s as key; False when a row
        rejects the child.  With test false the child must be a lex leader:
        the rows the walk over the images would reject are not looked for,
        nor the even rows with e < s, so the cursor stays and s need not
        ascend."""
        thr, cls, above, members = self.thr, self.cls, self.above, self.members
        k, i = len(thr), 0
        ties = []  # (t, the rows of class t with g(s) = t), t ascending
        for x, rows in group.below[s]:
            while i < k and thr[i] < x:
                i += 1
            if i < k and thr[i] == x:
                tie = rows & cls[i]
                if tie:
                    ties.append((x, tie))
            elif test and not members >> x & 1 and rows & above[i]:
                return False
        classes = dict(zip(thr, cls))
        stay = self.fixed & group.maps[s].get(s, 0)
        move = self.fixed ^ stay
        if ties:
            for t, tie in ties:
                rest = classes[t] ^ tie
                if rest:
                    classes[t] = rest
                else:
                    del classes[t]
            # the scan of the threshold rule, for every tied row at once:
            # alive holds the tied rows whose scan has reached y undecided
            rows_, parent, image = self.rows, self.parent, self.images.get
            y, alive = ties[0]
            j = 1
            for y in range(y + 1, self.top + 1):
                if alive:
                    # held(y), read from the parent's row set where it has one
                    got = rows_[y]
                    if got is None:
                        up = parent.rows[y]
                        got = rows_[y] = (parent.held(y) if up is None else up) | image(y, 0)
                    if members >> y & 1:
                        kept = alive & got
                        if kept != alive:
                            classes[y] = classes.get(y, 0) | alive ^ kept
                            alive = kept
                    elif alive & got:
                        return False
                if j < len(ties) and ties[j][0] == y:
                    alive |= ties[j][1]
                    j += 1
                elif not alive and j == len(ties):
                    break
            if alive and test:
                past, y = self.past, self.upto
                while y < s:
                    got = rows_[y]
                    past |= self.held(y) if got is None else got
                    y += 1
                self.past, self.upto = past, y
                if alive & past:
                    return False
            if alive:
                got = rows_[s]
                even = alive & (self.held(s) if got is None else got)
                stay |= even
                move |= alive ^ even
        if move:
            classes[s] = move
        self.key, self.child = s, (classes, stay)
        return True


def _root_leader(group: _SlotGroup) -> _Leader:
    return _Leader(group, (), {}, group.everyone, None)


def _child_leader(group: _SlotGroup, state: _Leader, child: tuple[int, ...]) -> _Leader:
    """The _Leader of child = parent + (s,), a lex leader, from its parent's:
    the classes state.admits(s) kept, or, when it was last asked about
    another slot or never, those of the same split run afresh."""
    s = child[-1]
    if state.key != s:
        state._split(group, s, False)
    return _Leader(group, child, *state.child, state)
