"""Graph types and partite-copy machinery for blow-up hosts.

A pattern graph H on vertices 1..v is blown up into a host H[n] by replacing
each pattern vertex with a part of n independent vertices and each pattern
edge with a complete bipartite bundle of n*n edge slots.  Subgraphs of the
host are the central object of this package: a partite copy of the pattern is
a choice of one vertex per part that carries every pattern edge, and
everything downstream (saturation verdicts, extremal constructions, exact
searches) is phrased in terms of counting or locating such copies.

Since each part is an independent set, a one-vertex-per-part subgraph
isomorphic to the pattern can only place its edges inside slot bundles, so it
must carry exactly the pattern edges under the identity part mapping.  That
is why the copy test below never permutes parts.

Vertices are addressed as (part, index) pairs, 1-based on the public surface.
Copy counts are exact Python integers.  All public values are immutable after
construction and every operation is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional


class PatternGraph:
    """A small simple graph on vertices 1..vertex_count, used as a blow-up pattern."""

    __slots__ = ("vertex_count", "edges", "_adj0", "_plans")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError("pattern needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        for e in edges:
            i, j = e
            if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
                raise ValueError(f"edge {e} out of range for {vertex_count} vertices")
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            if i > j:
                i, j = j, i
            seen.add((i, j))
        self.vertex_count = vertex_count
        self.edges = frozenset(seen)
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for i, j in seen:
            adj[i - 1].append(j - 1)
            adj[j - 1].append(i - 1)
        self._adj0 = tuple(tuple(sorted(a)) for a in adj)
        # pinned-search plans, one per pattern edge and orientation, keyed
        # p * v + q, and their counting splits, keyed -1 - (p * v + q) for
        # p < q; filled by _plan and _splits on first use, since building
        # all of them costs O(e * (v + e)) and a scan may stop at its first
        # slot
        self._plans: dict[int, tuple] = {}

    # -- constructors for the usual suspects ---------------------------------

    @classmethod
    def complete(cls, r: int) -> "PatternGraph":
        return cls(r, itertools.combinations(range(1, r + 1), 2))

    @classmethod
    def path(cls, r: int) -> "PatternGraph":
        return cls(r, ((i, i + 1) for i in range(1, r)))

    @classmethod
    def cycle(cls, r: int) -> "PatternGraph":
        if r < 3:
            raise ValueError("a cycle needs at least three vertices")
        return cls(r, [(i, i + 1) for i in range(1, r)] + [(1, r)])

    @classmethod
    def star(cls, leaves: int) -> "PatternGraph":
        """The star with one center (vertex 1) and `leaves` leaves."""
        if leaves < 1:
            raise ValueError("a star needs at least one leaf")
        return cls(leaves + 1, ((1, k) for k in range(2, leaves + 2)))

    # -------------------------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(u + 1 for u in self._adj0[v - 1])

    def degree_of(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj0[v - 1])

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.edges

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self._adj0[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.vertex_count - 1

    def _plan(self, p: int, q: int) -> tuple:
        """The search plan of pattern edge (p, q), 0-based: the components of
        _search_plan, each with the memo keys of _counting_steps, and the
        neighbours of q other than p, the parts a copy's q-end meets."""
        key = p * self.vertex_count + q
        plan = self._plans.get(key)
        if plan is None:
            other = self._plans.get(q * self.vertex_count + p)
            components = other[0] if other else tuple(
                _counting_steps(steps) for steps in _search_plan(self._adj0, min(p, q), max(p, q))
            )
            plan = self._plans[key] = (components, tuple(x for x in self._adj0[q] if x != p))
        return plan

    def _splits(self, p: int, q: int) -> tuple:
        """The components of the plan of pattern edge (p, q), each split by
        _cut_and_forest for counting; compiled at the first count, kept
        under key -1 - (p * v + q) with p < q."""
        key = -1 - min(p, q) * self.vertex_count - max(p, q)
        splits = self._plans.get(key)
        if splits is None:
            splits = self._plans[key] = tuple(_cut_and_forest(steps) for steps in self._plan(p, q)[0])
        return splits

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.vertex_count):
            raise ValueError(f"vertex {v} out of range 1..{self.vertex_count}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"PatternGraph({self.vertex_count}, {sorted(self.edges)})"


class PartiteVertex(NamedTuple):
    """A host vertex, addressed by its part and its index within the part."""

    part: int
    index: int

    def __str__(self) -> str:
        return f"{self.part}.{self.index}"


Slot = tuple[PartiteVertex, PartiteVertex]


class BlowupHost:
    """The blow-up H[n]: parts of size n, one per pattern vertex, with slot
    bundles along pattern edges.  Carries no edge set of its own; subgraphs
    live in PartiteGraph."""

    __slots__ = ("pattern", "n", "_vertex", "_slots", "_ends0")

    def __init__(self, pattern: PatternGraph, n: int):
        if n < 1:
            raise ValueError("blow-up needs n >= 1")
        self.pattern = pattern
        self.n = n
        self._vertex: Optional[tuple[tuple[PartiteVertex, ...], ...]] = None
        self._slots: Optional[tuple[Slot, ...]] = None
        self._ends0: Optional[tuple[tuple[int, int, int, int], ...]] = None

    @property
    def total_vertices(self) -> int:
        return self.pattern.vertex_count * self.n

    def slot_count(self) -> int:
        return self.pattern.edge_count() * self.n * self.n

    def vertices(self) -> Iterator[PartiteVertex]:
        for part in self._vertex_table():
            yield from part

    def _vertex_table(self) -> tuple[tuple[PartiteVertex, ...], ...]:
        """The vertices by 0-based part and index: _vertex_table()[p][a] is
        PartiteVertex(p + 1, a + 1).  Slots and graph edges are built from
        these objects, so a host holds one object per vertex."""
        if self._vertex is None:
            rng = range(1, self.n + 1)
            self._vertex = tuple(tuple(PartiteVertex(p, a) for a in rng) for p in self.pattern.vertices)
        return self._vertex

    def contains_vertex(self, u: PartiteVertex) -> bool:
        return 1 <= u.part <= self.pattern.vertex_count and 1 <= u.index <= self.n

    def is_allowed_slot(self, u: PartiteVertex, v: PartiteVertex) -> bool:
        return (
            self.contains_vertex(u)
            and self.contains_vertex(v)
            and self.pattern.has_edge(u.part, v.part)
        )

    def slots(self) -> tuple[Slot, ...]:
        """All edge slots in lexicographic order on (part, index) endpoint pairs."""
        if self._slots is None:
            vertex = self._vertex_table()
            self._slots = tuple((vertex[p][a], vertex[q][b]) for p, a, q, b in self.ends0())
        return self._slots

    def ends0(self) -> tuple[tuple[int, int, int, int], ...]:
        """The slots as 0-based (p, a, q, b) endpoint tuples, in slot order.
        Generated in that order (p < q), so nothing is sorted."""
        if self._ends0 is None:
            adj0, rng = self.pattern._adj0, range(self.n)
            self._ends0 = tuple(
                (p, a, q, b)
                for p in range(len(adj0))
                for a in rng
                for q in adj0[p]
                if q > p
                for b in rng
            )
        return self._ends0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlowupHost):
            return NotImplemented
        return self.n == other.n and self.pattern == other.pattern

    def __hash__(self) -> int:
        return hash((self.pattern, self.n))

    def __repr__(self) -> str:
        return f"BlowupHost({self.pattern!r}, n={self.n})"


@dataclass(frozen=True)
class PartiteSelection:
    """One chosen index per part; the candidate vertex set of a partite copy.

    indices[k] is the 1-based index chosen in part k+1.
    """

    indices: tuple[int, ...]

    @classmethod
    def from_mapping(cls, mapping: dict[int, int]) -> "PartiteSelection":
        parts = sorted(mapping)
        if parts != list(range(1, len(parts) + 1)):
            raise ValueError("selection must cover parts 1..v exactly once")
        return cls(tuple(mapping[p] for p in parts))

    def index_for(self, part: int) -> int:
        return self.indices[part - 1]

    def to_mapping(self) -> dict[int, int]:
        return {p + 1: a for p, a in enumerate(self.indices)}

    def vertices(self) -> tuple[PartiteVertex, ...]:
        return tuple(PartiteVertex(p + 1, a) for p, a in enumerate(self.indices))


def _empty_masks(v: int, n: int) -> list[list[list[int]]]:
    """The adjacency bitmasks of the empty graph on v parts of size n:
    masks[p][a][q] has bit b set when (p+1,a+1)-(q+1,b+1) is an edge."""
    return [[[0] * v for _ in range(n)] for _ in range(v)]


class PartiteGraph:
    """An immutable subgraph of a blow-up host.  Edges must sit in slot bundles."""

    __slots__ = ("host", "edges", "_masks")

    def __init__(self, host: BlowupHost, edges: Iterable = ()):
        """edges: pairs of 1-based (part, index) endpoints, either end first;
        a repeat is kept once.  One pass checks each edge on ints and fills
        the masks."""
        pattern, n = host.pattern, host.n
        allowed = pattern.edges
        vertex = host._vertex_table()
        masks = _empty_masks(pattern.vertex_count, n)
        kept = []
        for (i, a), (j, b) in edges:
            i, a, j, b = int(i), int(a), int(j), int(b)
            if j < i or (j == i and b < a):
                i, a, j, b = j, b, i, a
            # every pattern edge (i, j) has 1 <= i < j <= v, so this test
            # also refuses a part out of range and two ends in one part
            if (i, j) not in allowed or not (0 < a <= n and 0 < b <= n):
                raise ValueError(f"edge {i}.{a}-{j}.{b} is not an allowed slot of this host")
            i, a, j, b = i - 1, a - 1, j - 1, b - 1
            kept.append((vertex[i][a], vertex[j][b]))
            masks[i][a][j] |= 1 << b
            masks[j][b][i] |= 1 << a
        self.host = host
        self.edges = frozenset(kept)
        self._masks = masks

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u, v) -> bool:
        u = PartiteVertex(*u)
        v = PartiteVertex(*v)
        return (u, v) in self.edges or (v, u) in self.edges

    def with_edge(self, u, v) -> "PartiteGraph":
        e = _slot(self.host, u, v)
        if e in self.edges:
            return self
        return PartiteGraph(self.host, self.edges | {e})

    def without_edge(self, u, v) -> "PartiteGraph":
        e = _slot(self.host, u, v)
        if e not in self.edges:
            return self
        return PartiteGraph(self.host, self.edges - {e})

    def allowed_non_edges(self) -> Iterator[Slot]:
        """Host slots not used by this graph, in lexicographic order."""
        for slot in self.host.slots():
            if slot not in self.edges:
                yield slot

    def sorted_edges(self) -> list[Slot]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartiteGraph):
            return NotImplemented
        return self.host == other.host and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.host, self.edges))

    def __repr__(self) -> str:
        return f"PartiteGraph({self.host!r}, {len(self.edges)} edges)"


def _slot(host: BlowupHost, u, v) -> Slot:
    """The slot u-v as host.slots() holds it, checked as PartiteGraph
    checks an edge."""
    (e,) = PartiteGraph(host, ((u, v),)).edges
    return e


def blow_up(pattern: PatternGraph, n: int) -> PartiteGraph:
    """The complete blow-up H[n]: every slot of every bundle is an edge."""
    host = BlowupHost(pattern, n)
    return PartiteGraph(host, host.slots())


# --------------------------------------------------------------------------
# The copy engine.  Every question is answered on a plan: components of steps
# (part, nbrs, branch, key).  The plan of pattern edge (p, q) is compiled once
# (PatternGraph._plan): the other parts, split into the components of the
# pattern minus p and q, each in breadth-first order (_search_plan), with the
# memo keys of _counting_steps, and the neighbours of q other than p.  The
# first count on the edge also splits each component into the steps before
# its forest and the forest (PatternGraph._splits, _cut_and_forest).  No walk
# of a component calls itself: _extend asks whether it can be placed, _count
# in how many ways.
#
# Existence, with the two ends of one slot pinned (does adding this slot close
# a copy?): _closes_copy for one slot, first_uncovered_slot for a whole graph.
# The scan goes one row at a time, a row being the slots (p, a)-(q, b) of one
# vertex (p, a) and one part q > p: a copy found through b carries one
# through every b' that all of q's other neighbours in it meet, so those
# non-edges need no search of their own.
# Counting, pinned the same way (count_copies_through): the product of the
# counts of the plan's components.  With the pinned parts placed, what is left
# of a component is almost always a forest, counted by one sum-product
# (_forest_ways) with no candidate tried: every component of K3, K4, the
# cycles, paths, stars and trees.  Each domain is first cut down from the
# pinned end of its tree, so a sparse host is weighed only at reachable
# indices.  Otherwise _count tries each placement of the steps before the
# forest and sums the forest's counts under it (cycle-cutset conditioning;
# Dechter and Pearl, 1987), remembering a count by the index of the one
# earlier part it depends on, so a chain of cycles costs a polynomial.
# Every copy uses exactly one slot of each bundle, so an unpinned count is
# the sum of pinned counts over the present slots of one bundle
# (_sparsest_bundle), and has_partite_copy asks _closes_copy of those slots.
# The lex-least copy (_find) runs _extend on one component that places the
# parts in ascending order, so that the first copy it meets is the least.
# --------------------------------------------------------------------------


def _search_plan(adj0, p: int, q: int) -> tuple[tuple[tuple[int, tuple[int, ...], bool], ...], ...]:
    """How a search pinned at pattern edge (p, q) places the other parts.

    With p and q pinned, the components of the pattern minus p and q share
    no edge, so each is searched on its own and a component with no
    placement ends the search at once.  The plan lists those components,
    each in breadth-first order from a root: its least neighbour of p, else
    its least neighbour of q, else its least part.  So every part but a
    root is bounded by a placed neighbour as soon as it is placed.  A part is a step (part, nbrs, branch): nbrs are the
    earlier placed neighbour parts, p and q included, whose mask rows bound
    the part's candidates (the edge p-q counts as carried, so no step checks
    it), and branch says whether a later step reads this part's index.  A
    part that no later step reads needs some candidate, not a particular
    one, so its candidates are not tried in turn."""
    rank = {p: 0, q: 1}
    components = []
    for root in itertools.chain(adj0[p], adj0[q], range(len(adj0))):
        if root not in rank:
            rank[root] = len(rank)
            component = [root]
            for x in component:  # the list grows as it is read: breadth-first
                for y in adj0[x]:
                    if y not in rank:
                        rank[y] = len(rank)
                        component.append(y)
            components.append(component)
    nbrs = {x: tuple(y for y in adj0[x] if rank[y] < rank[x]) for x in rank}
    read = {y for ys in nbrs.values() for y in ys}
    return tuple(tuple((x, nbrs[x], x in read) for x in c) for c in components)


def _counting_steps(steps) -> tuple[tuple[int, tuple[int, ...], bool, int], ...]:
    """One component of a search plan with its memo keys: each step
    (part, nbrs, branch) gains the free part whose index alone decides
    whether, and in how many ways, this step and the later ones can be
    placed, or -1.

    Those placements depend on the free parts placed before the step that it
    or a later step reads (the pinned parts are fixed for a whole search).
    When that is one part y, the outcome of the suffix is a function of y's
    index: _extend remembers a failure by that index, and _count, in the
    steps before a forest, a count.  Only branching steps get a key, and
    only after at least two branching steps, y and another: otherwise each
    index of y reaches the step once and the memo could never hit."""
    last = {y: k for k, (_, nbrs, _) in enumerate(steps) for y in nbrs}
    live: set[int] = set()  # free parts placed so far that a later step reads
    branching = 0
    out = []
    for k, (x, nbrs, branch) in enumerate(steps):
        key = next(iter(live)) if branch and len(live) == 1 and branching > 1 else -1
        out.append((x, nbrs, branch, key))
        live.difference_update(y for y in nbrs if last[y] == k)
        if branch:
            live.add(x)
            branching += 1
    return tuple(out)


def _cut_and_forest(steps) -> tuple[tuple, tuple]:
    """One component of a search plan split for counting (_count): its
    steps before the forest, and the forest.  The forest is the longest run
    of last steps in which each step has at most one earlier neighbour
    inside the run, so its parts form a forest once the steps before it are
    placed.

    A forest step is (part, fixed, source, parent, leaves, inner), in the
    reverse of the plan's order.  fixed are its pinned neighbours and those
    placed before the forest.  A step with children and no fixed neighbour
    has its earlier forest neighbour as its source, whose domain cuts its
    own down, so that on a sparse graph no step is weighed at an index no
    placement reaches; source is -1 elsewhere.  The parent is that same
    neighbour, -1 at a root, except that a root with one child that has
    children becomes that child's leaf: a leaf costs one popcount per index
    of its parent, a step with children a pass over its own domain.  leaves
    and inner are a step's children without and with children of their
    own, and an inner child comes before its parent."""
    pos = {x: k for k, (x, _, _, _) in enumerate(steps)}
    s, worst = len(steps), -1  # the latest second free neighbour of a step >= s
    while s:
        free = sorted(pos[y] for y in steps[s - 1][1] if y in pos)
        worst = max([worst] + free[-2:-1])
        if worst >= s - 1:
            break
        s -= 1
    up = {x: next((y for y in nbrs if pos.get(y, -1) >= s), -1) for x, nbrs, _, _ in steps[s:]}
    kids = {x: [y for y in up if up[y] == x] for x in up}
    parent = dict(up)
    for x in up:
        if up[x] < 0 and len(kids[x]) == 1 and kids[kids[x][0]]:
            parent[x], parent[kids[x][0]] = kids[x][0], -1
    kids = {x: [y for y in parent if parent[y] == x] for x in parent}
    forest = []
    for x, nbrs, _, _ in reversed(steps[s:]):
        fixed = tuple(y for y in nbrs if pos.get(y, -1) < s)
        source = up[x] if kids[x] and not fixed else -1
        leaves = tuple(y for y in kids[x] if not kids[y])
        forest.append((x, fixed, source, parent[x], leaves, tuple(y for y in kids[x] if kids[y])))
    return steps[:s], tuple(forest)


def _extend(masks, steps, chosen: list[int], full: int) -> bool:
    """Can one plan component be placed, given the indices of the parts
    already placed in `chosen`?  On success `chosen` holds an index for each
    branching step; a step that no later step reads is only checked to have
    a candidate.

    At a dead end the walk steps back to the nearest branching step and
    tries it again with the candidates above its current index only.  The
    last branching step placed, `top`, keeps its untried candidates in a
    local, so retrying it reads no row; a branching step below it, reached
    once `top` has run out, reads its rows again.  A keyed step whose suffix
    failed is remembered by its key part's index (see _counting_steps), so
    a chain with no copy is not walked along every index sequence."""
    size = len(steps)
    failed = None  # tokens chosen[key] * size + k of the keyed steps that failed
    top, untried = -1, 0
    k, floor = 0, full
    while k < size:
        x, nbrs, branch, key = steps[k]
        if key >= 0 and failed and chosen[key] * size + k in failed:
            cand = 0
        else:
            cand = floor
            for y in nbrs:
                cand &= masks[y][chosen[y]][x]
        if cand:
            if branch:
                bit = cand & -cand
                chosen[x] = bit.bit_length() - 1
                top, untried = k, cand ^ bit
            k, floor = k + 1, full
            continue
        # steps k.. cannot be placed after the parts placed so far
        while True:
            if key >= 0:
                if failed is None:
                    failed = set()
                failed.add(chosen[key] * size + k)
            k -= 1
            while k >= 0 and not steps[k][2]:
                k -= 1
            if k < 0:
                return False
            if k != top:
                floor = full & -(2 << chosen[steps[k][0]])
                break
            if untried:
                bit = untried & -untried
                untried ^= bit
                chosen[steps[k][0]] = bit.bit_length() - 1
                k, floor = k + 1, full
                break
            # top has run out: its suffix failed too
            key, top = steps[k][3], -1
    return True


def _least(masks, steps, chosen: list[int], full: int) -> None:
    """Give each step of a placed plan component that no later step reads
    its least candidate, so that `chosen` holds a whole placement."""
    for x, nbrs, branch, _ in steps:
        if not branch:
            cand = full
            for y in nbrs:
                cand &= masks[y][chosen[y]][x]
            chosen[x] = (cand & -cand).bit_length() - 1


def _find(pattern: PatternGraph, n: int, masks) -> Optional[tuple[int, ...]]:
    """The lexicographically least copy, as 0-based indices by part.  One
    component places parts 0..v-1 in turn, each bounded by its lower
    neighbours, and _extend tries indices in ascending order, so the first
    copy it meets is the least once each part that no later part reads
    takes its least candidate."""
    steps = _counting_steps(
        [(x, tuple(y for y in adj if y < x), any(y > x for y in adj)) for x, adj in enumerate(pattern._adj0)]
    )
    chosen = [0] * pattern.vertex_count
    full = (1 << n) - 1
    if not _extend(masks, steps, chosen, full):
        return None
    _least(masks, steps, chosen, full)
    return tuple(chosen)


def _closes_copy(pattern: PatternGraph, n: int, masks, p: int, a: int, q: int, b: int) -> bool:
    """Does a partite copy run through slot (p, a)-(q, b), the slot being
    treated as present?  0-based; p and q must be adjacent in the pattern.
    Existence only, on the plan of pattern edge (p, q): one index list per
    call and nothing per search node."""
    chosen = [0] * pattern.vertex_count
    chosen[p] = a
    chosen[q] = b
    full = (1 << n) - 1
    for steps in pattern._plan(p, q)[0]:
        if not _extend(masks, steps, chosen, full):
            return False
    return True


def first_uncovered_slot(pattern: PatternGraph, n: int, masks, start: int = 0) -> Optional[int]:
    """The least slot index k >= start, in the order of host.ends0() and
    host.slots(), whose slot is not an edge (its mask bit is clear) and
    closes no copy when added, or None if every such non-edge closes one.
    Saturation and extra-saturation verdicts and the exact search's
    validity test are all this one scan.

    The slots (p, a)-(q, b), p < q, of one row (p, a, q) are contiguous in
    slot order.  The least non-edge b of a row not yet covered is searched
    pinned; if that search fails, b is the answer.  Otherwise the copy
    found, with each part that no later step reads at its least candidate,
    also runs through every b' that q's neighbours other than p all meet in
    it, and those slots are covered without a search.  So the scan runs at
    most one search per non-edge, and its answer is the one a per-slot scan
    gives."""
    full = (1 << n) - 1
    chosen = [0] * pattern.vertex_count
    k = 0  # the index of the current row's first slot
    for p, adj in enumerate(pattern._adj0):
        ups = [q for q in adj if q > p]
        width = n * len(ups)  # the slots of one vertex (p, a)
        if k + n * width <= start:
            k += n * width
            continue
        # the scan starts at the first vertex of part p with a slot >= start
        first = (start - k) // width if start > k else 0
        k += first * width
        for a in range(first, n):
            row = masks[p][a]
            chosen[p] = a
            for q in ups:
                todo = full & ~row[q]
                if k < start:
                    todo &= -1 << min(start - k, n)
                k += n
                while todo:
                    components, others = pattern._plan(p, q)
                    bit = todo & -todo
                    chosen[q] = bit.bit_length() - 1
                    for steps in components:
                        if not _extend(masks, steps, chosen, full):
                            return k - n + chosen[q]
                        _least(masks, steps, chosen, full)
                    cover = full
                    for x in others:
                        cover &= masks[x][chosen[x]][q]
                    todo &= ~(cover | bit)
    return None


def _count(masks, split, chosen: list[int], full: int) -> int:
    """In how many ways can one plan component be placed, given the indices
    of the parts already placed in `chosen`?  `split` is the steps before
    its forest and the forest (_cut_and_forest).  Each placement of the
    steps before the forest is tried in turn, and the forest's count under
    it (_forest_ways) added; a step that no later step reads is multiplied
    out by its candidate count, not tried.  Most components are all forest,
    and are counted without trying any candidate.

    The innermost open branching step `top` keeps, in locals, its untried
    candidates, the product `before` of the steps between it and the open
    branching step below it, and the `ways` counted through its candidates
    tried so far; the open steps below it are saved on `below`.  When `top`
    runs out of candidates it closes: its count, remembered by its key
    part's index if it has a key (see _counting_steps), is one result for
    the open step below."""
    steps, forest = split
    size = len(steps)
    memo = None  # made at the first keyed step that closes
    below = []
    top, untried, before, ways = -1, 0, 1, 0  # top -1: no step is open
    k, total = 0, 1
    while True:
        while k < size:
            x, nbrs, branch, key = steps[k]
            if key >= 0 and memo:
                known = memo.get(chosen[key] * size + k)
                if known is not None:
                    total *= known
                    break
            cand = full
            for y in nbrs:
                cand &= masks[y][chosen[y]][x]
            if not cand:
                total = 0
                break
            if branch:
                below.append((top, untried, before, ways))
                bit = cand & -cand
                chosen[x] = bit.bit_length() - 1
                top, untried, before, ways, total = k, cand ^ bit, total, 0, 1
            else:
                total *= cand.bit_count()
            k += 1
        else:
            total *= _forest_ways(masks, forest, chosen, full)
        # total counts the steps above top for top's current candidate
        while top >= 0:
            ways += total
            if untried:
                break
            key = steps[top][3]
            if key >= 0:
                if memo is None:
                    memo = {}
                memo[chosen[key] * size + top] = ways
            total = before * ways
            top, untried, before, ways = below.pop()
        if top < 0:
            return total
        bit = untried & -untried
        untried ^= bit
        chosen[steps[top][0]] = bit.bit_length() - 1
        k, total = top + 1, 1


def _forest_ways(masks, forest, chosen: list[int], full: int) -> int:
    """The placements of a component's forest once the parts before it are
    placed in `chosen`: a sum-product.  In the plan's order, a step's
    domain is the candidates its fixed neighbours' rows allow, cut down, if
    it has a source, to those that some index of the source's domain
    meets; an empty one means no placement.  Then, children first, a
    step with children weighs each index of its domain by the placements of
    its subtree with the step there: the product, over its children, of a
    leaf's candidates in that index's row or an inner child's weights
    summed over them.  The count is the product of the roots' weights."""
    dom = {}
    for x, fixed, source, _, _, _ in reversed(forest):
        d = full
        for y in fixed:
            d &= masks[y][chosen[y]][x]
        if source >= 0:
            rows, rest, reach = masks[source], dom[source], 0
            while rest and d & ~reach:
                bit = rest & -rest
                rest ^= bit
                reach |= rows[bit.bit_length() - 1][x]
            d &= reach
        if not d:
            return 0
        dom[x] = d
    weight, total = {}, 1
    for x, _, _, parent, leaves, inner in forest:
        d = dom[x]
        ways_x = d.bit_count()
        if leaves or inner:
            rows, w, rest, ways_x = masks[x], {}, d, 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                row = rows[bit.bit_length() - 1]
                ways = 1
                for y in leaves:
                    ways *= (row[y] & dom[y]).bit_count()
                for y in inner:
                    wy, m, t = weight[y], row[y] & dom[y], 0
                    while m:
                        b = m & -m
                        t += wy[b]
                        m ^= b
                    ways *= t
                if ways:
                    w[bit] = ways
                    ways_x += ways
                else:
                    d ^= bit
            weight[x] = w
        if not ways_x:
            return 0
        if parent < 0:
            total *= ways_x
        dom[x] = d
    return total


def _through(masks, plan, chosen: list[int], full: int) -> int:
    """Copies through the pinned slot in `chosen`: the product of the
    counts of the plan's components, which share no edge."""
    total = 1
    for split in plan:
        total *= _count(masks, split, chosen, full)
        if not total:
            return 0
    return total


def _sparsest_bundle(pattern: PatternGraph, masks) -> tuple[int, int]:
    """The pattern edge (p, q), 0-based, p < q, whose bundle holds the
    fewest edges, the least on a tie: the fewest slots to pin."""
    return min(
        ((i - 1, j - 1) for i, j in sorted(pattern.edges)),
        key=lambda e: sum(row[e[1]].bit_count() for row in masks[e[0]]),
    )


def count_partite_copies(G: PartiteGraph) -> int:
    """Exact number of partite copies of the pattern inside G."""
    pattern, n, masks = G.host.pattern, G.host.n, G._masks
    if not pattern.edges:
        return n ** pattern.vertex_count
    p, q = _sparsest_bundle(pattern, masks)
    plan = pattern._splits(p, q)
    chosen = [0] * pattern.vertex_count
    full = (1 << n) - 1
    total = 0
    for a, row in enumerate(masks[p]):
        chosen[p] = a
        bits = row[q]
        while bits:
            bit = bits & -bits
            chosen[q] = bit.bit_length() - 1
            total += _through(masks, plan, chosen, full)
            bits ^= bit
    return total


def has_partite_copy(G: PartiteGraph) -> bool:
    """Does G hold a partite copy?  Asks _closes_copy of the present slots
    of the sparsest bundle, and stops at the first that closes one."""
    pattern, n, masks = G.host.pattern, G.host.n, G._masks
    if not pattern.edges:
        return True
    p, q = _sparsest_bundle(pattern, masks)
    for a, row in enumerate(masks[p]):
        bits = row[q]
        while bits:
            bit = bits & -bits
            if _closes_copy(pattern, n, masks, p, a, q, bit.bit_length() - 1):
                return True
            bits ^= bit
    return False


def find_partite_copy(G: PartiteGraph) -> Optional[PartiteSelection]:
    """The lexicographically least partite copy of the pattern in G, if any."""
    got = _find(G.host.pattern, G.host.n, G._masks)
    if got is None:
        return None
    return PartiteSelection(tuple(a + 1 for a in got))


def selection_carries_pattern(G: PartiteGraph, sel: PartiteSelection) -> bool:
    """Does this one-vertex-per-part choice carry every pattern edge of G?"""
    pattern = G.host.pattern
    if len(sel.indices) != pattern.vertex_count:
        raise ValueError("selection length does not match the pattern")
    for a in sel.indices:
        if not (1 <= a <= G.host.n):
            raise ValueError(f"selection index {a} out of range 1..{G.host.n}")
    for i, j in pattern.edges:
        if not G.has_edge((i, sel.index_for(i)), (j, sel.index_for(j))):
            return False
    return True


def _through_ends(G: PartiteGraph, u, v) -> tuple[int, int, int, int]:
    u = PartiteVertex(*u)
    v = PartiteVertex(*v)
    if not G.host.is_allowed_slot(u, v):
        raise ValueError(f"{u}-{v} is not an allowed slot of this host")
    return u.part - 1, u.index - 1, v.part - 1, v.index - 1


def count_copies_through(G: PartiteGraph, u, v) -> int:
    """Copies that would run through slot (u, v), with that slot treated as
    present whether or not it is an edge of G.  On a non-edge this equals the
    copy-count increase caused by adding it."""
    p, a, q, b = _through_ends(G, u, v)
    chosen = [0] * G.host.pattern.vertex_count
    chosen[p] = a
    chosen[q] = b
    return _through(G._masks, G.host.pattern._splits(p, q), chosen, (1 << G.host.n) - 1)


def creates_copy_through(G: PartiteGraph, u, v) -> bool:
    """Existence version of count_copies_through, short-circuiting."""
    return _closes_copy(G.host.pattern, G.host.n, G._masks, *_through_ends(G, u, v))


# --------------------------------------------------------------------------
# degrees and pattern connectivity
# --------------------------------------------------------------------------


def degree(G: PartiteGraph, v) -> int:
    part, index = PartiteVertex(*v)
    if not (1 <= part <= G.host.pattern.vertex_count and 1 <= index <= G.host.n):
        raise ValueError(f"{part}.{index} is not a vertex of this host")
    return sum(m.bit_count() for m in G._masks[part - 1][index - 1])


def min_degree_per_part(G: PartiteGraph) -> list[int]:
    """Minimum degree within each part; entry k is for part k+1."""
    out = []
    for p in range(G.host.pattern.vertex_count):
        out.append(min(sum(m.bit_count() for m in G._masks[p][a]) for a in range(G.host.n)))
    return out


def cut_vertex_components(pattern: PatternGraph, v: int) -> int:
    """Number of connected components of the pattern with vertex v removed."""
    pattern._check_vertex(v)
    rest = [u for u in range(pattern.vertex_count) if u != v - 1]
    if not rest:
        return 0
    unseen = set(rest)
    components = 0
    while unseen:
        components += 1
        stack = [unseen.pop()]
        while stack:
            u = stack.pop()
            for w in pattern._adj0[u]:
                if w in unseen:
                    unseen.remove(w)
                    stack.append(w)
    return components


def is_two_connected(pattern: PatternGraph) -> bool:
    """Connected with no cut vertex.  A single edge counts as two-connected;
    a single vertex does not."""
    if pattern.vertex_count == 1:
        return False
    if not pattern.is_connected():
        return False
    if pattern.vertex_count == 2:
        return True
    return all(
        cut_vertex_components(pattern, v) == 1 for v in pattern.vertices
    )
