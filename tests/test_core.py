import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satblow import (
    BlowupHost,
    PartiteGraph,
    PartiteSelection,
    PartiteVertex,
    PatternGraph,
    VerdictStatus,
    blow_up,
    count_copies_through,
    count_partite_copies,
    creates_copy_through,
    cut_vertex_components,
    degree,
    find_partite_copy,
    greedy_extra_saturate,
    greedy_saturate,
    has_partite_copy,
    is_extra_saturated,
    is_partite_saturated,
    is_two_connected,
    min_degree_per_part,
    selection_carries_pattern,
    tree_exsat_construction,
)
from satblow.core import _closes_copy, first_uncovered_slot
from oracles import (
    brute_count,
    brute_count_through,
    brute_find,
    per_slot_first_uncovered,
    ref_edge_set,
    ref_masks,
)


# ---------------------------------------------------------------------------
# pattern graphs


def test_named_patterns_have_expected_shape():
    assert PatternGraph.complete(4).edge_count() == 6
    assert PatternGraph.path(5).edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
    assert PatternGraph.cycle(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    assert PatternGraph.star(3).edges == frozenset({(1, 2), (1, 3), (1, 4)})


def test_pattern_rejects_bad_edges():
    with pytest.raises(ValueError):
        PatternGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        PatternGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        PatternGraph(3, [(0, 2)])


def test_pattern_accessors():
    H = PatternGraph.path(4)
    assert H.neighbors(2) == (1, 3)
    assert H.degree_of(1) == 1 and H.degree_of(2) == 2
    assert H.has_edge(3, 2) and not H.has_edge(1, 3)
    assert list(H.vertices) == [1, 2, 3, 4]
    assert H.is_connected() and H.is_tree()
    assert not PatternGraph.cycle(5).is_tree()
    assert not PatternGraph(4, [(1, 2), (3, 4)]).is_connected()


def test_two_connectivity():
    assert is_two_connected(PatternGraph.complete(3))
    assert is_two_connected(PatternGraph.complete(2))
    assert is_two_connected(PatternGraph.cycle(6))
    assert not is_two_connected(PatternGraph.path(4))
    assert not is_two_connected(PatternGraph.star(3))
    assert not is_two_connected(PatternGraph(4, [(1, 2), (3, 4)]))


def test_cut_vertex_components():
    assert cut_vertex_components(PatternGraph.path(4), 2) == 2
    assert cut_vertex_components(PatternGraph.path(4), 1) == 1
    assert cut_vertex_components(PatternGraph.star(4), 1) == 4
    assert cut_vertex_components(PatternGraph.cycle(5), 3) == 1


# ---------------------------------------------------------------------------
# hosts and partite graphs


def test_host_slot_inventory():
    host = BlowupHost(PatternGraph.complete(3), 4)
    assert host.total_vertices == 12
    assert host.slot_count() == 3 * 16
    slots = host.slots()
    assert len(slots) == host.slot_count()
    assert slots == tuple(sorted(slots))
    assert host.is_allowed_slot(PartiteVertex(1, 1), PartiteVertex(2, 4))
    assert not host.is_allowed_slot(PartiteVertex(1, 1), PartiteVertex(1, 2))


def test_partite_graph_rejects_foreign_slots():
    host = BlowupHost(PatternGraph.path(3), 2)
    with pytest.raises(ValueError):
        PartiteGraph(host, [((1, 1), (1, 2))])
    with pytest.raises(ValueError):
        PartiteGraph(host, [((1, 1), (3, 1))])  # parts 1,3 not pattern-adjacent
    with pytest.raises(ValueError):
        PartiteGraph(host, [((1, 1), (2, 3))])


EDGE_PATTERNS = (
    PatternGraph.path(3),
    PatternGraph.complete(3),
    PatternGraph.star(3),
    PatternGraph.cycle(4),
    PatternGraph(4, [(1, 3), (2, 3)]),  # part 4 isolated
)


def _random_edge(rng, host):
    """A pair of endpoints, usually an allowed slot, else out of range,
    inside one part or across parts that are not pattern-adjacent; either
    end first, fields now and then as strings, rarely not a number."""
    v, n = host.pattern.vertex_count, host.n
    roll = rng.random()
    if roll < 0.7:
        u, w = rng.choice(host.slots())
    elif roll < 0.8:
        u, w = (rng.randint(-1, v + 1), rng.randint(-1, n + 1)), (rng.randint(-1, v + 1), rng.randint(-1, n + 1))
    elif roll < 0.9:
        p = rng.randint(1, v)
        u, w = (p, rng.randint(1, n)), (p, rng.randint(1, n))
    else:
        p, q = rng.sample(range(1, v + 1), 2)
        u, w = (p, rng.randint(1, n)), (q, rng.randint(1, n))
    if rng.random() < 0.5:
        u, w = w, u
    if rng.random() < 0.1:
        u, w = tuple(map(str, u)), tuple(map(str, w))
    if rng.random() < 0.02:
        u = ("x", u[1])
    return (u, w)


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(40))
def test_partite_graph_build_matches_the_reference_rules(seed):
    """PartiteGraph's one-pass build against the PartiteVertex rules of
    oracles.ref_edge_set: the same edge set, or the same ValueError text;
    masks as the edge set gives them.  Inputs repeat edges, reverse them,
    give string fields and go out of range, into one part or across parts
    that are not adjacent."""
    rng = random.Random(seed)
    for _ in range(25):
        host = BlowupHost(rng.choice(EDGE_PATTERNS), rng.randint(1, 4))
        edges = [_random_edge(rng, host) for _ in range(rng.randint(0, 12))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))  # repeats
        rng.shuffle(edges)
        got = _outcome(lambda: PartiteGraph(host, edges))
        want = _outcome(lambda: ref_edge_set(host, edges))
        if isinstance(want, str):
            assert got == want
            continue
        assert got.edges == want
        assert got._masks == ref_masks(host, want)
        u, w = _random_edge(rng, host)
        assert _outcome(lambda: got.with_edge(u, w).edges) == _outcome(lambda: ref_edge_set(host, [*want, (u, w)]))


def test_partite_graph_edge_interface():
    host = BlowupHost(PatternGraph.complete(3), 2)
    g = PartiteGraph(host, [((1, 1), (2, 2))])
    assert g.edge_count() == 1
    assert g.has_edge((2, 2), (1, 1))
    g2 = g.with_edge(PartiteVertex(2, 2), PartiteVertex(3, 1))
    assert g2.edge_count() == 2 and g.edge_count() == 1
    assert g2.without_edge((1, 1), (2, 2)).edge_count() == 1
    non_edges = list(g.allowed_non_edges())
    assert len(non_edges) == host.slot_count() - 1
    assert non_edges == sorted(non_edges)


def test_full_blow_up_copy_count_is_power():
    for H, n in [(PatternGraph.complete(3), 2), (PatternGraph.path(4), 3)]:
        assert count_partite_copies(blow_up(H, n)) == n ** H.vertex_count


# ---------------------------------------------------------------------------
# frozen copy-count values, checked once against the oracle and kept


def test_path3_full_blowup_has_27_copies():
    G = blow_up(PatternGraph.path(3), 3)
    assert count_partite_copies(G) == 27
    assert brute_count(G) == 27


def test_path3_minus_one_slot_has_24_copies():
    G = blow_up(PatternGraph.path(3), 3).without_edge((1, 1), (2, 1))
    assert count_partite_copies(G) == 24
    assert brute_count(G) == 24


def test_triangle_full_blowup_n2_has_8_copies():
    G = blow_up(PatternGraph.complete(3), 2)
    assert count_partite_copies(G) == 8


# ---------------------------------------------------------------------------
# randomized agreement with the oracle


@st.composite
def pattern_graphs(draw, max_vertices=5, max_n=3):
    v = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = list(itertools.combinations(range(1, v + 1), 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs))
    )
    pattern = PatternGraph(v, edges)
    n = draw(st.integers(min_value=1, max_value=max_n))
    host = BlowupHost(pattern, n)
    chosen = draw(
        st.lists(st.sampled_from(host.slots()), unique=True, max_size=len(host.slots()))
    )
    return PartiteGraph(host, chosen)


@settings(max_examples=80, deadline=None)
@given(pattern_graphs())
def test_count_matches_brute_force(G):
    assert count_partite_copies(G) == brute_count(G)


@settings(max_examples=60, deadline=None)
@given(pattern_graphs(), st.data())
def test_count_through_matches_brute_force(G, data):
    slots = G.host.slots()
    u, v = data.draw(st.sampled_from(slots))
    assert count_copies_through(G, u, v) == brute_count_through(G, u, v)
    assert creates_copy_through(G, u, v) == (brute_count_through(G, u, v) > 0)


@settings(max_examples=60, deadline=None)
@given(pattern_graphs(), st.data())
def test_adding_any_slot_never_loses_copies(G, data):
    non_edges = [s for s in G.host.slots() if not G.has_edge(*s)]
    if not non_edges:
        return
    u, v = data.draw(st.sampled_from(non_edges))
    before = count_partite_copies(G)
    after = count_partite_copies(G.with_edge(u, v))
    assert after >= before
    assert after - before == count_copies_through(G, u, v)


@settings(max_examples=80, deadline=None)
@given(pattern_graphs())
def test_find_returns_the_lex_least_copy(G):
    copy = find_partite_copy(G)
    assert (None if copy is None else copy.indices) == brute_find(G)


@settings(max_examples=60, deadline=None)
@given(pattern_graphs())
def test_find_has_and_carry_agree(G):
    copy = find_partite_copy(G)
    assert has_partite_copy(G) == (copy is not None)
    assert (count_partite_copies(G) > 0) == (copy is not None)
    if copy is not None:
        assert selection_carries_pattern(G, copy)


# The six-part path and cycle have steps that _extend remembers by one
# earlier part's index; the spider with legs 2, 2, 1 and the 4-cycle with a
# pendant path have steps whose outcome depends on two earlier parts.
SIX_PART_PATTERNS = [
    PatternGraph.path(6),
    PatternGraph.cycle(6),
    PatternGraph(6, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6)]),
    PatternGraph(6, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6)]),
]

# Patterns whose rows the saturation scan must get right: an isolated part,
# two disjoint edges beside an isolated part, and a hub whose index is the
# largest, so that it is the q-end of every row of its bundles.
ROW_SCAN_PATTERNS = [
    PatternGraph(4, [(1, 2), (2, 3), (1, 3)]),
    PatternGraph(5, [(1, 2), (3, 4)]),
    PatternGraph(4, [(4, 1), (4, 2), (4, 3), (1, 2)]),
]

# The patterns the pinned search is checked on: K2 (an empty plan), paths,
# a cycle, a clique, a star, two components, and the above.
PINNED_PATTERNS = [
    PatternGraph.complete(2),
    PatternGraph.path(3),
    PatternGraph.path(4),
    PatternGraph.cycle(4),
    PatternGraph.complete(4),
    PatternGraph.star(3),
    PatternGraph(5, [(1, 2), (3, 4), (4, 5)]),
    *ROW_SCAN_PATTERNS,
    *SIX_PART_PATTERNS,
]


@st.composite
def pinned_graphs(draw):
    pattern = draw(st.sampled_from(PINNED_PATTERNS))
    n = draw(st.integers(min_value=1, max_value=3))
    host = BlowupHost(pattern, n)
    chosen = draw(
        st.lists(st.sampled_from(host.slots()), unique=True, max_size=len(host.slots()))
    )
    return PartiteGraph(host, chosen)


@settings(max_examples=80, deadline=None)
@given(pinned_graphs())
def test_closes_copy_matches_brute_force_on_every_slot(G):
    host = G.host
    for (u, v), (p, a, q, b) in zip(host.slots(), host.ends0()):
        want = brute_count_through(G, u, v) > 0
        assert _closes_copy(host.pattern, host.n, G._masks, p, a, q, b) == want
        assert _closes_copy(host.pattern, host.n, G._masks, q, b, p, a) == want


@st.composite
def dense_pinned_graphs(draw):
    """Like pinned_graphs, but each slot is kept with probability 1/2 by a
    seeded generator, so graphs are about half full and counts vary from
    slot to slot (hypothesis-drawn slot lists are mostly short)."""
    pattern = draw(st.sampled_from(PINNED_PATTERNS))
    n = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    host = BlowupHost(pattern, n)
    return PartiteGraph(host, [s for s in host.slots() if rng.random() < 0.5])


def assert_through_counts_match_brute_force(G):
    for u, v in G.host.slots():
        want = brute_count_through(G, u, v)
        assert count_copies_through(G, u, v) == want
        assert count_copies_through(G, v, u) == want


@settings(max_examples=80, deadline=None)
@given(dense_pinned_graphs())
def test_count_through_matches_brute_force_on_every_slot(G):
    assert_through_counts_match_brute_force(G)


def assert_scans_match_brute_force(G):
    """The row scan and the per-slot scan, from every start, against the
    non-edges brute force finds uncovered; and both verdicts' witnesses."""
    host = G.host
    pattern, n, masks = host.pattern, host.n, G._masks
    uncovered = [
        k
        for k, (u, v) in enumerate(host.slots())
        if not G.has_edge(u, v) and brute_count_through(G, u, v) == 0
    ]
    for start in range(host.slot_count() + 1):
        want = next((k for k in uncovered if k >= start), None)
        assert per_slot_first_uncovered(pattern, n, masks, start) == want
        assert first_uncovered_slot(pattern, n, masks, start) == want
    least = host.slots()[uncovered[0]] if uncovered else None
    assert is_extra_saturated(G).witness == least
    if brute_count(G) == 0:
        assert is_partite_saturated(G).witness == least


@settings(max_examples=80, deadline=None)
@given(st.one_of(pinned_graphs(), dense_pinned_graphs()))
def test_row_scan_matches_brute_force_from_every_start(G):
    assert_scans_match_brute_force(G)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("H", [*ROW_SCAN_PATTERNS, PatternGraph.complete(4), PatternGraph.cycle(6)], ids=repr)
def test_row_scan_on_greedy_fills_and_one_edge_less(H, seed):
    # random graphs mostly stop at their first non-edge; on a saturated
    # graph every row is scanned, and with one edge taken out that slot at
    # least is left uncovered, since the fill is free
    for fill in (greedy_saturate, greedy_extra_saturate):
        G = fill(PartiteGraph(BlowupHost(H, 3)), seed)
        assert_scans_match_brute_force(G)
        u, v = random.Random(seed).choice(G.sorted_edges())
        assert_scans_match_brute_force(G.without_edge(u, v))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("H", SIX_PART_PATTERNS, ids=repr)
def test_count_through_on_half_full_six_part_graphs(H, seed):
    # where the forests have inner steps and steps with two fixed
    # neighbours: at n = 3 every slot of an edge is counted, not just some
    # slots of drawn graphs
    rng = random.Random(seed)
    host = BlowupHost(H, 3)
    assert_through_counts_match_brute_force(
        PartiteGraph(host, [s for s in host.slots() if rng.random() < 0.5])
    )


@settings(max_examples=60, deadline=None)
@given(dense_pinned_graphs())
def test_count_matches_brute_force_on_pinned_patterns(G):
    assert count_partite_copies(G) == brute_count(G)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_of_an_edgeless_pattern_is_every_selection(n):
    G = PartiteGraph(BlowupHost(PatternGraph(3, []), n))
    assert count_partite_copies(G) == n ** 3 == brute_count(G)


class _CountingMasks:
    """Mask rows that count how often a search reads one."""

    def __init__(self, masks):
        self.masks, self.reads = masks, 0

    def __getitem__(self, part):
        self.reads += 1
        return self.masks[part]


def _triangle_chain(k):
    """k triangles in a row, (v0, a1, v1), (v1, a2, v2), ...: v_i is part
    i + 1 and a_i is part k + 1 + i."""
    edges = [((i, i + 1), (i, k + 1 + i), (i + 1, k + 1 + i)) for i in range(1, k + 1)]
    return PatternGraph(2 * k + 1, itertools.chain(*edges))


@pytest.mark.parametrize(
    "H, p, q",
    [
        # pinned at parts 2 and 3, the rest is a tree hanging off part 1
        (SIX_PART_PATTERNS[2], 2, 3),
        # pinned at parts 1 and 2, the rest is the path 3-4-5-6
        (SIX_PART_PATTERNS[0], 1, 2),
        # pinned at v0 and a1, only the last two triangles' parts are a
        # forest; the count of the steps before it from each triangle on
        # depends on the index of the v placed before it alone
        (_triangle_chain(6), 1, 8),
    ],
)
def test_pinned_count_reads_polynomially_many_rows(H, p, q):
    n = 6
    G = blow_up(H, n)
    G._masks = masks = _CountingMasks(G._masks)
    assert count_copies_through(G, (p, 1), (q, 1)) == n ** (H.vertex_count - 2)
    # trying every index of the last three placed parts in turn reads > n^3
    # rows, and the triangle chain's steps before its forest without their
    # memo read about n^8; the sum-product reads each forest part's rows
    # once per index, and the memoised walk each part's once per index of
    # the part its count depends on (v * n^2 is n^3 at six parts)
    assert masks.reads < H.vertex_count * n**2


@pytest.mark.parametrize("H", PINNED_PATTERNS, ids=repr)
def test_search_plans_place_every_part_and_check_every_edge_once(H):
    for i, j in H.edges:
        p, q = i - 1, j - 1
        plan, others = H._plan(p, q)
        assert H._plan(q, p)[0] is plan
        assert set(others) == set(H._adj0[q]) - {p}
        assert all(plan)  # no empty component, so K2's plan is empty
        steps = [step for component in plan for step in component]
        assert sorted(x for x, _, _, _ in steps) == sorted(set(range(H.vertex_count)) - {p, q})
        placed = {p, q}
        checked = set()
        for component in plan:
            for k, (x, nbrs, branch, key) in enumerate(component):
                assert set(nbrs) <= placed and set(nbrs) == placed & set(H._adj0[x])
                checked |= {frozenset((x, y)) for y in nbrs}
                placed.add(x)
                # a key is a free part placed earlier in the component that
                # this step or a later one reads
                later = component[k:]
                assert key == -1 or (
                    key in [y for y, _, _, _ in component[:k]]
                    and any(key in ys for _, ys, _, _ in later)
                )
        assert checked | {frozenset((p, q))} == {frozenset((a - 1, b - 1)) for a, b in H.edges}
        for k, (x, _, branch, _) in enumerate(steps):
            assert branch == any(x in nbrs for _, nbrs, _, _ in steps[k + 1 :])


# Patterns for the counting splits.  K5, K4 with a pendant triangle, the
# octahedron K(2,2,2) and the last pattern have pinned components that are
# not forests, so a count tries each placement of the steps before the
# forest; the diamond and K4 beside a part with no edges have none.  Pinned
# at parts 1 and 2, the last pattern has part 4 before its forest, which no
# later step reads, so the walk multiplies it out by its candidate count.
CUTSET_PATTERNS = [
    PatternGraph.complete(5),
    PatternGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    PatternGraph(6, [*itertools.combinations(range(1, 5), 2), (4, 5), (4, 6), (5, 6)]),
    PatternGraph(5, itertools.combinations(range(1, 5), 2)),
    PatternGraph(6, [(a, b) for a, b in itertools.combinations(range(1, 7), 2) if b != a + 3]),
    PatternGraph(7, [(1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (6, 7), (5, 7)]),
]


@pytest.mark.parametrize("H", [*PINNED_PATTERNS, *CUTSET_PATTERNS, _triangle_chain(4)], ids=repr)
def test_counting_splits_are_a_minimal_cutset_and_a_forest(H):
    adj = H._adj0
    for i, j in H.edges:
        p, q = i - 1, j - 1
        plan, splits = H._plan(p, q)[0], H._splits(p, q)
        assert H._splits(q, p) is splits and len(splits) == len(plan)
        for steps, (before, forest) in zip(plan, splits):
            # the steps before the forest are a prefix of the plan's, and
            # the forest is the rest, children before parents
            s = len(before)
            assert before == steps[:s]
            tail = {x for x, *_ in steps[s:]}
            placed = {x: nbrs for x, nbrs, _, _ in steps}
            assert [x for x, *_ in forest] == [x for x, *_ in reversed(steps[s:])]
            # in the forest each step has at most one earlier neighbour
            earlier = {x: [y for y in nbrs if y in tail] for x, nbrs, _, _ in steps[s:]}
            assert all(len(ys) <= 1 for ys in earlier.values())
            # and no longer tail is a forest
            assert s == 0 or any(
                sum(y in tail or y == steps[s - 1][0] for y in nbrs) > 1 for _, nbrs, _, _ in steps[s - 1 :]
            )
            # the parent links are every pattern edge inside the forest
            links = {frozenset((x, parent)) for x, _, _, parent, _, _ in forest if parent >= 0}
            assert links == {frozenset((x, y)) for x in tail for y in adj[x] if y in tail}
            up = {x: parent for x, _, _, parent, _, _ in forest}
            parts = [x for x, *_ in forest]
            for k, (x, fixed, source, parent, leaves, inner) in enumerate(forest):
                # each step's other neighbours are its pinned and earlier parts
                assert set(fixed) == set(adj[x]) - tail == set(placed[x]) - set(earlier[x])
                children = {y for y in tail if up[y] == x}
                assert set(leaves) | set(inner) == children
                assert all(y not in up.values() for y in leaves)
                assert set(inner) <= set(parts[:k]) and all(y in up.values() for y in inner)
                # a step with children and no fixed neighbour is cut down by
                # its earlier forest neighbour, whose domain is set first
                assert source == (earlier[x][0] if children and not fixed and earlier[x] else -1)
                # a root with one neighbour has no grandchildren
                if parent < 0 and len(children) == 1:
                    assert not any(up[y] in children for y in tail)


class _CountingRows(_CountingMasks):
    """Mask rows that count how often a search reads the row of one vertex."""

    def __getitem__(self, part):
        return _CountedPart(self, self.masks[part])


class _CountedPart:
    def __init__(self, owner, rows):
        self.owner, self.rows = owner, rows

    def __getitem__(self, index):
        self.owner.reads += 1
        return self.rows[index]


def test_sparse_counts_read_no_row_of_an_unreachable_index():
    # n disjoint copies of P5: pinned at an edge, the parts with no pinned
    # neighbour have every index in their domain, and weighing each would
    # read n rows per count, about n^2 in all
    n = 200
    G = tree_exsat_construction(PatternGraph.path(5), n)
    G._masks = masks = _CountingRows(G._masks)
    assert count_partite_copies(G) == n
    assert all(count_copies_through(G, u, v) == 1 for u, v in G.edges)
    assert masks.reads < 40 * len(G.edges)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("H", CUTSET_PATTERNS, ids=repr)
def test_cutset_counts_match_brute_force_on_every_slot(H, seed):
    rng = random.Random(seed)
    for n in (2, 3):
        host = BlowupHost(H, n)
        for density in (0.4, 0.7, 0.9):
            G = PartiteGraph(host, [s for s in host.slots() if rng.random() < density])
            assert count_partite_copies(G) == brute_count(G)
            assert_through_counts_match_brute_force(G)


@pytest.mark.parametrize("L, n", [(1500, 1), (2048, 2)])
def test_long_paths_answer_in_closed_form(L, n):
    # no copy search keeps a frame per part, so no chain is too long for it
    G = blow_up(PatternGraph.path(L), n)
    assert count_partite_copies(G) == n**L
    assert find_partite_copy(G).indices == (1,) * L
    assert has_partite_copy(G)
    for p in (1, L // 2, L - 1):
        assert count_copies_through(G, (p, n), (p + 1, 1)) == n ** (L - 2)
        assert creates_copy_through(G, (p + 1, 1), (p, n))
    # the saturation scan compiles the plan of an edge only at a non-edge
    assert is_partite_saturated(G).status is VerdictStatus.NOT_FREE
    assert is_extra_saturated(G).ok


def _path_with_an_isolated_last_part(L, n):
    """path(L)[n] less every slot of the bundle to part L."""
    host = BlowupHost(PatternGraph.path(L), n)
    return PartiteGraph(host, [(u, v) for u, v in host.slots() if v.part != L])


@pytest.mark.parametrize("L, n", [(1500, 1), (2048, 2)])
def test_long_paths_with_an_isolated_last_part_have_no_copy(L, n):
    G = _path_with_an_isolated_last_part(L, n)
    assert count_partite_copies(G) == 0
    assert find_partite_copy(G) is None and not has_partite_copy(G)
    assert count_copies_through(G, (1, 1), (2, n)) == 0
    assert not creates_copy_through(G, (1, 1), (2, n))
    # a slot of the empty bundle closes a copy through every other part
    assert count_copies_through(G, (L - 1, 1), (L, n)) == n ** (L - 2)
    assert creates_copy_through(G, (L, n), (L - 1, 1))
    # every non-edge sits in the empty last bundle, and one search covers
    # each of its rows
    assert is_partite_saturated(G).ok
    assert is_extra_saturated(G).ok


def test_chain_searches_with_no_copy_read_polynomially_many_rows():
    # every index sequence along parts 3..11 is 3^9 partial paths: without
    # the memo of failed keyed steps each search reads tens of thousands of rows
    L, n = 12, 3
    G = _path_with_an_isolated_last_part(L, n)
    pattern = G.host.pattern
    for graph, search in (
        (G, lambda G: creates_copy_through(G, (1, 1), (2, 1))),
        (G, lambda G: find_partite_copy(G) is not None),
        # the first non-edge, slot 0, closes no copy: the scan stops there
        (G.without_edge((1, 1), (2, 1)), lambda G: first_uncovered_slot(pattern, n, G._masks) != 0),
        # the scan of G itself searches once per row of the last bundle
        (G, lambda G: first_uncovered_slot(pattern, n, G._masks) is not None),
    ):
        saved = graph._masks
        graph._masks = masks = _CountingMasks(saved)
        assert not search(graph)
        graph._masks = saved
        assert masks.reads < L * n**3


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("H", SIX_PART_PATTERNS, ids=repr)
def test_sparse_six_part_graphs_match_brute_force_at_n4(H, seed):
    # sparse enough that keyed steps fail and are met again, both in the
    # pinned searches and in the unpinned find
    rng = random.Random(seed)
    host = BlowupHost(H, 4)
    G = PartiteGraph(host, [s for s in host.slots() if rng.random() < 0.4])
    assert count_partite_copies(G) == brute_count(G)
    copy = find_partite_copy(G)
    assert (None if copy is None else copy.indices) == brute_find(G)
    for (u, v), (p, a, q, b) in zip(host.slots(), host.ends0()):
        want = brute_count_through(G, u, v)
        assert count_copies_through(G, u, v) == count_copies_through(G, v, u) == want
        assert _closes_copy(H, 4, G._masks, p, a, q, b) == (want > 0)
        assert _closes_copy(H, 4, G._masks, q, b, p, a) == (want > 0)


def test_host_ends0_follow_the_slots():
    host = BlowupHost(PatternGraph(4, [(3, 4), (1, 3), (1, 2)]), 2)
    assert host.slots() == tuple(sorted(host.slots()))
    assert host.ends0() == tuple(
        (u.part - 1, u.index - 1, v.part - 1, v.index - 1) for u, v in host.slots()
    )


def test_find_returns_least_selection():
    G = blow_up(PatternGraph.path(3), 3)
    copy = find_partite_copy(G)
    assert copy == PartiteSelection((1, 1, 1))


# ---------------------------------------------------------------------------
# degrees


def test_degree_and_min_degree_per_part():
    host = BlowupHost(PatternGraph.complete(3), 2)
    g = PartiteGraph(host, [((1, 1), (2, 1)), ((1, 1), (3, 2)), ((2, 1), (3, 2))])
    assert degree(g, PartiteVertex(1, 1)) == 2
    assert degree(g, PartiteVertex(1, 2)) == 0
    assert min_degree_per_part(g) == [0, 0, 0]
    full = blow_up(PatternGraph.complete(3), 2)
    assert min_degree_per_part(full) == [4, 4, 4]


def test_selection_access():
    sel = PartiteSelection.from_mapping({1: 2, 2: 1, 3: 3})
    assert sel.index_for(2) == 1
    assert sel.to_mapping() == {1: 2, 2: 1, 3: 3}
    assert sel.vertices() == (
        PartiteVertex(1, 2),
        PartiteVertex(2, 1),
        PartiteVertex(3, 3),
    )
