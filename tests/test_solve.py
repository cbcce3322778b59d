import itertools
import math
import random
import subprocess
import sys
import time

import pytest

from satblow import (
    BlowupHost,
    PartiteGraph,
    PatternGraph,
    clique_exsat_edges,
    greedy_extra_saturate,
    greedy_saturate,
    is_extra_saturated,
    is_partite_saturated,
    kr_sat_bounds,
    m_value,
    min_exsat_exact,
    min_sat_exact,
    saturation_lower_bound,
    star_saturation_edges,
    tree_exsat_edges,
)
from satblow import mvalue, solve, symmetry
from satblow.formats import parse_pattern
from oracles import (
    brute_automorphisms,
    brute_closes,
    brute_copy_masks,
    brute_degree_floor,
    brute_free_set_counts,
    brute_is_lex_leader,
    brute_m_cliques,
    brute_m_feasible,
    brute_m_free_set_counts,
    brute_m_group,
    brute_m_sets,
    brute_m_slots,
    brute_min_exsat,
    brute_min_sat,
    brute_need,
    brute_reach,
    brute_slot_group,
    brute_threshold,
    brute_valid_sets,
)


def _empty(pattern, n):
    return PartiteGraph(BlowupHost(pattern, n))


# ---------------------------------------------------------------------------
# greedy samplers


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_greedy_saturate_output_is_saturated(seed):
    for H, n in [(PatternGraph.complete(3), 3), (PatternGraph.path(4), 2)]:
        G = greedy_saturate(_empty(H, n), seed)
        assert is_partite_saturated(G).ok


@pytest.mark.parametrize("seed", [0, 5])
def test_greedy_extra_saturate_output(seed):
    for H, n in [(PatternGraph.complete(3), 2), (PatternGraph.star(3), 2)]:
        G = greedy_extra_saturate(_empty(H, n), seed)
        assert is_extra_saturated(G).ok


def test_greedy_is_deterministic_per_seed():
    H = PatternGraph.complete(3)
    assert greedy_saturate(_empty(H, 4), 9) == greedy_saturate(_empty(H, 4), 9)


def test_greedy_saturate_rejects_non_free_input():
    from satblow import blow_up

    with pytest.raises(ValueError):
        greedy_saturate(blow_up(PatternGraph.complete(3), 2), 0)


def test_greedy_extends_its_input():
    H = PatternGraph.complete(3)
    seedling = _empty(H, 3).with_edge((1, 1), (2, 1))
    G = greedy_saturate(seedling, 2)
    assert set(seedling.edges) <= set(G.edges)


def _edge_string(G):
    return " ".join(f"{u.part}{u.index}-{v.part}{v.index}" for u, v in sorted(G.edges))


@pytest.mark.parametrize(
    "kind, H, n, seed, edges",
    [
        (
            "sat",
            PatternGraph.complete(3),
            3,
            0,
            "11-21 11-23 11-31 11-33 12-22 12-32 13-21 13-23 13-31 13-33"
            " 21-32 22-31 22-33 23-32",
        ),
        (
            "sat",
            PatternGraph.path(4),
            3,
            7,
            "11-22 11-23 12-22 12-23 13-22 13-23 21-31 21-32 21-33"
            " 31-41 31-42 31-43 32-41 32-42 32-43 33-41 33-42 33-43",
        ),
        (
            "sat",
            PatternGraph.cycle(4),
            2,
            1,
            "11-21 11-22 11-41 11-42 12-21 12-22 12-41 12-42 21-31 22-31 32-41 32-42",
        ),
        ("sat", PatternGraph(4, [(1, 2), (2, 3)]), 2, 4, "11-22 12-22 21-31 21-32"),
        (
            "exsat",
            PatternGraph.star(3),
            2,
            5,
            "11-21 11-22 11-31 11-32 12-21 12-22 12-41 12-42",
        ),
        (
            "exsat",
            PatternGraph.path(3),
            4,
            3,
            "11-21 11-22 12-21 12-22 13-21 13-22 14-21 14-22"
            " 23-31 23-32 23-33 23-34 24-31 24-32 24-33 24-34",
        ),
        (
            "exsat",
            PatternGraph.complete(3),
            3,
            11,
            "11-21 11-22 11-23 11-31 12-31 12-32 12-33 13-21 13-22 13-23 13-31"
            " 21-32 21-33 22-32 22-33 23-32 23-33",
        ),
    ],
)
def test_greedy_graphs_are_pinned(kind, H, n, seed, edges):
    """The exact search's upper bound is the edge set greedy fill builds
    for a seed, so these edge sets must not drift."""
    greedy = greedy_saturate if kind == "sat" else greedy_extra_saturate
    assert _edge_string(greedy(_empty(H, n), seed)) == edges


def test_greedy_fixpoint_on_saturated_input():
    G = greedy_saturate(_empty(PatternGraph.complete(3), 2), 0)
    assert greedy_saturate(G, 123) == G
    assert greedy_extra_saturate(G, 123) == G


# ---------------------------------------------------------------------------
# lower bound


def test_saturation_lower_bound_values():
    K3 = PatternGraph.complete(3)
    assert saturation_lower_bound(K3, 2) == 6
    assert saturation_lower_bound(K3, 3) == 9
    assert saturation_lower_bound(PatternGraph.cycle(4), 3) == 12
    assert saturation_lower_bound(PatternGraph.complete(2), 7) == 0
    assert saturation_lower_bound(PatternGraph.path(4), 5) == 10


def test_saturation_lower_bound_gives_the_tree_values():
    """(v(T) - 1) n, the exact extra-saturation value of a tree T, for the
    path on three vertices and the star with three leaves."""
    P3, star3 = PatternGraph.path(3), PatternGraph.star(3)
    for n in range(2, 8):
        assert saturation_lower_bound(P3, n) == tree_exsat_edges(P3, n) == 2 * n
    for n in (2, 3):
        assert saturation_lower_bound(star3, n) == tree_exsat_edges(star3, n) == 3 * n


def test_saturation_lower_bound_matches_enumeration():
    """The max-flow form against every half-integral weighting, on seeded
    random patterns of at most six vertices, some with isolated parts or
    parts of degree 1."""
    rng = random.Random(13)
    patterns = [
        PatternGraph(5, [(1, 2), (2, 3)]),  # two isolated parts
        PatternGraph(6, [(1, 2), (3, 4), (4, 5)]),
        PatternGraph.star(5),
    ]
    while len(patterns) < 150:
        v = rng.randint(2, 6)
        density = rng.random()
        edges = [e for e in itertools.combinations(range(1, v + 1), 2) if rng.random() < density]
        if edges:
            patterns.append(PatternGraph(v, edges))
    degrees = [H.degree_of(p) for H in patterns for p in H.vertices]
    assert 0 in degrees and 1 in degrees
    for H in patterns:
        for n in (1, 2, 3, 5):
            bound = saturation_lower_bound(H, n)
            assert bound == brute_degree_floor(H, n) >= 0, (H.edges, n)


def test_saturation_lower_bound_is_fast_on_long_patterns():
    """A `.pat` file may name 2 048 parts; the flow takes no enumeration."""
    for H, want in [(PatternGraph.path(2048), 4092), (PatternGraph.cycle(2048), 4096)]:
        start = time.monotonic()
        # y = 1/2 on every part: 2 046 (or 2 048) parts of demand 2, n = 2
        assert saturation_lower_bound(H, 2) == want
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# exact search against the subset-enumeration oracle


def test_exact_matches_brute_force_on_tiny_hosts():
    cases = [
        (PatternGraph.complete(2), 2),
        (PatternGraph.complete(3), 1),
        (PatternGraph.path(3), 2),
    ]
    for H, n in cases:
        assert min_sat_exact(H, n).value == brute_min_sat(H, n)
        assert min_exsat_exact(H, n).value == brute_min_exsat(H, n)


def test_exact_matches_brute_force_p4():
    H = PatternGraph.path(4)
    assert min_sat_exact(H, 2).value == brute_min_sat(H, 2)


# every pattern on at most four vertices with an edge, up to isomorphism
SMALL_PATTERNS = {
    "k2": PatternGraph.complete(2),
    "k2+k1": PatternGraph(3, [(1, 2)]),
    "p3": PatternGraph.path(3),
    "k3": PatternGraph.complete(3),
    "k2+2k1": PatternGraph(4, [(1, 2)]),
    "2k2": PatternGraph(4, [(1, 2), (3, 4)]),
    "p3+k1": PatternGraph(4, [(1, 2), (2, 3)]),
    "k3+k1": PatternGraph(4, [(1, 2), (1, 3), (2, 3)]),
    "p4": PatternGraph.path(4),
    "star3": PatternGraph.star(3),
    "c4": PatternGraph.cycle(4),
    "paw": PatternGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    "diamond": PatternGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    "k4": PatternGraph.complete(4),
}
# each n where the subset enumeration of the oracle ends within seconds: at
# most 18 slots (diamond[2] and k4[2], at 20 and 24, take about a minute)
DIFFERENTIAL_CASES = [
    (name, n)
    for name, H in SMALL_PATTERNS.items()
    for n in (1, 2, 3)
    if len(H.edges) * n * n <= 18
]


@pytest.mark.parametrize("name, n", DIFFERENTIAL_CASES)
@pytest.mark.parametrize("require_free", [True, False])
def test_exact_matches_brute_force_on_small_patterns(name, n, require_free):
    H = SMALL_PATTERNS[name]
    want = (brute_min_sat if require_free else brute_min_exsat)(H, n)
    assert saturation_lower_bound(H, n) <= want
    for prune in (True, False):
        for use_symmetry in (True, False):
            r = solve._exact_minimum(H, n, require_free, None, use_symmetry, 0, prune=prune)
            assert r.value == want, (prune, use_symmetry)


# ---------------------------------------------------------------------------
# frozen exact values


def test_min_sat_triangle():
    r = min_sat_exact(PatternGraph.complete(3), 2)
    assert r.value == 6
    assert r.witness.edge_count() == 6
    assert is_partite_saturated(r.witness).ok
    assert r.upper_bound == 6
    assert not r.exhausted_budget


def test_min_sat_star_equals_construction():
    for n in (2, 3):
        r = min_sat_exact(PatternGraph.star(2), n)
        assert r.value == n * n == star_saturation_edges(2, n)


def test_min_exsat_triangle():
    r = min_exsat_exact(PatternGraph.complete(3), 2)
    assert r.value == 6
    assert is_extra_saturated(r.witness).ok
    assert r.value < clique_exsat_edges(3, 2)


def test_min_exsat_tree_matches_construction_at_n2():
    r = min_exsat_exact(PatternGraph.path(3), 2)
    assert r.value == 4 == tree_exsat_edges(PatternGraph.path(3), 2)


def test_single_edge_pattern_needs_nothing():
    K2 = PatternGraph.complete(2)
    for n in (1, 2, 4):
        assert min_sat_exact(K2, n).value == 0
        assert min_exsat_exact(K2, n).value == 0


# ---------------------------------------------------------------------------
# symmetry handling


@pytest.mark.parametrize(
    "H",
    [
        PatternGraph.complete(2),
        PatternGraph.path(3),
        PatternGraph.star(2),
        PatternGraph.complete(3),
    ],
)
def test_isomorph_rejection_changes_nothing(H):
    a = min_sat_exact(H, 2)
    b = min_sat_exact(H, 2, use_symmetry=False)
    assert a.value == b.value
    assert a.witness == b.witness  # both are the least optimal witness
    c = min_exsat_exact(H, 2)
    d = min_exsat_exact(H, 2, use_symmetry=False)
    assert c.value == d.value
    assert c.witness == d.witness


@pytest.mark.parametrize(
    "H, n",
    [
        (PatternGraph.complete(2), 2),
        (PatternGraph.path(3), 2),
        (PatternGraph.star(2), 2),
        (PatternGraph.complete(3), 2),
        (PatternGraph.path(3), 3),
        (PatternGraph.path(4), 2),
        (PatternGraph.star(3), 2),
        (PatternGraph.complete(3), 3),
    ],
)
def test_pruning_changes_nothing(H, n):
    for require_free in (True, False):
        a = solve._exact_minimum(H, n, require_free, None, True, 0)
        b = solve._exact_minimum(H, n, require_free, None, True, 0, prune=False)
        assert a.value == b.value
        assert a.witness == b.witness  # both are the least optimal witness
        assert a.nodes_explored <= b.nodes_explored


def _group(H, n):
    return symmetry._symmetry_group(BlowupHost(H, n))


def _rows(group):
    """The group's rows decoded from its slot maps, one slot permutation
    per bit, in bit order."""
    L = len(group.maps)
    rows = [[None] * L for _ in range(group.everyone.bit_length())]
    for x, images in enumerate(group.maps):
        assert list(images) == sorted(images)
        for y, bits in images.items():
            assert 0 < bits <= group.everyone
            while bits:
                bit = bits & -bits
                bits ^= bit
                row = rows[bit.bit_length() - 1]
                assert row[x] is None  # each row sends x to one slot
                row[x] = y
    for x, images in enumerate(group.maps):
        assert group.below[x] == tuple((y, b) for y, b in images.items() if y < x)
    return [tuple(row) for row in rows]


@pytest.mark.parametrize(
    "H, n, pool",
    [
        (PatternGraph.complete(3), 2, "full"),
        (PatternGraph.path(3), 2, "full"),
        (PatternGraph.cycle(4), 2, "full"),
        (PatternGraph.star(3), 2, "full"),
        (PatternGraph(4, [(1, 2), (2, 3)]), 2, "full"),  # vertex 4 isolated
        (PatternGraph(3, [(1, 2)]), 2, "full"),
        (PatternGraph.complete(3), 3, "full"),
        (PatternGraph.complete(3), 5, "cyclic"),  # S_5 wr S_3 is over the caps
        (PatternGraph.complete(3), 1, "full"),
        (PatternGraph.complete(4), 1, "full"),
        (PatternGraph.path(3), 1, "full"),
        (PatternGraph.complete(2), 1, "full"),
        (PatternGraph(3, [(1, 2)]), 1, "full"),
    ],
)
def test_group_table_is_the_symmetry_group(H, n, pool):
    want = brute_slot_group(H, n, pool)
    group = _group(H, n)
    if len(want) == 1:
        assert group is None  # acts trivially
        return
    rows = _rows(group)
    assert all(sorted(row) == list(range(len(row))) for row in rows)
    assert set(rows) == want
    assert len(rows) == len(brute_automorphisms(H)) * (
        len(list(itertools.permutations(range(n)))) if pool == "full" else n
    ) ** H.vertex_count


def test_group_maps_of_a_large_host():
    # 33 800 slots: only the pattern automorphisms fit the caps, and the maps
    # hold two images per slot, not a row per slot pair
    H, n = PatternGraph.path(3), 130
    want = brute_slot_group(H, n, "identity")
    group = _group(H, n)
    assert len(want) == 2 and set(_rows(group)) == want
    assert max(len(images) for images in group.maps) == 2


def _host_group(H, n):
    """_slot_group called as _symmetry_group calls it."""
    host = BlowupHost(H, n)
    auts = symmetry._pattern_automorphisms(H)
    return symmetry._slot_group([n] * H.vertex_count, auts, host.ends0())


def test_slot_group_keeps_the_maps_under_the_byte_cap():
    # C4[7]: the cyclic group's maps would take 196 * 196 * 19 208 bits
    # (88 MiB), so only the pattern automorphisms are held
    group = _host_group(PatternGraph.cycle(4), 7)
    assert (group.pool, group.everyone.bit_count()) == ("automorphisms", 8)
    # K3[4] keeps the full group: 48 * 48 * 82 944 bits (22.8 MiB)
    group = _host_group(PatternGraph.complete(3), 4)
    assert (group.pool, group.everyone.bit_count()) == ("full", 82_944)


def test_slot_group_of_a_large_m_split_falls_to_cyclic_shifts():
    # S_9 has 362 880 elements, over the row cap: the split takes the 9
    # shifts of its large part, and is built before counting any 9! rows
    start = time.monotonic()
    group = mvalue._MPartition((1,) * 8 + (9,), 3).group
    assert time.monotonic() - start < 0.5
    assert (group.pool, group.everyone.bit_count()) == ("cyclic", 9)
    assert mvalue._MPartition((1,) * 7 + (8,), 3).group.pool == "full"
    assert mvalue._MPartition((1,) * 5, 3).group is None


def _leader(group, chosen):
    """The _Leader of a lex leader, built one slot at a time from the root."""
    state = symmetry._root_leader(group)
    for d in range(1, len(chosen) + 1):
        state = symmetry._child_leader(group, state, chosen[:d])
    return state


def _random_lex_leader(rows, L, k, rng):
    chosen = rng.sample(range(L), k)
    return min(tuple(sorted(g[x] for x in chosen)) for g in rows)


# pool "m" stands for the group of the m-value search on parts of sizes H
LEX_CASES = [
    (PatternGraph.complete(3), 2, "full"),
    (PatternGraph.complete(3), 3, "full"),
    (PatternGraph.path(4), 2, "full"),
    (PatternGraph.cycle(4), 2, "full"),
    (PatternGraph.complete(4), 2, "full"),
    (PatternGraph.star(3), 2, "full"),
    (PatternGraph.complete(3), 5, "cyclic"),  # the full group is too big
    ((1, 2, 2), None, "m"),
    ((2, 2, 3), None, "m"),
    ((1, 1, 4), None, "m"),
]


def _lex_group(H, n, pool):
    """The group under test, and its rows as an oracle builds them."""
    if pool == "m":
        return mvalue._MPartition(H, 3).group, brute_m_group(H)
    return _group(H, n), brute_slot_group(H, n, pool)


@pytest.mark.parametrize("H, n, pool", LEX_CASES)
def test_canonical_extensions_match_brute_force(H, n, pool):
    group, rows = _lex_group(H, n, pool)
    rows = sorted(rows)
    L = len(rows[0])
    rng = random.Random(L)
    for trial in range(60):
        parent = _random_lex_leader(rows, L, rng.randrange(min(L, 9)), rng)
        exts = list(range(parent[-1] + 1 if parent else 0, L))
        want = [s for s in exts if brute_is_lex_leader(rows, parent + (s,))]
        leader = _leader(group, parent)
        assert [s for s in exts if leader.admits(group, s)] == want, parent


@pytest.mark.parametrize("H, n, pool", LEX_CASES)
def test_admits_matches_brute_force(H, n, pool):
    """The per-child test the exact search runs, asked about a random
    ascending subset of the extension slots of each _Leader, so that its
    cursor over the slots between tests skips some."""
    group, rows = _lex_group(H, n, pool)
    rows = sorted(rows)
    L = len(rows[0])
    rng = random.Random(L + 2)
    for trial in range(60):
        parent = _random_lex_leader(rows, L, rng.randrange(min(L, 9)), rng)
        leader = _leader(group, parent)
        for s in range(parent[-1] + 1 if parent else 0, L):
            if rng.random() < 0.6:
                want = brute_is_lex_leader(rows, parent + (s,))
                assert leader.admits(group, s) == want, (parent, s)


@pytest.mark.parametrize("H, n, pool", LEX_CASES)
def test_leader_classes_match_brute_thresholds(H, n, pool):
    """Each row sits in the class of its threshold, or among the fixed rows,
    at every depth of a lex leader built slot by slot, so every tie outcome
    handed from parent to child is checked too."""
    group, want = _lex_group(H, n, pool)
    rows = _rows(group)
    assert set(rows) == want and len(rows) == len(want)
    L = len(rows[0])
    rng = random.Random(L + 1)
    for trial in range(12):
        leader = _random_lex_leader(rows, L, rng.randrange(1, min(L, 10)), rng)
        state = symmetry._root_leader(group)
        for d in range(1, len(leader) + 1):
            chosen = leader[:d]
            state = symmetry._child_leader(group, state, chosen)
            classes = dict(zip(state.thr, state.cls))
            for r, g in enumerate(rows):
                t = brute_threshold(g, chosen)
                bits = state.fixed if t is None else classes.get(t, 0)
                assert bits >> r & 1, (chosen, r)
                images = {g[x] for x in chosen}
                assert all((state.held(y) >> r & 1) == (y in images) for y in range(L))
            assert sum(c.bit_count() for c in state.cls) + state.fixed.bit_count() == len(rows)


def _orbit_census(group, L, copies):
    """Walk the lex-leader tree of the slot sets that hold none of `copies`
    (ints over L slots), with no cut that depends on the slot order.  Each
    canonical set C stands for its orbit of |G| / |Stab(C)| sets, read from
    the popcounts of everyone and of its _Leader's fixed rows; returns their
    sum at each size."""
    census = [0] * (L + 1)
    stack = [((), 0, symmetry._root_leader(group))]
    while stack:
        chosen, mask, leader = stack.pop()
        everyone, fixed = group.everyone.bit_count(), leader.fixed.bit_count()
        assert everyone % fixed == 0
        census[len(chosen)] += everyone // fixed
        free = [
            s
            for s in range(chosen[-1] + 1 if chosen else 0, L)
            if not brute_closes(copies, mask, s)
        ]
        for s in free:
            if not leader.admits(group, s):
                continue
            child = chosen + (s,)
            stack.append((child, mask | 1 << s, symmetry._child_leader(group, leader, child)))
    return census


@pytest.mark.parametrize(
    "H, n",
    [
        (PatternGraph.complete(3), 2),
        (PatternGraph.cycle(4), 2),
        (PatternGraph.path(3), 3),
        (PatternGraph.star(3), 2),
    ],
)
def test_orbit_census_counts_every_labelled_free_set(H, n):
    """At every size the orbit sizes of the canonical partite-free sets must
    add up to the number of labelled partite-free sets: the filter keeps
    exactly one set per orbit (the double-counting check of Kaski and
    Ostergard)."""
    host = BlowupHost(H, n)
    group = symmetry._symmetry_group(host)
    census = _orbit_census(group, len(host.slots()), brute_copy_masks(H, n))
    assert census == brute_free_set_counts(H, n)


@pytest.mark.parametrize("sizes, s", [((2, 2, 2), 3), ((1, 2, 3), 3), ((1, 2, 2, 2), 4)])
def test_orbit_census_counts_every_labelled_clique_free_set(sizes, s):
    """The census above on the group of an m-value split: one canonical
    K_s-free set per orbit of index permutations within the parts."""
    group = mvalue._MPartition(sizes, s).group
    cliques = [c for masks in brute_m_cliques(sizes, s).values() for c in masks]
    census = _orbit_census(group, len(brute_m_slots(sizes)), cliques)
    assert census == brute_m_free_set_counts(sizes, s)


def test_numpy_is_not_imported():
    code = "import sys, satblow, satblow.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "kind, H, n, value, nodes, witness",
    [
        (
            "sat",
            PatternGraph.complete(3),
            2,
            6,
            55,
            "11-21 11-31 12-22 12-32 21-32 22-31",
        ),
        (
            "sat",
            PatternGraph.cycle(4),
            2,
            8,
            407,
            "11-21 11-41 12-22 12-42 21-31 22-32 31-42 32-41",
        ),
        (
            "exsat",
            PatternGraph.path(3),
            3,
            6,
            61,
            "11-21 11-22 11-23 21-31 22-31 23-31",
        ),
        (
            "sat",
            PatternGraph.complete(4),
            2,
            16,
            40171,
            "11-21 11-22 11-31 11-41 12-21 12-22 12-32 12-42"
            " 21-31 21-42 22-32 22-41 31-41 31-42 32-41 32-42",
        ),
    ],
)
def test_exact_search_is_pinned(kind, H, n, value, nodes, witness):
    """The same canonical sets, hence the same node count and the same
    least witness, whatever form the lex-leader test takes.  Run with the
    over-bound and uncoverable cuts off, so that the node count is set by
    the lex-leader filter and the walk's bound alone."""
    r = solve._exact_minimum(H, n, kind == "sat", None, True, 0, prune=False)
    assert (r.value, r.nodes_explored) == (value, nodes)
    assert _edge_string(r.witness) == witness


@pytest.mark.parametrize(
    "kind, H, n, value, nodes, witness",
    [
        ("sat", PatternGraph.complete(3), 2, 6, 25, "11-21 11-31 12-22 12-32 21-32 22-31"),
        (
            "sat",
            PatternGraph.cycle(4),
            2,
            8,
            56,
            "11-21 11-41 12-22 12-42 21-31 22-32 31-42 32-41",
        ),
        ("exsat", PatternGraph.path(3), 3, 6, 19, "11-21 11-22 11-23 21-31 22-31 23-31"),
        (
            "sat",
            PatternGraph.complete(4),
            2,
            16,
            278,
            "11-21 11-22 11-31 11-41 12-21 12-22 12-32 12-42"
            " 21-31 21-42 22-32 22-41 31-41 31-42 32-41 32-42",
        ),
        (
            "sat",
            PatternGraph.cycle(4),
            3,
            15,
            2562,
            "11-21 11-22 11-41 12-21 12-23 12-42 13-22 13-23 13-43"
            " 21-31 22-32 23-33 31-43 32-42 33-41",
        ),
        (
            "exsat",
            PatternGraph.complete(3),
            3,
            12,
            729,
            "11-21 11-22 11-31 11-32 12-23 12-33 13-23 13-33 21-33 22-33 23-31 23-32",
        ),
    ],
)
def test_pruned_search_is_pinned(kind, H, n, value, nodes, witness):
    """The default search, with every cut on: the witnesses are the ones the
    unpruned search finds (the first four are pinned above with prune off),
    from far fewer nodes."""
    solver = min_sat_exact if kind == "sat" else min_exsat_exact
    r = solver(H, n)
    assert (r.value, r.nodes_explored) == (value, nodes)
    assert _edge_string(r.witness) == witness


def test_exact_witness_is_rechecked_from_the_definition(monkeypatch):
    # a coverage scan that calls every graph covered makes the search stop
    # at its first candidate; the re-check runs the verdict's own scan
    monkeypatch.setattr(solve, "first_uncovered_slot", lambda *args: None)
    for solver in (min_sat_exact, min_exsat_exact):
        with pytest.raises(RuntimeError, match="fails"):
            solver(PatternGraph.complete(3), 2)


def test_lower_bound_of_exact_results_is_the_value():
    r = min_sat_exact(PatternGraph.complete(3), 3)
    assert r.value == r.lower_bound == r.upper_bound == 12
    assert min_sat_exact(PatternGraph.complete(2), 3).lower_bound == 0


def test_lower_bound_of_an_unknown_is_proven_and_below_the_upper_bound():
    H, n = PatternGraph.complete(3), 4
    r = min_sat_exact(H, n, budget=0.5)
    assert r.value is None
    assert saturation_lower_bound(H, n) <= r.lower_bound <= r.upper_bound


def test_value_and_witness_ignore_the_greedy_seed():
    H = PatternGraph.complete(3)
    a = min_sat_exact(H, 2, seed=0)
    b = min_sat_exact(H, 2, seed=99)
    assert a.value == b.value and a.witness == b.witness


@pytest.mark.parametrize(
    "H, n",
    [
        (PatternGraph.complete(3), 2),
        (PatternGraph.cycle(4), 2),
        (PatternGraph.path(3), 3),
        (PatternGraph.path(4), 2),
        (PatternGraph.star(3), 2),
        (PatternGraph.path(3), 4),
    ],
)
def test_witness_ignores_the_starting_incumbent(H, n):
    """The greedy seed sets the walk's first incumbent and so its first
    bound, never the value or the witness."""
    for require_free in (True, False):
        want = solve._exact_minimum(H, n, require_free, None, True, 0, prune=False)
        for seed in (0, 7, 99):
            for prune in (True, False):
                r = solve._exact_minimum(H, n, require_free, None, True, seed, prune=prune)
                assert (r.value, r.witness) == (want.value, want.witness), (seed, prune)
                assert r.stats["improvements"][0]["size"] == _greedy_size(H, n, seed)


def _greedy_size(H, n, seed):
    return solve._greedy_fill(_empty(H, n), seed).edge_count()


# ---------------------------------------------------------------------------
# budgets


def test_budget_exhaustion_returns_upper_bound():
    r = min_sat_exact(PatternGraph.complete(4), 3, budget=0.15)
    assert r.value is None
    assert r.exhausted_budget
    assert r.upper_bound == r.witness.edge_count()
    assert is_partite_saturated(r.witness).ok


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize(
    "H, n, value", [(PatternGraph.complete(3), 4, 18), (PatternGraph.cycle(4), 3, 15)]
)
def test_budgeted_solve_returns_on_time(prune, H, n, value):
    for budget in (0.05, 0.2, 0.5):
        start = time.monotonic()
        r = solve._exact_minimum(H, n, True, budget, True, 0, prune=prune)
        assert time.monotonic() - start <= budget + 0.25
        if r.value is not None:  # a fast host may prove sat C4[3] in time
            assert r.value == r.lower_bound == value
            continue
        assert r.exhausted_budget
        # proven from the walk's open frames, and verified
        assert saturation_lower_bound(H, n) <= r.lower_bound <= value <= r.upper_bound


class _TickClock:
    """A stand-in for the time module whose clock advances one second per
    reading, so a budget of k stops the walk before its (k + 1)-th child."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize(
    "require_free, H, n",
    [
        (True, PatternGraph.complete(3), 2),
        (True, PatternGraph.cycle(4), 2),
        (True, PatternGraph.path(4), 2),
        (True, PatternGraph.star(3), 2),
        (False, PatternGraph.path(3), 3),
        (False, PatternGraph.star(3), 2),
        (False, PatternGraph.complete(3), 2),
    ],
)
@pytest.mark.parametrize("prune", [True, False])
def test_unknown_bounds_hold_wherever_the_walk_stops(require_free, H, n, prune, monkeypatch):
    """Stop the walk before every third of its children in turn: each UNKNOWN
    brackets the optimum (checked against the subset-enumeration oracle by
    test_exact_matches_brute_force_on_small_patterns), its witness is the
    incumbent, and its stats still account for every candidate."""
    want = solve._exact_minimum(H, n, require_free, None, True, 0).value
    lb = saturation_lower_bound(H, n)
    monkeypatch.setattr(solve, "time", _TickClock())
    above_lb = 0
    for k in itertools.count(0, 3):
        r = solve._exact_minimum(H, n, require_free, k, True, 0, prune=prune)
        _check_stats(r)
        if r.value is not None:
            assert r.value == want
            break
        assert lb <= r.lower_bound <= want <= r.upper_bound == r.witness.edge_count()
        assert r.upper_bound == r.stats["improvements"][-1]["size"]
        if lb == want:
            assert r.lower_bound == want  # the floor alone proves the optimum
        above_lb += r.lower_bound > max(lb, 1)
    if prune and lb < want:
        assert above_lb > 0  # the open frames' bound does more than the floor


@pytest.mark.parametrize("prune", [True, False])
def test_budget_is_kept_within_a_parent(prune, monkeypatch):
    # Without symmetry the root has 9 children, each flipped in and out; at
    # 60 ms per slot flipped in, expanding it takes over half a second.  The
    # deadline is checked before each child too, so the search stops within
    # a child (60 ms) of it.  Flips that take slots out are left fast: the
    # UNKNOWN's lower bound takes the path out of the masks after the
    # deadline, one flip per slot.
    flip = solve._SlotSystem.flip

    def slow_flip(self, masks, slots):
        p, a, q, b = self.ends0[(slots & -slots).bit_length() - 1]
        if slots and not masks[p][a][q] >> b & 1:
            time.sleep(0.06)
        flip(self, masks, slots)

    monkeypatch.setattr(solve._SlotSystem, "flip", slow_flip)
    budget = 0.1
    start = time.monotonic()
    r = solve._exact_minimum(PatternGraph.complete(4), 3, True, budget, False, 0, prune=prune)
    assert time.monotonic() - start <= budget + 0.15
    assert r.value is None and r.exhausted_budget
    _check_stats(r)


# ---------------------------------------------------------------------------
# search statistics


def _check_stats(r):
    levels = r.stats["levels"]
    assert [row["level"] for row in levels] == list(range(len(levels)))
    assert levels[0]["candidates"] == levels[0]["admitted"] == 1
    assert levels[0]["expanded"] == min(1, len(levels) - 1)
    for row in levels:
        assert set(row["cuts"]) == set(solve._CUT_REASONS)
        assert row["candidates"] == row["admitted"] + sum(row["cuts"].values()), row
        assert 0 <= row["expanded"] <= row["admitted"]
    for prev, row in zip(levels, levels[1:]):
        assert prev["expanded"] > 0  # a size is only reached from an expanded set
    sizes = [step["size"] for step in r.stats["improvements"]]
    assert sizes == sorted(set(sizes), reverse=True)  # strictly decreasing
    assert [step["nodes"] for step in r.stats["improvements"]][0] == 0
    assert sum(row["admitted"] for row in levels) == r.nodes_explored
    assert 0 <= r.stats["floor"] <= r.lower_bound <= r.upper_bound
    assert r.stats["cuts"] == {
        reason: sum(row["cuts"][reason] for row in levels) for reason in solve._CUT_REASONS
    }
    phases = r.stats["phases"]
    assert list(phases) == ["greedy", "group", "walk", "recheck"]
    assert all(t >= 0 for t in phases.values())
    assert sum(phases.values()) <= r.elapsed + 1e-5  # each is rounded to a microsecond


@pytest.mark.parametrize(
    "require_free, H, n",
    [
        (True, PatternGraph.complete(3), 2),
        (True, PatternGraph.cycle(4), 2),
        (True, PatternGraph.path(4), 2),
        (False, PatternGraph.path(3), 3),
        (False, PatternGraph.complete(3), 2),
        (False, PatternGraph.path(4), 2),
    ],
)
@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("use_symmetry", [True, False])
def test_stats_account_for_every_candidate(require_free, H, n, prune, use_symmetry):
    r = solve._exact_minimum(H, n, require_free, None, use_symmetry, 0, prune=prune)
    _check_stats(r)
    levels, cuts = r.stats["levels"], r.stats["cuts"]
    L = len(BlowupHost(H, n).slots())
    improvements = r.stats["improvements"]
    assert r.stats["floor"] == saturation_lower_bound(H, n)
    # a walk that meets an optimum equal to its floor stops there; any other
    # walk tries every child of the root
    full = improvements[-1]["size"] > r.stats["floor"]
    if full:
        assert levels[1]["candidates"] == L  # every slot extends the root
    assert improvements[-1]["size"] == r.value
    assert improvements[0]["size"] == _greedy_size(H, n, 0)
    if not require_free:
        assert cuts["not_free"] == 0
    if not use_symmetry:
        assert cuts["not_canonical"] == 0
    if not prune:
        assert cuts["uncoverable"] == cuts["over_bound"] == 0
    elif full:
        assert cuts["uncoverable"] > 0


def test_stats_of_an_unknown_account_for_every_candidate():
    r = min_sat_exact(PatternGraph.complete(4), 3, budget=0.15)
    assert r.value is None
    _check_stats(r)


def test_stats_of_a_trivial_search():
    r = min_sat_exact(PatternGraph.complete(2), 3)
    assert r.value == 0
    _check_stats(r)
    assert len(r.stats["levels"]) == 1
    assert r.stats["group"] == {"pool": None, "rows": 0} and r.stats["leaders"] == 0
    assert r.stats["phases"]["group"] == r.stats["phases"]["walk"] == 0


@pytest.mark.parametrize(
    "H, n, pool, rows",
    [
        (PatternGraph.complete(3), 2, "full", 2**3 * 6),
        (PatternGraph.path(3), 3, "full", 6**3 * 2),
        (PatternGraph.complete(3), 5, "cyclic", 5**3 * 6),
        (PatternGraph.cycle(4), 7, "automorphisms", 8),
    ],
)
def test_stats_name_the_group(H, n, pool, rows):
    """The pool and row count of the group the lex-leader test ran on, and
    one _Leader derivation at most per expanded set."""
    for use_symmetry in (True, False):
        r = min_sat_exact(H, n, budget=0.3, use_symmetry=use_symmetry)
        _check_stats(r)
        if not use_symmetry:
            assert r.stats["group"] == {"pool": None, "rows": 0} and r.stats["leaders"] == 0
            continue
        assert r.stats["group"] == {"pool": pool, "rows": rows}
        expanded = sum(row["expanded"] for row in r.stats["levels"])
        assert 1 <= r.stats["leaders"] <= expanded


# ---------------------------------------------------------------------------
# every cut against enumerated completions


CUT_CASES = [
    PatternGraph.complete(3),
    PatternGraph.cycle(4),
    PatternGraph.path(4),
    PatternGraph.star(3),
    PatternGraph.path(3),
]


def _random_prefix(copies, L, require_free, rng):
    """A random slot set (free, for saturation), as a sorted tuple."""
    order = rng.sample(range(L), L)
    chosen, size = 0, rng.randrange(1, L // 2 + 2)
    for y in order[:size]:
        if require_free and brute_closes(copies, chosen, y):
            continue
        chosen |= 1 << y
    return tuple(y for y in range(L) if chosen >> y & 1)


def _descend(sys_, masks, frame, s):
    """Add s to the set masks holds, and build the child's frame from its
    parent's with the walk's own pieces, as cut builds it when it keeps the
    child (a random prefix goes on through children the walk would cut)."""
    sys_.flip(masks, 1 << s)
    left = sys_.settled_uncovered(masks, frame, s)
    lack = sys_.child_lack(masks, frame, left, s)
    return solve._Frame(left, sys_.child_open(masks, frame, s), lack, s + 1)


def _probe(frame):
    """A copy of a frame, to ask about children past the next one the walk
    takes: a frame is only ever moved up."""
    return solve._Frame(frame.uncovered, frame.open_, frame.lack[:], frame.upto)


def _start(sys_, H, n):
    """The walk's state at its root: the graph, the root frame and the
    graph of the uncoverable tests."""
    masks = solve._empty_masks(H.vertex_count, n)
    return masks, sys_.root(masks), [solve._empty_masks(H.vertex_count, n), 0]


@pytest.mark.parametrize("require_free", [True, False])
@pytest.mark.parametrize("H", CUT_CASES)
def test_cuts_never_drop_a_completable_prefix(H, require_free):
    """Walk random prefixes slot by slot through the search's own
    incremental state.  Whenever a cut fires, no completion (a valid set
    agreeing with the prefix up to its last slot) exists, or none within
    the bound; the bundle-need bound never exceeds the edges a completion
    still needs; and the carried slot sets equal their definitions."""
    n = 2
    host = BlowupHost(H, n)
    L = len(host.slots())
    copies = brute_copy_masks(H, n)
    valid = brute_valid_sets(H, n, require_free)

    def least_completion(chosen, top):
        # fewest slots above top that make chosen valid, or None
        low = (1 << top + 1) - 1
        sizes = [(D ^ chosen).bit_count() for D in valid if D & low == chosen]
        return min(sizes, default=None)

    sys_ = solve._SlotSystem(host)
    rng = random.Random(L + require_free)
    fired = dict.fromkeys((*solve._CUT_REASONS, "siblings"), 0)
    for trial in range(150):
        prefix = _random_prefix(copies, L, require_free, rng)
        masks, frame, stand = _start(sys_, H, n)
        chosen = 0
        for m, s in enumerate(prefix, 1):
            child = _descend(sys_, masks, frame, s)
            left, later = child.uncovered, child.open_
            parent, chosen = chosen, chosen | 1 << s
            assert left == sum(
                1 << y
                for y in range(s)
                if not chosen >> y & 1 and not brute_closes(copies, chosen, y)
            )
            assert later == sum(
                1 << z for z in range(s + 1, L) if not brute_closes(copies, chosen, z)
            )
            least = least_completion(chosen, s)
            done = chosen in valid
            if least is not None and not done:
                assert max(1, sys_.total(child.lack)) <= least, prefix[:m]
                # a bound that admits the least completion keeps the prefix
                verdict = sys_.cut(masks, stand, require_free, frame, parent, left, s, m + least)
                assert verdict[0] is None
                kept = verdict[1]
                assert (kept.uncovered, kept.open_, kept.lack) == (left, later, child.lack)
            for ub in range(m, m + 6):
                reason = sys_.cut(masks, stand, require_free, frame, parent, left, s, ub)[0]
                if reason is not None:
                    fired[reason] += 1
                    assert done or least is None or m + least > ub, (prefix[:m], reason, ub)
            reason, _, siblings = sys_.cut(masks, stand, require_free, frame, parent, left, s, L + m)
            if siblings:
                # the sibling-wide cut: no later sibling completes either
                fired["siblings"] += 1
                assert reason == "uncoverable"
                for t in range(s + 1, L):
                    assert least_completion(parent | 1 << t, t) is None, (prefix[:m], t)
            if not require_free:  # the child's own test ran on the same graph
                assert siblings == (reason == "uncoverable")
            frame = child
    assert fired["uncoverable"] > 0 and fired["over_bound"] > 0 and fired["siblings"] > 0, fired


@pytest.mark.parametrize("require_free", [True, False])
@pytest.mark.parametrize("H", CUT_CASES)
def test_uncoverable_cut_drops_every_child_past_an_isolated_needy_vertex(H, require_free):
    """A vertex v whose part has pattern degree at least two is isolated in
    no valid graph.  Once v is isolated in a set P and its last slot lies
    below a child's slot t, every slot at v is settled for P + (t,) and,
    with no edge at v in any completion, closes no copy there: the
    uncoverable cut drops the child, and its sibling-wide form every later
    sibling, so the walk needs no cut of its own for isolated vertices."""
    degree = [0] * H.vertex_count
    for p, q in H.edges:
        degree[p - 1] += 1
        degree[q - 1] += 1
    checked = 0
    for n in (2, 3):
        host = BlowupHost(H, n)
        L = len(host.slots())
        last = {}  # the last slot at each vertex whose part needs two edges
        for k, (p, a, q, b) in enumerate(host.ends0()):
            for x in ((p, a), (q, b)):
                if degree[x[0]] >= 2:
                    last[x] = k
        copies = brute_copy_masks(H, n)
        sys_ = solve._SlotSystem(host)
        rng = random.Random(3 * L + require_free)
        for trial in range(40):
            prefix = _random_prefix(copies, L, require_free, rng)
            masks, frame, stand = _start(sys_, H, n)
            chosen, top = 0, -1
            for m, s in enumerate(prefix, 1):
                isolated = [k for (p, a), k in last.items() if not any(masks[p][a])]
                if isolated:
                    for t in range(max(top, min(isolated)) + 1, L):
                        if require_free and not frame.open_ >> t & 1:
                            continue  # not free: the walk never makes this child
                        sys_.flip(masks, 1 << t)
                        left = sys_.settled_uncovered(masks, frame, t)
                        verdict = sys_.cut(
                            masks, stand, require_free, frame, chosen, left, t, L + m
                        )
                        sys_.flip(masks, 1 << t)
                        assert verdict[0] == "uncoverable" and verdict[2], (prefix[: m - 1], t)
                        checked += 1
                frame = _descend(sys_, masks, frame, s)
                chosen, top = chosen | 1 << s, s
    assert checked > 0


@pytest.mark.parametrize("require_free", [True, False])
@pytest.mark.parametrize("H", CUT_CASES)
def test_reach_never_passes_a_completion(H, require_free):
    """The over-bound bound of a set P at its child t, m + max(1, the need
    of the slots settled for it), drops every remaining child of P at once,
    and bounds an UNKNOWN from below: at every set P of a random prefix and
    every t above its last slot, as the walk's frame keeps it and as
    brute_reach finds it from its definition, it never exceeds the size of
    a valid set that extends P through a child P + (s,) with s >= t."""
    n = 2
    host = BlowupHost(H, n)
    L = len(host.slots())
    copies = brute_copy_masks(H, n)
    valid = brute_valid_sets(H, n, require_free)
    sys_ = solve._SlotSystem(host)
    rng = random.Random(2 * L + require_free)
    checked = beyond_one = 0
    for trial in range(100):
        prefix = _random_prefix(copies, L, require_free, rng)
        masks, frame, _ = _start(sys_, H, n)
        chosen, top = 0, -1
        for m, s in enumerate(prefix):
            low = (1 << top + 1) - 1
            above = [D for D in valid if D & low == chosen and D != chosen]
            probe = _probe(frame)
            for t in range(top + 1, L):
                reach = m + max(1, sys_.settle(masks, probe, t))
                assert reach == brute_reach(host, masks, frame.uncovered, frame.open_, t, m)
                sizes = [D.bit_count() for D in above if (D ^ chosen) & (1 << t) - 1 == 0]
                if sizes:
                    assert reach <= min(sizes), (prefix[:m], t)
                    checked += 1
                    beyond_one += reach > m + 1
            frame = _descend(sys_, masks, frame, s)
            chosen, top = chosen | 1 << s, s
    assert checked > 0 and beyond_one > 0, (checked, beyond_one)


@pytest.mark.parametrize("require_free", [True, False])
@pytest.mark.parametrize("name, n", DIFFERENTIAL_CASES)
def test_walk_state_matches_its_definitions(name, n, require_free):
    """What the walk derives for a child from its parent's frame, checked
    at every child of every set of random prefixes against values built
    afresh: the bundle-need bound of the frame's sets, the graph the
    uncoverable tests ran on, and the lazily read rows held(y) of each
    _Leader on a random lex leader."""
    H = SMALL_PATTERNS[name]
    host = BlowupHost(H, n)
    L = len(host.slots())
    copies = brute_copy_masks(H, n)
    sys_ = solve._SlotSystem(host)
    rng = random.Random(5 * L + require_free)

    def graph(slots):
        masks = solve._empty_masks(H.vertex_count, n)
        sys_.flip(masks, slots)
        return masks

    def every_vertex(masks, settled):
        # the bundle-need sets with the rule run at every vertex
        lack = [0] * 2 * len(sys_.bundles)
        sys_.relack(masks, settled, lack, (1 << len(sys_.need_at)) - 1)
        return lack

    checked = 0
    for trial in range(20):
        prefix = _random_prefix(copies, L, require_free, rng)
        masks, frame, stand = _start(sys_, H, n)
        chosen = 0
        for m, s in enumerate(prefix, 1):
            probe = _probe(frame)
            for t in range(frame.upto, L):
                if require_free and not frame.open_ >> t & 1:
                    continue
                settled = frame.uncovered | frame.open_ & (1 << t) - 1
                # the frame moved up to t, and the child derived from it
                # before or after the move
                assert sys_.settle(masks, probe, t) == brute_need(host, masks, settled)
                assert probe.lack == every_vertex(masks, settled)
                sys_.flip(masks, 1 << t)
                left = sys_.settled_uncovered(masks, frame, t)
                lack = sys_.child_lack(masks, frame, left, t)
                assert lack == sys_.child_lack(masks, probe, left, t)
                assert lack == every_vertex(masks, left)
                assert sys_.total(lack) == brute_need(host, masks, left)
                was = stand[1]
                reason, _, siblings = sys_.cut(
                    masks, stand, require_free, frame, chosen, left, t, L + m
                )
                # the graph of the last uncoverable test: P + (t,) and the
                # child's open slots, or, for the sibling-wide test of
                # saturation, P and its open slots from t on; for
                # extra-saturation, P and every slot from t on
                if not left:
                    assert stand[1] == was
                elif not require_free:
                    assert stand[1] == chosen | (1 << L) - (1 << t)
                elif reason == "uncoverable":
                    assert stand[1] == chosen | frame.open_ >> t << t
                else:
                    assert stand[1] == chosen | 1 << t | sys_.child_open(masks, frame, t)
                assert stand[0] == graph(stand[1])
                sys_.flip(masks, 1 << t)
                checked += 1
            frame = _descend(sys_, masks, frame, s)
            chosen |= 1 << s
    # saturation leaves no child when every slot closes a copy on its own
    assert checked > 0 or require_free and not _start(sys_, H, n)[1].open_

    group = symmetry._symmetry_group(host)
    if group is None:
        return
    rows = _rows(group)
    for trial in range(10):
        leader = _random_lex_leader(rows, L, rng.randrange(1, L + 1), rng)
        state = symmetry._root_leader(group)
        for d in range(1, len(leader) + 1):
            state = symmetry._child_leader(group, state, leader[:d])
            if rng.random() < 0.5:
                continue  # left unread, so a later read walks further up
            for y in rng.sample(range(L), rng.randrange(L + 1)):
                want = 0
                for x in leader[:d]:
                    want |= group.maps[x].get(y, 0)
                assert state.held(y) == want, (leader[:d], y)


def _lowest(todo):
    """The next child a walk frame tries: the lowest slot of its untried set."""
    return (todo & -todo).bit_length() - 1


@pytest.mark.parametrize("require_free", [True, False])
# CUT_CASES less C4, whose 2^16 sets take seconds per stop without symmetry
@pytest.mark.parametrize(
    "H",
    [PatternGraph.complete(3), PatternGraph.path(4), PatternGraph.star(3), PatternGraph.path(3)],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_open_bound_never_passes_an_unmet_valid_set(H, require_free, seed, monkeypatch):
    """Without symmetry every slot set is a node, and the walk has met
    exactly the sets lexicographically below the child it was about to try.
    Stopped there, the bound of its open frames is the least, over the
    frames with a child left, of the frame's size plus max(1, the need of
    its settled slots below that child left uncovered, found from the copy
    list), and it does not exceed any valid set the walk has not met that
    would beat the incumbent."""
    n = 2
    host = BlowupHost(H, n)
    L = len(host.slots())
    copies = brute_copy_masks(H, n)
    valid = [
        (D.bit_count(), tuple(y for y in range(L) if D >> y & 1))
        for D in brute_valid_sets(H, n, require_free)
    ]
    sys_ = solve._SlotSystem(host)
    open_bound = solve._open_bound
    seen = []

    def recording(walk_sys, masks, path, stack):
        want = math.inf
        for d, todo in enumerate(frame.todo for frame in stack):
            if todo:
                chosen = sum(1 << y for y in path[:d])
                settled = sum(
                    1 << y
                    for y in range(_lowest(todo))
                    if not chosen >> y & 1 and not brute_closes(copies, chosen, y)
                )
                graph = solve._empty_masks(H.vertex_count, n)
                sys_.flip(graph, chosen)
                want = min(want, d + max(1, brute_need(host, graph, settled)))
        seen.append(tuple(path) + (_lowest(stack[-1].todo),))
        seen.append(open_bound(walk_sys, masks, path, stack))
        assert seen[-1] == want
        return seen[-1]

    monkeypatch.setattr(solve, "_open_bound", recording)
    monkeypatch.setattr(solve, "time", _TickClock())
    for k in itertools.count(0, 3):
        r = solve._exact_minimum(H, n, require_free, k, False, seed)
        if r.value is not None:
            break
        position, bound = seen[-2:]
        assert r.lower_bound == max(saturation_lower_bound(H, n), min(r.upper_bound, bound))
        unmet = [size for size, D in valid if size < r.upper_bound and D >= position]
        assert all(size >= bound for size in unmet), (k, position, bound)


@pytest.mark.parametrize(
    "require_free, H, n",
    [
        (True, PatternGraph.complete(3), 2),
        (True, PatternGraph.cycle(4), 2),
        (False, PatternGraph.path(3), 3),
        (False, PatternGraph.complete(3), 2),
    ],
)
def test_open_bound_is_taken_at_canonical_children(require_free, H, n, monkeypatch):
    """The walk tests a child for being a lex leader only when it reaches
    it, so before it bounds an UNKNOWN it moves each frame past the
    children the test rejects: the bound is then taken at the next child
    that could hold an unmet valid set, at every stop of the walk."""
    rows = sorted(brute_slot_group(H, n))
    open_bound = solve._open_bound
    nexts = []

    def recording(walk_sys, masks, path, stack):
        for d, frame in enumerate(stack):
            if frame.todo:
                nexts.append(tuple(path[:d]) + (_lowest(frame.todo),))
        return open_bound(walk_sys, masks, path, stack)

    monkeypatch.setattr(solve, "_open_bound", recording)
    monkeypatch.setattr(solve, "time", _TickClock())
    for k in itertools.count(0, 2):
        if solve._exact_minimum(H, n, require_free, k, True, 0).value is not None:
            break
    assert nexts and all(brute_is_lex_leader(rows, chosen) for chosen in nexts)


# ---------------------------------------------------------------------------
# multipartite witnesses


def _check_m_witness(result):
    w = result.witness
    assert sum(w.part_sizes) == result.value
    assert len(w.part_sizes) == result.r
    assert not w.has_clique(result.s)
    for parts in itertools.combinations(range(1, result.r + 1), result.s - 1):
        assert w.parts_have_transversal_clique(parts)


def test_m_3_3():
    result = m_value(3, 3)
    assert result.value == 4
    _check_m_witness(result)


def test_m_4_3():
    result = mvalue._m_search(4, 3, None, None, prune=False)
    assert result.value == 6
    assert result.nodes_explored == 622
    _check_m_witness(result)


def test_m_4_4():
    result = mvalue._m_search(4, 4, None, None, prune=False)
    assert result.value == 6
    assert result.nodes_explored == 387
    _check_m_witness(result)


def _m_edge_string(w):
    return " ".join(f"{p}{i}-{q}{j}" for (p, i), (q, j) in sorted(w.edges))


M_PINS = [
    (3, 3, 4, 11, (1, 1, 2), "11-21 11-31 21-32"),
    (4, 3, 6, 45, (1, 1, 2, 2), "11-21 11-31 11-41 21-32 21-42 31-42"),
    (
        4,
        4,
        6,
        75,
        (1, 1, 1, 3),
        "11-21 11-31 11-41 11-42 21-31 21-41 21-43 31-42 31-43",
    ),
    (
        5,
        3,
        8,
        136,
        (1, 1, 2, 2, 2),
        "11-21 11-31 11-41 11-51 21-32 21-42 21-52 31-42 31-52 32-41 32-51 41-52",
    ),
]


@pytest.mark.parametrize("r, s, value, nodes, sizes, witness", M_PINS)
def test_m_value_is_pinned(r, s, value, nodes, sizes, witness):
    """The default search, with the uncoverable cut on: the witnesses are
    the ones the search without it finds, from far fewer nodes."""
    result = m_value(r, s)
    assert (result.value, result.nodes_explored) == (value, nodes)
    assert result.witness.part_sizes == sizes
    assert _m_edge_string(result.witness) == witness
    _check_m_witness(result)


@pytest.mark.parametrize("r, s, value, nodes, sizes, witness", M_PINS[:3])
def test_m_value_reference_path_finds_the_same_witness(r, s, value, nodes, sizes, witness):
    result = mvalue._m_search(r, s, None, None, prune=False)
    assert result.value == value and result.nodes_explored > nodes
    assert result.witness.part_sizes == sizes
    assert _m_edge_string(result.witness) == witness
    assert result.stats["cuts"]["uncoverable"] == 0


@pytest.mark.parametrize("r, s, value", [(5, 4, 9), (5, 5, 8), (6, 3, 10)])
def test_m_value_beyond_the_old_reach(r, s, value):
    result = m_value(r, s, budget=30.0)
    assert result.value == value
    _check_m_witness(result)


def _small_partitions(r, most_slots=14):
    """Every split of some vertex count into r parts with at most most_slots
    slots."""
    total = r
    while True:
        found = [
            sizes
            for sizes in mvalue._partitions(total, r)
            if len(brute_m_slots(sizes)) <= most_slots
        ]
        if not found:
            return
        yield from found
        total += 1


@pytest.mark.parametrize("r, s", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)])
@pytest.mark.parametrize("prune", [True, False])
def test_m_search_matches_brute_force(r, s, prune):
    for sizes in _small_partitions(r):
        edges = mvalue._m_search_partition(sizes, s, prune=prune)
        assert (edges is not None) == brute_m_feasible(sizes, s), sizes
        if edges is not None:
            w = mvalue.MultipartiteGraph(sizes, edges)
            assert not w.has_clique(s)
            for parts in itertools.combinations(range(1, r + 1), s - 1):
                assert w.parts_have_transversal_clique(parts)


@pytest.mark.parametrize(
    "sizes, s",
    [((1, 1, 2, 2), 3), ((1, 1, 1, 3), 4), ((1, 2, 3), 3), ((2, 2, 2), 3), ((1, 1, 2, 2), 4)],
)
def test_m_cut_never_drops_a_covered_completion(sizes, s):
    """Walk random K_s-free prefixes slot by slot through the search's own
    state.  The carried free slots equal their definition, the cut leaves
    the graph as it was, and whenever the cut fires no covered K_s-free set
    agrees with the prefix up to its last slot."""
    part = mvalue._MPartition(sizes, s)
    L = part.L
    assert part.L == len(brute_m_slots(sizes))
    cliques = [c for masks in brute_m_cliques(sizes, s).values() for c in masks]
    valid = brute_m_sets(sizes, s)
    rng = random.Random(L * s)
    fired = kept = 0
    for trial in range(120):
        free = part.free_of(range(L))
        chosen = 0
        while free and rng.random() < 0.85:
            k = rng.choice(free)
            part.toggle((k,))
            chosen |= 1 << k
            free = part.free_of(free[free.index(k) + 1 :])
            assert free == [z for z in range(k + 1, L) if not brute_closes(cliques, chosen, z)]
            adj = part.adj[:]
            low = (1 << k + 1) - 1
            completable = any(D & low == chosen for D in valid)
            if part.uncoverable(free):
                fired += 1
                assert not completable, (sizes, chosen)
            else:
                kept += completable
            assert part.adj == adj
        part.toggle(k for k in range(L) if chosen >> k & 1)
        assert not any(part.adj)
    assert fired > 0 and kept > 0, (fired, kept)


def _check_m_stats(result):
    rows = result.stats["vertex_counts"]
    assert [row["vertices"] for row in rows] == list(range(result.r, result.r + len(rows)))
    for row in rows:
        assert set(row["cuts"]) == set(mvalue._M_CUT_REASONS)
        assert row["candidates"] == row["nodes"] + sum(row["cuts"].values()), row
        assert 0 <= row["partitions"] <= row["nodes"]
        assert set(row["pools"]) == {"full", "cyclic", "automorphisms", "none"}
        assert sum(row["pools"].values()) == row["partitions"], row
    assert sum(row["nodes"] for row in rows) == result.nodes_explored
    assert result.stats["cuts"] == {
        reason: sum(row["cuts"][reason] for row in rows) for reason in mvalue._M_CUT_REASONS
    }


@pytest.mark.parametrize("r, s", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 5)])
@pytest.mark.parametrize("prune", [True, False])
def test_m_stats_account_for_every_candidate(r, s, prune):
    result = mvalue._m_search(r, s, None, None, prune=prune)
    _check_m_stats(result)
    rows = result.stats["vertex_counts"]
    assert len(rows) == result.value - r + 1  # stops at the witness
    for row in rows[:-1]:  # every split of a vertex count below the value
        assert row["partitions"] == len(list(mvalue._partitions(row["vertices"], r)))
    if not prune:
        assert result.stats["cuts"]["uncoverable"] == 0
    elif r > 3:
        assert result.stats["cuts"]["uncoverable"] > 0


def test_m_stats_of_an_unknown_account_for_every_candidate():
    for result in (m_value(6, 4, budget=0.2), m_value(4, 3, max_vertices=5)):
        assert result.value is None and result.nodes_explored > 0
        _check_m_stats(result)


@pytest.mark.parametrize("bad", ["uncovered", "clique"])
def test_m_value_rechecks_its_witness(monkeypatch, bad):
    """A search that hands back a graph failing the definition is caught
    before m_value returns it: the empty graph misses a transversal K_2,
    and every slot taken closes a K_3."""

    def search(sizes, s, *args, **kwargs):
        if bad == "uncovered":
            return frozenset()
        verts = [(p + 1, i + 1) for p, size in enumerate(sizes) for i in range(size)]
        return frozenset((u, v) for u, v in itertools.combinations(verts, 2) if u[0] != v[0])

    monkeypatch.setattr(mvalue, "_m_search_partition", search)
    with pytest.raises(RuntimeError, match=r"m\(3, 3\) search returned a 3-vertex witness"):
        m_value(3, 3)


def test_m_validation():
    with pytest.raises(ValueError):
        m_value(3, 2)
    with pytest.raises(ValueError):
        m_value(2, 3)


def test_m_budget_exhaustion():
    result = m_value(5, 4, budget=0.0)
    assert result.value is None and result.exhausted_budget


def test_m_value_past_the_row_cap_returns_within_its_budget():
    # at 18 vertices m(10, 3) reaches (1 x 9, 9), whose full group passes
    # the row cap, and (1 x 8, 2, 8), whose passes the entry cap: both run
    # on cyclic shifts
    start = time.monotonic()
    result = m_value(10, 3, budget=2.0)
    assert time.monotonic() - start < 2.5
    assert result.value == 18 and not result.exhausted_budget
    assert result.stats["vertex_counts"][-1]["pools"]["cyclic"] > 0
    _check_m_witness(result)


@pytest.mark.parametrize("cap", [1, 5])
def test_m_search_under_smaller_groups_succeeds_on_the_same_splits(monkeypatch, cap):
    """With the row cap so low that every split holding a part of 3 or more
    indices falls to cyclic shifts or to no group at all, each split is
    feasible exactly when it is under the full group, and m(5, 3) and
    m(5, 4) keep their values."""
    cases = [(3, 3, 6), (4, 3, 8), (4, 4, 8), (5, 3, 10), (5, 4, 9), (5, 5, 8)]
    splits = [
        (sizes, s)
        for r, s, most in cases
        for total in range(r, most + 1)
        for sizes in mvalue._partitions(total, r)
    ]
    full = {}
    for sizes, s in splits:
        group = mvalue._MPartition(sizes, s).group
        assert group is None or group.pool == "full"
        full[sizes, s] = mvalue._m_search_partition(sizes, s) is not None
    monkeypatch.setattr(symmetry, "_GROUP_ROW_CAP", cap)
    for sizes, s in splits:
        group = mvalue._MPartition(sizes, s).group
        if max(sizes) >= 3:
            assert group is None or group.pool == "cyclic", sizes
        assert (mvalue._m_search_partition(sizes, s) is not None) == full[sizes, s], sizes
    assert any(full.values())
    for r, s, value in [(5, 3, 8), (5, 4, 9)]:
        result = m_value(r, s)
        assert result.value == value
        _check_m_witness(result)


def test_m_budget_is_kept_on_wide_hosts():
    """The clock is read at every node, as one node of a 50-part split can
    take tens of milliseconds: nodes 257 to 512 of m(50, 50) take about
    40 s in all."""
    for budget in (0.5, 1.5):
        start = time.monotonic()
        result = m_value(50, 50, budget=budget)
        assert result.value is None and result.exhausted_budget
        assert time.monotonic() - start < budget + 1.0


def test_m_respects_max_vertices():
    result = m_value(3, 3, max_vertices=3)
    assert result.value is None and not result.exhausted_budget


# ---------------------------------------------------------------------------
# clique blow-up bounds


def test_kr_sat_bounds_k4():
    b = kr_sat_bounds(4, 10)
    assert (b.lower, b.upper) == (80, 180)
    assert b.m_lower.value == 4 and b.m_upper.value == 6
    assert kr_sat_bounds(4, 2).lower == 16 == min_sat_exact(PatternGraph.complete(4), 2).value


@pytest.mark.parametrize("r, proved", [(4, 5), (5, 9)])
def test_kr_sat_bounds_refuse_n1(r, proved):
    # at n = 1 a vertex can see a whole part, so the degree argument behind
    # the lower bound fails: it would give 8 and 15 against the proved 5 and 9
    assert min_sat_exact(PatternGraph.complete(r), 1).value == proved
    with pytest.raises(ValueError, match="n >= 2"):
        kr_sat_bounds(r, 1)


def test_kr_sat_bounds_k5():
    b = kr_sat_bounds(5, 10)
    assert (b.lower, b.upper) == (150, 360)
    assert b.m_lower.value == 6 and b.m_upper.value == 9
    assert b.m_lower.elapsed + b.m_upper.elapsed < 1.0


def test_kr_sat_bounds_cache_respects_max_vertices():
    kr_sat_bounds(4, 10)
    capped = kr_sat_bounds(4, 10, max_vertices=5)
    assert capped.upper is None  # m(4,3) = 6 exceeds the cap
    assert capped.m_upper.value is None
    assert capped.lower == 80


def test_kr_sat_bounds_do_not_depend_on_earlier_calls():
    kr_sat_bounds(4, 10)
    b = kr_sat_bounds(4, 10, budget=0.0)
    assert b.lower is b.upper is None
    assert b.m_lower.exhausted_budget


def test_kr_sat_bounds_validation():
    with pytest.raises(ValueError):
        kr_sat_bounds(3, 5)
    with pytest.raises(ValueError):
        kr_sat_bounds(4, 0)


# ---------------------------------------------------------------------------
# pattern automorphisms


@pytest.mark.parametrize(
    "H",
    [
        PatternGraph.complete(1),
        PatternGraph.complete(2),
        PatternGraph.complete(4),
        PatternGraph.path(4),
        PatternGraph.cycle(5),
        PatternGraph.star(3),
        PatternGraph(4, [(1, 2), (3, 4)]),
        PatternGraph(5, [(1, 3), (3, 5), (2, 4)]),
        PatternGraph(4, [(2, 3)]),
        PatternGraph(6, [(1, 4), (4, 6), (6, 1), (2, 5)]),
        # a map keeping the breadth-first tree and degrees need not be one
        PatternGraph(5, [(1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5)]),
    ],
)
def test_pattern_automorphisms_match_brute_force(H):
    assert symmetry._pattern_automorphisms(H) == brute_automorphisms(H)


@pytest.mark.parametrize("shape, count", [("path", 2), ("cycle", 20)])
def test_pattern_automorphisms_of_ten_vertices_are_quick(shape, count):
    edges = [(i, i + 1) for i in range(1, 10)] + ([(1, 10)] if shape == "cycle" else [])
    text = f"pattern 10 {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges)
    H = parse_pattern(text)
    start = time.perf_counter()
    auts = symmetry._pattern_automorphisms(H)
    assert time.perf_counter() - start < 0.5
    assert len(auts) == count
