import itertools
import random
import time

import numpy as np
import pytest

from satblow import (
    BlowupHost,
    PartiteGraph,
    PartiteVertex,
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
from satblow import solve
from satblow.formats import parse_pattern
from oracles import (
    brute_automorphisms,
    brute_is_lex_leader,
    brute_min_exsat,
    brute_min_sat,
    brute_slot_group,
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


def test_greedy_fixpoint_on_saturated_input():
    G = greedy_saturate(_empty(PatternGraph.complete(3), 2), 0)
    assert greedy_saturate(G, 123) == G
    assert greedy_extra_saturate(G, 123) == G


# ---------------------------------------------------------------------------
# lower bound


def test_saturation_lower_bound_values():
    K3 = PatternGraph.complete(3)
    assert saturation_lower_bound(K3, 2) == 3
    assert saturation_lower_bound(K3, 3) == 5
    assert saturation_lower_bound(PatternGraph.cycle(4), 3) == 6
    assert saturation_lower_bound(PatternGraph.complete(2), 7) == 0
    assert saturation_lower_bound(PatternGraph.path(4), 5) == 0


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


def _group(H, n):
    return solve._symmetry_group(solve._SlotSystem(BlowupHost(H, n)))


@pytest.mark.parametrize(
    "H, n",
    [
        (PatternGraph.complete(3), 2),
        (PatternGraph.path(3), 2),
        (PatternGraph.cycle(4), 2),
        (PatternGraph.star(3), 2),
        (PatternGraph(4, [(1, 2), (2, 3)]), 2),  # vertex 4 isolated
        (PatternGraph(3, [(1, 2)]), 2),
        (PatternGraph.complete(3), 1),
        (PatternGraph.complete(4), 1),
        (PatternGraph.path(3), 1),
        (PatternGraph.complete(2), 1),
        (PatternGraph(3, [(1, 2)]), 1),
    ],
)
def test_group_table_is_the_symmetry_group(H, n):
    want = brute_slot_group(H, n)
    group = _group(H, n)
    if len(want) == 1:
        assert group is None
        return
    image = group.image
    assert {tuple(row) for row in image.T.tolist()} == want
    assert image.shape[1] == len(want)  # no row twice
    cols = np.arange(image.shape[1])
    assert (group.preimage[image, cols] == np.arange(image.shape[0])[:, None]).all()
    assert group.orbit_min == image.min(axis=1).tolist()


def test_group_table_past_int16_slot_numbers():
    # 33 800 slots: only the pattern automorphisms fit the caps
    H, n = PatternGraph.path(3), 130
    slots = BlowupHost(H, n).slots()
    index = {slot: k for k, slot in enumerate(slots)}
    flip = tuple(
        index[tuple(sorted(PartiteVertex(4 - w.part, w.index) for w in slot))]
        for slot in slots
    )
    group = _group(H, n)
    assert group.image.dtype == np.int32
    assert {tuple(row) for row in group.image.T.tolist()} == {
        tuple(range(len(slots))),
        flip,
    }


def _random_lex_leader(rows, L, k, rng):
    chosen = rng.sample(range(L), k)
    return min(tuple(sorted(g[x] for x in chosen)) for g in rows)


@pytest.mark.parametrize(
    "H, n",
    [
        (PatternGraph.complete(3), 2),
        (PatternGraph.complete(3), 3),
        (PatternGraph.path(4), 2),
        (PatternGraph.cycle(4), 2),
        (PatternGraph.complete(4), 2),
        (PatternGraph.star(3), 2),
        (PatternGraph.complete(3), 5),  # the full group is too big: cyclic shifts
    ],
)
def test_canonical_extensions_match_brute_force(H, n):
    group = _group(H, n)
    rows = [tuple(row) for row in group.image.T.tolist()]
    L = group.image.shape[0]
    rng = random.Random(L)
    for trial in range(60):
        parent = _random_lex_leader(rows, L, rng.randrange(min(L, 9)), rng)
        exts = list(range(parent[-1] + 1 if parent else 0, L))
        want = [s for s in exts if brute_is_lex_leader(rows, parent + (s,))]
        assert solve._canonical_extensions(group, parent, exts) == want, parent


def test_child_thresholds_match_brute_force():
    group = _group(PatternGraph.complete(3), 2)
    rows = [tuple(row) for row in group.image.T.tolist()]
    L = len(rows[0])
    rng = random.Random(3)

    def threshold(g, chosen):
        held = {g[x] for x in chosen}
        return next((x for x in chosen if x not in held), L)

    for trial in range(80):
        parent = _random_lex_leader(rows, L, rng.randrange(L - 1), rng)
        thresholds = [threshold(g, parent) for g in rows]
        for s in range(parent[-1] + 1 if parent else 0, L):
            child = parent + (s,)
            got = solve._child_thresholds(rows, thresholds, child, L)
            if brute_is_lex_leader(rows, child):
                assert got == [threshold(g, child) for g in rows]
            else:
                assert got is None


@pytest.mark.parametrize(
    "kind, H, n, value, nodes, witness",
    [
        (
            "sat",
            PatternGraph.complete(3),
            2,
            6,
            53,
            "11-21 11-31 12-22 12-32 21-32 22-31",
        ),
        (
            "sat",
            PatternGraph.cycle(4),
            2,
            8,
            318,
            "11-21 11-41 12-22 12-42 21-31 22-32 31-42 32-41",
        ),
        (
            "exsat",
            PatternGraph.path(3),
            3,
            6,
            128,
            "11-21 11-22 11-23 21-31 22-31 23-31",
        ),
        (
            "sat",
            PatternGraph.complete(4),
            2,
            16,
            38678,
            "11-21 11-22 11-31 11-41 12-21 12-22 12-32 12-42"
            " 21-31 21-42 22-32 22-41 31-41 31-42 32-41 32-42",
        ),
    ],
)
def test_exact_search_is_pinned(kind, H, n, value, nodes, witness):
    """The same canonical sets, hence the same node count and the same
    least witness, whatever form the lex-leader test takes."""
    solver = min_sat_exact if kind == "sat" else min_exsat_exact
    r = solver(H, n)
    assert (r.value, r.nodes_explored) == (value, nodes)
    got = " ".join(
        f"{u.part}{u.index}-{v.part}{v.index}" for u, v in sorted(r.witness.edges)
    )
    assert got == witness


def test_value_and_witness_ignore_the_greedy_seed():
    H = PatternGraph.complete(3)
    a = min_sat_exact(H, 2, seed=0)
    b = min_sat_exact(H, 2, seed=99)
    assert a.value == b.value and a.witness == b.witness


# ---------------------------------------------------------------------------
# budgets


def test_budget_exhaustion_returns_upper_bound():
    r = min_sat_exact(PatternGraph.complete(4), 3, budget=0.15)
    assert r.value is None
    assert r.exhausted_budget
    assert r.upper_bound == r.witness.edge_count()
    assert is_partite_saturated(r.witness).ok


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
    result = m_value(4, 3)
    assert result.value == 6
    assert result.nodes_explored == 622
    _check_m_witness(result)


def test_m_4_4():
    result = m_value(4, 4)
    assert result.value == 6
    assert result.nodes_explored == 387
    _check_m_witness(result)


def test_m_validation():
    with pytest.raises(ValueError):
        m_value(3, 2)
    with pytest.raises(ValueError):
        m_value(2, 3)


def test_m_budget_exhaustion():
    result = m_value(5, 4, budget=0.0)
    assert result.value is None and result.exhausted_budget


def test_m_respects_max_vertices():
    result = m_value(3, 3, max_vertices=3)
    assert result.value is None and not result.exhausted_budget


# ---------------------------------------------------------------------------
# clique blow-up bounds


def test_kr_sat_bounds_k4():
    b = kr_sat_bounds(4, 10)
    assert (b.lower, b.upper) == (80, 180)
    assert b.m_lower.value == 4 and b.m_upper.value == 6
    assert kr_sat_bounds(4, 1).lower == 8
    assert kr_sat_bounds(4, 1).upper == 18


def test_kr_sat_bounds_cache_respects_max_vertices():
    kr_sat_bounds(4, 10)
    capped = kr_sat_bounds(4, 10, max_vertices=5)
    assert capped.upper is None  # m(4,3) = 6 exceeds the cap
    assert capped.m_upper.value is None
    assert capped.lower == 80


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
    assert solve._pattern_automorphisms(H) == brute_automorphisms(H)


@pytest.mark.parametrize("shape, count", [("path", 2), ("cycle", 20)])
def test_pattern_automorphisms_of_ten_vertices_are_quick(shape, count):
    edges = [(i, i + 1) for i in range(1, 10)] + ([(1, 10)] if shape == "cycle" else [])
    text = f"pattern 10 {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges)
    H = parse_pattern(text)
    start = time.perf_counter()
    auts = solve._pattern_automorphisms(H)
    assert time.perf_counter() - start < 0.5
    assert len(auts) == count
