import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satblow import (
    BlowupHost,
    PartiteGraph,
    PartiteSelection,
    PartiteVertex,
    PatternGraph,
    Verdict,
    VerdictStatus,
    all_applicable_pass,
    blow_up,
    check_k4_lemmas,
    clique_exsat_construction,
    count_copies_through,
    count_partite_copies,
    creates_copy_through,
    is_extra_saturated,
    is_partite_free,
    is_partite_saturated,
    greedy_extra_saturate,
    k4_construction,
    selection_carries_pattern,
    star_construction,
    tree_exsat_construction,
)
from satblow import verify


def test_free_verdicts():
    K3 = PatternGraph.complete(3)
    empty = PartiteGraph(BlowupHost(K3, 2))
    verdict = is_partite_free(empty)
    assert verdict.ok and verdict.status is VerdictStatus.OK
    assert verdict.baseline_count == 0 and verdict.witness is None

    full = blow_up(K3, 2)
    verdict = is_partite_free(full)
    assert not verdict.ok and verdict.status is VerdictStatus.NOT_FREE
    assert isinstance(verdict.witness, PartiteSelection)
    assert selection_carries_pattern(full, verdict.witness)
    assert verdict.witness == PartiteSelection((1, 1, 1))


def test_saturated_verdicts():
    G = star_construction(2, 3)
    assert is_partite_saturated(G).ok

    # a saturated graph minus any edge stops being saturated: putting the
    # edge back recreates a free graph, so it closes no copy
    G5 = k4_construction(5)
    for u, v in G5.sorted_edges():
        verdict = is_partite_saturated(G5.without_edge(u, v))
        assert verdict.status is VerdictStatus.NOT_SATURATED
        wu, wv = verdict.witness
        assert not creates_copy_through(G5.without_edge(u, v), wu, wv)


def test_saturated_verdict_on_non_free_input():
    full = blow_up(PatternGraph.complete(3), 2)
    verdict = is_partite_saturated(full)
    assert verdict.status is VerdictStatus.NOT_FREE
    assert isinstance(verdict.witness, PartiteSelection)


def test_not_saturated_witness_is_least():
    K3 = PatternGraph.complete(3)
    empty = PartiteGraph(BlowupHost(K3, 2))
    verdict = is_partite_saturated(empty)
    assert verdict.status is VerdictStatus.NOT_SATURATED
    assert verdict.witness == empty.host.slots()[0]


def test_extra_saturated_verdicts():
    G = tree_exsat_construction(PatternGraph.path(3), 4)
    verdict = is_extra_saturated(G)
    assert verdict.ok
    assert verdict.baseline_count == 4 == count_partite_copies(G)

    empty = PartiteGraph(BlowupHost(PatternGraph.complete(3), 2))
    verdict = is_extra_saturated(empty)
    assert verdict.status is VerdictStatus.NOT_EXTRA_SATURATED
    assert verdict.baseline_count == 0
    wu, wv = verdict.witness
    assert count_copies_through(empty, wu, wv) == 0


def test_extra_saturated_tolerates_copies():
    G = clique_exsat_construction(3, 3)
    verdict = is_extra_saturated(G)
    assert verdict.ok and verdict.baseline_count >= 1


VERDICT_PATTERNS = [
    PatternGraph.complete(2),
    PatternGraph.path(3),
    PatternGraph.path(4),
    PatternGraph.cycle(4),
    PatternGraph.complete(4),
    PatternGraph.star(3),
    PatternGraph(4, [(1, 2), (2, 3), (1, 3)]),
]


@st.composite
def verdict_graphs(draw):
    """Random subgraphs, some grown by greedy fill until every non-edge
    closes a copy, some of those with one edge taken out again, so that
    both verdicts meet ok, not-free and failing inputs."""
    pattern = draw(st.sampled_from(VERDICT_PATTERNS))
    n = draw(st.integers(min_value=1, max_value=3))
    host = BlowupHost(pattern, n)
    slots = host.slots()
    G = PartiteGraph(host, draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))))
    mode = draw(st.sampled_from(["raw", "filled", "filled minus one"]))
    if mode != "raw":
        G = greedy_extra_saturate(G, draw(st.integers(0, 99)))
    if mode == "filled minus one" and G.edges:
        G = G.without_edge(*draw(st.sampled_from(G.sorted_edges())))
    return G


def _verdict_slot_by_slot(G, saturation):
    """Both verdicts written out as a loop over the non-edges in order, each
    asked through the public per-slot creates_copy_through."""
    if saturation:
        free = is_partite_free(G)
        if not free.ok:
            return free
        baseline, failing = 0, VerdictStatus.NOT_SATURATED
    else:
        baseline, failing = count_partite_copies(G), VerdictStatus.NOT_EXTRA_SATURATED
    for u, v in G.allowed_non_edges():
        if not creates_copy_through(G, u, v):
            return Verdict(failing, witness=(u, v), baseline_count=baseline)
    return Verdict(VerdictStatus.OK, baseline_count=baseline)


@settings(max_examples=120, deadline=None)
@given(verdict_graphs())
def test_verdicts_match_the_slot_by_slot_scan(G):
    assert is_partite_saturated(G) == _verdict_slot_by_slot(G, True)
    assert is_extra_saturated(G) == _verdict_slot_by_slot(G, False)


def test_localization_identity_on_a_fixed_graph():
    G = star_construction(3, 2).without_edge((1, 1), (2, 1))
    base = count_partite_copies(G)
    for u, v in G.allowed_non_edges():
        grown = count_partite_copies(G.with_edge(u, v))
        assert grown - base == count_copies_through(G, u, v)


# ---------------------------------------------------------------------------
# K4 structure checks


def test_k4_lemmas_pass_on_construction():
    checks = check_k4_lemmas(k4_construction(5))
    assert all_applicable_pass(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["min_degree_4"].status == "pass"
    assert by_name["degree_4_neighborhoods"].status == "pass"
    assert by_name["few_min_degree_4_parts"].status == "not_applicable"
    assert by_name["few_min_degree_4_parts"].note == "needs n >= 22"


def test_k4_lemmas_all_applicable_at_large_n():
    checks = check_k4_lemmas(k4_construction(22))
    assert {c.status for c in checks} == {"pass"}


def test_k4_lemmas_small_n_gating():
    from satblow import greedy_saturate

    G2 = greedy_saturate(PartiteGraph(BlowupHost(PatternGraph.complete(4), 2)), 0)
    checks = check_k4_lemmas(G2)
    by_name = {c.name: c for c in checks}
    assert by_name["min_degree_4"].status == "pass"
    assert by_name["degree_4_neighborhoods"].status == "not_applicable"
    assert by_name["degree_4_neighborhoods"].note == "needs n >= 3"


# Every lemma is a theorem, so no saturated graph fails one: the fail paths
# are reached through the row finders on graphs that are not saturated.


def test_low_degree_finder_names_the_least_low_vertex():
    G = k4_construction(5)
    u = PartiteVertex(1, 3)  # attached to four anchors only
    H = G.without_edge(u, PartiteVertex(2, 1))
    assert verify._low_degree(G, verify._degrees(G)) is None
    assert verify._low_degree(H, verify._degrees(H)) == (u, "degree 3")
    # the loop of _k4_lemmas turns a finder's answer into a failed check
    checks = verify._k4_lemmas(H, Verdict(VerdictStatus.OK))
    assert checks[0] == verify.LemmaCheck("min_degree_4", "fail", u, "degree 3")
    assert not all_applicable_pass(checks)


def test_degree4_neighborhood_finder_names_a_bad_profile():
    G = k4_construction(5)
    u = PartiteVertex(1, 3)
    for w in [w for w in G.host.vertices() if G.has_edge(u, w)]:
        G = G.without_edge(u, w)
    for w in ((2, 1), (2, 2), (3, 1), (3, 2)):  # two parts twice each
        G = G.with_edge(u, PartiteVertex(*w))
    assert verify._bad_degree4_neighborhood(G, verify._degrees(G)) == (
        u,
        "neighbor part profile [2, 2] is not [2, 1, 1]",
    )
    H = k4_construction(5)
    assert verify._bad_degree4_neighborhood(H, verify._degrees(H)) is None


def test_min_degree_4_parts_finder_blames_no_vertex():
    G = k4_construction(3)
    three = [[4, 5], [4, 6], [4, 7], [5, 5]]
    two = [[4, 5], [4, 6], [5, 7], [5, 5]]
    assert verify._three_min_degree_4_parts(G, three) == (
        None,
        "parts [1, 2, 3] all have minimum degree exactly 4",
    )
    assert verify._three_min_degree_4_parts(G, two) is None


def test_k4_lemmas_preconditions():
    with pytest.raises(ValueError):
        check_k4_lemmas(star_construction(3, 3))  # wrong pattern
    with pytest.raises(ValueError):
        check_k4_lemmas(PartiteGraph(BlowupHost(PatternGraph.complete(4), 3)))
