import warnings

import pytest

from satblow import (
    ConstructionSpec,
    PatternGraph,
    VerificationRangeWarning,
    clique_exsat_construction,
    clique_exsat_edges,
    count_partite_copies,
    degree,
    generic_exsat_construction,
    generic_exsat_edges,
    is_extra_saturated,
    is_partite_free,
    is_partite_saturated,
    k4_construction,
    k4_saturation_edges,
    path_construction,
    path_saturation_edges,
    star_construction,
    star_saturation_edges,
    tree_exsat_construction,
    tree_exsat_edges,
    two_connected_edge_bound,
    two_connected_stages,
    two_connected_upper,
)


# ---------------------------------------------------------------------------
# K4 family


def test_k4_formula():
    assert [k4_saturation_edges(n) for n in (2, 3, 5, 10)] == [15, 33, 69, 159]


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_k4_construction_is_saturated_with_formula_size(n):
    G = k4_construction(n)
    assert G.edge_count() == k4_saturation_edges(n)
    assert is_partite_saturated(G).ok


def test_k4_at_n2_is_the_bare_anchor():
    with pytest.warns(VerificationRangeWarning):
        G = k4_construction(2)
    assert G.edge_count() == 15
    assert is_partite_free(G).ok


def test_range_warning_names_the_caller():
    # both the direct call and the call through the spec report the line of
    # this file that made them
    for build in (lambda: k4_construction(2), lambda: ConstructionSpec("k4", 2).build()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()
        (w,) = caught
        assert issubclass(w.category, VerificationRangeWarning)
        assert (w.filename, w.lineno) == (__file__, build.__code__.co_firstlineno)


def test_k4_attached_vertex_degrees():
    G = k4_construction(10)
    # attached vertices keep a constant degree; the anchor absorbs the rest
    assert degree(G, (1, 3)) == 4
    assert degree(G, (2, 5)) == 5
    assert degree(G, (1, 1)) == 20


def test_k4_needs_n_at_least_2():
    with pytest.raises(ValueError):
        k4_construction(1)


def test_k4_construction_is_deterministic():
    assert k4_construction(4) == k4_construction(4)


# ---------------------------------------------------------------------------
# stars


@pytest.mark.parametrize("r,n", [(2, 2), (2, 4), (3, 2), (4, 3)])
def test_star_construction_saturated_with_formula_size(r, n):
    G = star_construction(r, n)
    assert G.edge_count() == star_saturation_edges(r, n) == (r - 1) * n * n
    assert is_partite_saturated(G).ok


def test_star_validation():
    with pytest.raises(ValueError):
        star_construction(1, 3)
    with pytest.raises(ValueError):
        star_construction(2, 0)


# ---------------------------------------------------------------------------
# paths


def test_path_formula_values():
    assert path_saturation_edges(4, 8) == 79
    assert path_saturation_edges(5, 10) == 210
    # even: (r/2 - 1) n^2 + (r - 2) n + 3 - r, odd: ((r-1)/2) n^2 + (r-4) n + 5 - r
    assert path_saturation_edges(6, 12) == 2 * 144 + 4 * 12 - 3
    assert path_saturation_edges(7, 14) == 3 * 196 + 3 * 14 - 2


@pytest.mark.parametrize("r,n", [(4, 8), (4, 9), (5, 10), (6, 12)])
def test_path_construction_saturated_with_formula_size(r, n):
    G = path_construction(r, n)
    assert G.edge_count() == path_saturation_edges(r, n)
    assert is_partite_saturated(G).ok


def test_path_warns_below_twice_r():
    with pytest.warns(VerificationRangeWarning):
        path_construction(4, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path_construction(4, 8)


def test_path_validation():
    with pytest.raises(ValueError):
        path_construction(3, 10)
    with pytest.raises(ValueError):
        path_construction(5, 1)


# ---------------------------------------------------------------------------
# two-connected upper bound


def test_two_connected_stage_shapes():
    C4 = PatternGraph.cycle(4)
    G1, G2 = two_connected_stages(C4, 5)
    assert G1.edge_count() == 4  # one stripped copy per pattern edge block
    assert G2.edge_count() > G1.edge_count()
    assert is_partite_free(G2).ok
    assert set(G1.edges) <= set(G2.edges)


@pytest.mark.parametrize("H", [PatternGraph.cycle(4), PatternGraph.complete(3)])
def test_two_connected_upper_is_saturated_within_bound(H):
    n = H.edge_count() + 1
    G = two_connected_upper(H, n, seed=11)
    assert is_partite_saturated(G).ok
    assert G.edge_count() <= two_connected_edge_bound(H, n)
    assert G.edge_count() <= 2 * H.edge_count() ** 2 * n - H.edge_count() ** 3


def test_two_connected_validation():
    with pytest.raises(ValueError):
        two_connected_stages(PatternGraph.path(4), 10)
    with pytest.raises(ValueError):
        two_connected_stages(PatternGraph.cycle(4), 3)  # needs n >= e(H)


# ---------------------------------------------------------------------------
# extra-saturation families


@pytest.mark.parametrize("r,n", [(3, 2), (3, 4), (4, 3)])
def test_clique_exsat_construction(r, n):
    G = clique_exsat_construction(r, n)
    assert G.edge_count() == clique_exsat_edges(r, n) == (2 * n - 1) * r * (r - 1) // 2
    assert is_extra_saturated(G).ok


def test_clique_exsat_validation():
    with pytest.raises(ValueError):
        clique_exsat_construction(2, 3)


@pytest.mark.parametrize(
    "H", [PatternGraph.cycle(4), PatternGraph.complete(3), PatternGraph.path(4)]
)
def test_generic_exsat_construction(H):
    n = 3
    G = generic_exsat_construction(H, n)
    assert G.edge_count() == generic_exsat_edges(H, n) == (2 * n - 1) * H.edge_count()
    assert is_extra_saturated(G).ok


def test_generic_exsat_pinned_copy_present():
    H = PatternGraph.cycle(4)
    G = generic_exsat_construction(H, 2)
    assert count_partite_copies(G) >= 1


@pytest.mark.parametrize(
    "T,n",
    [
        (PatternGraph.path(3), 4),
        (PatternGraph.path(4), 5),
        (PatternGraph.star(3), 4),
    ],
)
def test_tree_exsat_construction(T, n):
    G = tree_exsat_construction(T, n)
    assert G.edge_count() == tree_exsat_edges(T, n) == (T.vertex_count - 1) * n
    assert is_extra_saturated(G).ok


def test_tree_exsat_warns_below_4_and_rejects_cycles():
    with pytest.warns(VerificationRangeWarning):
        G = tree_exsat_construction(PatternGraph.path(3), 2)
    assert is_extra_saturated(G).ok  # the property holds, only minimality may not
    with pytest.raises(ValueError):
        tree_exsat_construction(PatternGraph.cycle(4), 5)


# ---------------------------------------------------------------------------
# the ConstructionSpec dataclass


def test_construction_spec_round_trip():
    spec = ConstructionSpec(family="star", n=3, r=2)
    G = spec.build()
    assert G.edge_count() == spec.formula_value() == 9


def test_construction_spec_validation():
    with pytest.raises(ValueError):
        ConstructionSpec(family="nope", n=3).validate()
    with pytest.raises(ValueError):
        ConstructionSpec(family="star", n=3).validate()
    with pytest.raises(ValueError):
        ConstructionSpec(family="tree-exsat", n=3).validate()
    with pytest.raises(ValueError, match="seed"):
        ConstructionSpec(family="two-connected", n=5, pattern=PatternGraph.cycle(4)).build()


def test_construction_spec_two_connected_formula_is_bound():
    spec = ConstructionSpec(
        family="two-connected", n=5, pattern=PatternGraph.cycle(4), seed=1
    )
    assert spec.formula_value() == 2 * 16 * 5 - 64
    assert spec.build().edge_count() <= spec.formula_value()
    unseeded = ConstructionSpec(family="two-connected", n=5, pattern=PatternGraph.cycle(4))
    assert unseeded.formula_value() == spec.formula_value()
