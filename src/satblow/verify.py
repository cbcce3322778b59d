"""Saturation verdicts for blow-up subgraphs.

A subgraph G of H[n] is partite-saturated when it has no partite copy of H
but adding any allowed non-edge creates one, and extra-saturated when adding
any allowed non-edge strictly increases the copy count.  Both verdicts
localize the effect of an added slot: since a new copy must run through the
new edge, it suffices to search for copies with both endpoints of that slot
pinned.  So both are one question, "does every non-edge close a copy?", and
both ask it of core.first_uncovered_slot.  It runs an existence search
compiled once per pattern edge, and it never counts.  It goes one row (p,
a, q) of slots at a time: a copy found through one non-edge of the row
covers every other non-edge of the row it also runs through, so those need
no search.  Greedy fill asks the same question one slot at a time, of
core._closes_copy, since each slot it adds changes the graph.

Verdicts are deterministic.  The scan takes the slots in the order of
host.slots(): lexicographic on (part, index) endpoint pairs.  It skips the
edges of G and always searches the least non-edge of a row not yet covered,
so the first slot it reports is the least non-edge that closes no copy, and
a failing verdict always carries that witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .core import (
    PartiteGraph,
    PartiteSelection,
    PartiteVertex,
    PatternGraph,
    _degrees,
    count_partite_copies,
    find_partite_copy,
    first_uncovered_slot,
    has_partite_copy,
)

NonEdge = tuple[PartiteVertex, PartiteVertex]


class VerdictStatus(str, Enum):
    OK = "ok"
    NOT_FREE = "not_free"
    NOT_SATURATED = "not_saturated"
    NOT_EXTRA_SATURATED = "not_extra_saturated"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a saturation scan.

    witness is a PartiteSelection for not_free and an offending non-edge for
    the other failures.  baseline_count is the copy count of the input when
    the scan needed it.
    """

    status: VerdictStatus
    witness: Union[PartiteSelection, NonEdge, None] = None
    baseline_count: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status is VerdictStatus.OK


def is_partite_free(G: PartiteGraph) -> Verdict:
    """OK iff G has no partite copy; otherwise the least copy is the witness.
    Existence is asked first, pinned; only a graph with a copy pays for the
    unpinned search of the least one."""
    if not has_partite_copy(G):
        return Verdict(VerdictStatus.OK, baseline_count=0)
    return Verdict(VerdictStatus.NOT_FREE, witness=find_partite_copy(G))


def _first_uncovered_non_edge(G: PartiteGraph) -> Optional[NonEdge]:
    host = G.host
    k = first_uncovered_slot(host.pattern, host.n, G._masks)
    return None if k is None else host.slots()[k]


def is_partite_saturated(G: PartiteGraph) -> Verdict:
    """OK iff G is partite-free and every allowed non-edge closes a copy."""
    free = is_partite_free(G)
    if not free.ok:
        return free
    witness = _first_uncovered_non_edge(G)
    if witness is not None:
        return Verdict(VerdictStatus.NOT_SATURATED, witness=witness, baseline_count=0)
    return Verdict(VerdictStatus.OK, baseline_count=0)


def is_extra_saturated(G: PartiteGraph) -> Verdict:
    """OK iff adding any allowed non-edge strictly increases the copy count.

    Any copy gained by adding a slot runs through that slot, so the count
    increase equals the number of copies pinned at its two endpoints.
    """
    baseline = count_partite_copies(G)
    witness = _first_uncovered_non_edge(G)
    if witness is not None:
        return Verdict(
            VerdictStatus.NOT_EXTRA_SATURATED, witness=witness, baseline_count=baseline
        )
    return Verdict(VerdictStatus.OK, baseline_count=baseline)


# --------------------------------------------------------------------------
# structural diagnostics for saturated subgraphs of K4[n]
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    status: str  # "pass", "fail" or "not_applicable"
    counterexample: Optional[PartiteVertex] = None
    note: str = ""


def _is_k4(pattern: PatternGraph) -> bool:
    return pattern.vertex_count == 4 and pattern.edge_count() == 6


def _degree4_profile_ok(G: PartiteGraph, v: PartiteVertex, deg: list[list[int]]) -> tuple[bool, str]:
    """The degree-4 neighbourhood facts at v, read from G's masks and the
    degree table deg of _degrees."""
    masks = G._masks
    row = masks[v.part - 1][v.index - 1]
    # (part, index) 0-based, in sorted order
    nbrs = [(q, b) for q, mask in enumerate(row) for b in range(mask.bit_length()) if mask >> b & 1]
    counts = sorted((m.bit_count() for m in row if m), reverse=True)
    if counts != [2, 1, 1]:
        return False, f"neighbor part profile {counts} is not [2, 1, 1]"
    ends = [0] * len(nbrs)  # each neighbour's degree inside the neighbourhood
    induced = 0
    for k, (p, a) in enumerate(nbrs):
        for m, (q, b) in enumerate(nbrs[k + 1 :], start=k + 1):
            if masks[p][a][q] >> b & 1:
                induced += 1
                ends[k] += 1
                ends[m] += 1
    if induced != 3:
        return False, f"neighborhood induces {induced} edges, a path needs 3"
    if sorted(ends) != [1, 1, 2, 2]:
        return False, "neighborhood edges do not form a path"
    x, y = (PartiteVertex(p + 1, a + 1) for (p, a), d in zip(nbrs, ends) if d == 1)
    if x.part != y.part:
        return False, f"induced path ends {x} and {y} lie in different parts"
    n = G.host.n
    for p, a in nbrs:
        if deg[p][a] < n - 2:
            return False, f"neighbor {p + 1}.{a + 1} has degree {deg[p][a]} < n - 2"
    return True, ""


# what a lemma's finder returns: a counterexample (None when no one vertex is
# to blame) and a note, or None when the lemma holds
_Found = Optional[tuple[Optional[PartiteVertex], str]]


def _low_degree(G: PartiteGraph, deg: list[list[int]]) -> _Found:
    """The least vertex of degree below 4, with its degree."""
    for v in G.host.vertices():
        d = deg[v.part - 1][v.index - 1]
        if d < 4:
            return v, f"degree {d}"
    return None


def _bad_degree4_neighborhood(G: PartiteGraph, deg: list[list[int]]) -> _Found:
    """The least degree-4 vertex whose neighbourhood breaks the facts of
    _degree4_profile_ok, with the first fact it breaks."""
    for v in G.host.vertices():
        if deg[v.part - 1][v.index - 1] == 4:
            ok, why = _degree4_profile_ok(G, v, deg)
            if not ok:
                return v, why
    return None


def _three_min_degree_4_parts(G: PartiteGraph, deg: list[list[int]]) -> _Found:
    """More than two parts whose minimum degree is exactly 4; no single
    vertex is to blame."""
    parts4 = [p + 1 for p, part in enumerate(deg) if min(part) == 4]
    if len(parts4) > 2:
        return None, f"parts {parts4} all have minimum degree exactly 4"
    return None


_NOT_K4 = "check_k4_lemmas needs a subgraph of a K4 blow-up"
# one row per lemma: its name, the least part size it needs, and its finder,
# which reads G and its degree table of _degrees
_K4_LEMMAS = (
    ("min_degree_4", 2, _low_degree),
    ("degree_4_neighborhoods", 3, _bad_degree4_neighborhood),
    ("few_min_degree_4_parts", 22, _three_min_degree_4_parts),
)


def check_k4_lemmas(G: PartiteGraph) -> list[LemmaCheck]:
    """Structural facts that hold in every saturated subgraph of K4[n],
    each gated by the part size it needs:

    * n >= 2: minimum degree at least 4;
    * n >= 3: every degree-4 vertex sees one part twice and two parts once,
      its neighborhood induces a path whose ends share a part, and all its
      neighbors have degree at least n - 2;
    * n >= 22: at most two parts attain minimum degree exactly 4.

    Raises if the pattern is not K4 or if G is not saturated.
    """
    if not _is_k4(G.host.pattern):
        raise ValueError(_NOT_K4)
    verdict = is_partite_saturated(G)
    if not verdict.ok:
        raise ValueError(f"input graph is not saturated ({verdict.status.value})")
    return _k4_lemmas(G, verdict)


def _k4_lemmas(G: PartiteGraph, saturation: Optional[Verdict] = None) -> list[LemmaCheck]:
    """The checks of check_k4_lemmas, one per row of _K4_LEMMAS, given G's
    is_partite_saturated verdict (scanned here when None, so a caller that
    has it scans nothing twice): on a graph that is not saturated each is
    not_applicable.  Raises if the pattern is not K4."""
    if not _is_k4(G.host.pattern):
        raise ValueError(_NOT_K4)
    if saturation is None:
        saturation = is_partite_saturated(G)
    if not saturation.ok:
        return [
            LemmaCheck(name, "not_applicable", note="needs a saturated graph")
            for name, _, _ in _K4_LEMMAS
        ]
    n = G.host.n
    deg = _degrees(G)
    checks: list[LemmaCheck] = []
    for name, least_n, finder in _K4_LEMMAS:
        if n < least_n:
            checks.append(LemmaCheck(name, "not_applicable", note=f"needs n >= {least_n}"))
        elif (found := finder(G, deg)) is None:
            checks.append(LemmaCheck(name, "pass"))
        else:
            checks.append(LemmaCheck(name, "fail", *found))
    return checks


def all_applicable_pass(checks: list[LemmaCheck]) -> bool:
    return all(c.status != "fail" for c in checks)
