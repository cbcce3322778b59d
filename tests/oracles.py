"""Reference implementations, deliberately naive.

Everything here walks the full selection space with itertools so the bitmask
engine in satblow.core has something independent to disagree with.  Keep
these slow and obvious.
"""

import itertools

from satblow import PartiteGraph, PartiteVertex, is_partite_saturated


def all_selections(pattern, n):
    """Every choice of one index per part, as a tuple indexed by part - 1."""
    return itertools.product(range(1, n + 1), repeat=pattern.vertex_count)


def selection_carries(G, combo):
    pattern = G.host.pattern
    return all(
        G.has_edge(
            PartiteVertex(i, combo[i - 1]), PartiteVertex(j, combo[j - 1])
        )
        for i, j in pattern.edges
    )


def brute_count(G):
    pattern, n = G.host.pattern, G.host.n
    return sum(1 for combo in all_selections(pattern, n) if selection_carries(G, combo))


def brute_count_through(G, u, v):
    """Copies through the slot u-v, the slot being treated as present."""
    present = G if G.has_edge(u, v) else G.with_edge(u, v)
    pattern, n = G.host.pattern, G.host.n
    total = 0
    for combo in all_selections(pattern, n):
        if combo[u.part - 1] != u.index or combo[v.part - 1] != v.index:
            continue
        if selection_carries(present, combo):
            total += 1
    return total


def _brute_minimum(pattern, n, predicate):
    from satblow import BlowupHost

    host = BlowupHost(pattern, n)
    slots = host.slots()
    for size in range(len(slots) + 1):
        for subset in itertools.combinations(slots, size):
            if predicate(PartiteGraph(host, subset)).ok:
                return size
    raise AssertionError("some maximal free subgraph should have qualified")


def brute_min_sat(pattern, n):
    """Smallest saturated edge set by direct subset enumeration.  Only for
    hosts with a handful of slots."""
    return _brute_minimum(pattern, n, is_partite_saturated)


def brute_min_exsat(pattern, n):
    from satblow import is_extra_saturated

    return _brute_minimum(pattern, n, is_extra_saturated)


def brute_automorphisms(pattern):
    """Every vertex permutation (0-based) that maps edges onto edges."""
    v = pattern.vertex_count
    edges = {frozenset((i - 1, j - 1)) for i, j in pattern.edges}
    return [
        perm
        for perm in itertools.permutations(range(v))
        if all(frozenset((perm[i], perm[j])) in edges for i, j in map(tuple, edges))
    ]


def brute_slot_group(pattern, n):
    """The set of slot permutations of S_n wr Aut(pattern), each a tuple
    listing the image of every slot, built from vertex maps."""
    from satblow import BlowupHost

    slots = BlowupHost(pattern, n).slots()
    index = {
        frozenset(((x.part, x.index), (y.part, y.index))): k
        for k, (x, y) in enumerate(slots)
    }
    v = pattern.vertex_count
    rows = set()
    for aut in brute_automorphisms(pattern):
        for shuffles in itertools.product(
            itertools.permutations(range(1, n + 1)), repeat=v
        ):
            def image(x):
                part = aut[x.part - 1] + 1
                return (part, shuffles[part - 1][x.index - 1])

            rows.add(
                tuple(index[frozenset((image(x), image(y)))] for x, y in slots)
            )
    return rows


def brute_is_lex_leader(rows, chosen):
    """Is the sorted tuple `chosen` no greater than its sorted image under
    every slot permutation in rows?"""
    return all(tuple(sorted(g[k] for k in chosen)) >= tuple(chosen) for g in rows)
