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


def brute_find(G):
    """The lexicographically least carrying selection, as 1-based indices by
    part, or None."""
    return next(
        (combo for combo in all_selections(G.host.pattern, G.host.n) if selection_carries(G, combo)),
        None,
    )


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


def brute_degree_floor(pattern, n):
    """The degree bound of saturation_lower_bound by enumerating every
    weighting y in {0, 1/2, 1}^v (held doubled, as 0, 1, 2) with
    y_p + y_q <= 1 on each pattern edge."""
    degrees = [pattern.degree_of(p) for p in pattern.vertices]
    demand = [0 if d == 0 else min(d, (d - 1) * n) for d in degrees]
    best = 0  # twice the best weighted demand
    for y in itertools.product((0, 1, 2), repeat=pattern.vertex_count):
        if all(y[p - 1] + y[q - 1] <= 2 for p, q in pattern.edges):
            best = max(best, sum(w * d for w, d in zip(y, demand)))
    return -(-n * best // 2)


def brute_automorphisms(pattern):
    """Every vertex permutation (0-based) that maps edges onto edges."""
    v = pattern.vertex_count
    edges = {frozenset((i - 1, j - 1)) for i, j in pattern.edges}
    return [
        perm
        for perm in itertools.permutations(range(v))
        if all(frozenset((perm[i], perm[j])) in edges for i, j in map(tuple, edges))
    ]


def brute_slot_group(pattern, n, pool="full"):
    """The set of slot permutations of the group generated by pattern
    automorphisms and one index permutation per part, each a tuple listing
    the image of every slot, built from vertex maps.  pool names the index
    permutations: "full" (S_n, so the group is S_n wr Aut(pattern)),
    "cyclic" (the shifts a -> a + t mod n) or "identity"."""
    from satblow import BlowupHost

    slots = BlowupHost(pattern, n).slots()
    index = {
        frozenset(((x.part, x.index), (y.part, y.index))): k
        for k, (x, y) in enumerate(slots)
    }
    if pool == "full":
        perms = list(itertools.permutations(range(1, n + 1)))
    elif pool == "cyclic":
        perms = [tuple((a + t) % n + 1 for a in range(n)) for t in range(n)]
    else:
        perms = [tuple(range(1, n + 1))]
    v = pattern.vertex_count
    rows = set()
    for aut in brute_automorphisms(pattern):
        for shuffles in itertools.product(perms, repeat=v):
            def image(x):
                part = aut[x.part - 1] + 1
                return (part, shuffles[part - 1][x.index - 1])

            rows.add(
                tuple(index[frozenset((image(x), image(y)))] for x, y in slots)
            )
    return rows


def brute_threshold(g, chosen):
    """The first slot of the sorted tuple `chosen` missing from its image
    under the slot permutation g, or None when g fixes it as a set."""
    held = {g[x] for x in chosen}
    return next((x for x in chosen if x not in held), None)


def brute_is_lex_leader(rows, chosen):
    """Is the sorted tuple `chosen` no greater than its sorted image under
    every slot permutation in rows?"""
    return all(tuple(sorted(g[k] for k in chosen)) >= tuple(chosen) for g in rows)


def brute_copy_masks(pattern, n):
    """Every partite copy of the pattern in H[n], as an int with one bit per
    slot it uses, slots numbered as in BlowupHost(pattern, n).slots()."""
    from satblow import BlowupHost

    slots = BlowupHost(pattern, n).slots()
    index = {
        frozenset(((x.part, x.index), (y.part, y.index))): k
        for k, (x, y) in enumerate(slots)
    }
    return [
        sum(
            1 << index[frozenset(((i, combo[i - 1]), (j, combo[j - 1])))]
            for i, j in pattern.edges
        )
        for combo in all_selections(pattern, n)
    ]


def brute_closes(copies, chosen, y):
    """Does slot y close a copy in the slot set `chosen` (an int) plus y?"""
    return any(c >> y & 1 and c & ~chosen & ~(1 << y) == 0 for c in copies)


def brute_valid_sets(pattern, n, require_free):
    """Every saturated (require_free) or extra-saturated slot set of H[n],
    as ints, found by trying all 2^L of them on the copy list."""
    copies = brute_copy_masks(pattern, n)
    L = len(pattern.edges) * n * n
    through = [[c ^ (1 << y) for c in copies if c >> y & 1] for y in range(L)]
    out = []
    for chosen in range(1 << L):
        if require_free and any(c & chosen == c for c in copies):
            continue
        if all(
            chosen >> y & 1 or any(r & chosen == r for r in through[y]) for y in range(L)
        ):
            out.append(chosen)
    return out


def brute_m_slots(sizes):
    """The vertex pairs in different parts of parts with these sizes, each
    vertex a 1-based (part, index) pair, in the order m_value numbers them."""
    verts = [(p + 1, i + 1) for p, size in enumerate(sizes) for i in range(size)]
    return [(x, y) for x, y in itertools.combinations(verts, 2) if x[0] != y[0]]


def brute_m_cliques(sizes, k):
    """Every k-clique on k different parts, as an int with one bit per slot
    of brute_m_slots(sizes), keyed by the set of its parts."""
    index = {pair: j for j, pair in enumerate(brute_m_slots(sizes))}
    verts = [(p + 1, i + 1) for p, size in enumerate(sizes) for i in range(size)]
    out = {}
    for combo in itertools.combinations(verts, k):
        parts = frozenset(x[0] for x in combo)
        if len(parts) == k:
            mask = sum(1 << index[pair] for pair in itertools.combinations(combo, 2))
            out.setdefault(parts, []).append(mask)
    return out


def brute_m_sets(sizes, s):
    """Every K_s-free slot set (an int over brute_m_slots(sizes)) holding a
    transversal K_{s-1} on every s - 1 parts, found by trying all 2^L sets.
    Only for at most 14 slots."""
    L = len(brute_m_slots(sizes))
    if L > 14:
        raise ValueError("brute_m_sets enumerates 2^L sets; keep L <= 14")
    cliques = [c for masks in brute_m_cliques(sizes, s).values() for c in masks]
    transversals = brute_m_cliques(sizes, s - 1)
    choices = [
        transversals.get(frozenset(parts), [])
        for parts in itertools.combinations(range(1, len(sizes) + 1), s - 1)
    ]
    return [
        chosen
        for chosen in range(1 << L)
        if not any(c & chosen == c for c in cliques)
        and all(any(t & chosen == t for t in masks) for masks in choices)
    ]


def brute_m_feasible(sizes, s):
    """Is there a K_s-free graph on parts of these sizes with a transversal
    K_{s-1} on every s - 1 parts?"""
    return bool(brute_m_sets(sizes, s))


def brute_m_group(sizes):
    """The set of slot permutations of brute_m_slots(sizes) that permuting
    the indices within each part induces, each a tuple listing the image of
    every slot, built from vertex maps."""
    slots = brute_m_slots(sizes)
    index = {frozenset(pair): k for k, pair in enumerate(slots)}
    rows = set()
    pools = [itertools.permutations(range(1, size + 1)) for size in sizes]
    for shuffles in itertools.product(*pools):
        def image(x):
            return (x[0], shuffles[x[0] - 1][x[1] - 1])

        rows.add(tuple(index[frozenset((image(x), image(y)))] for x, y in slots))
    return rows


def brute_free_set_counts(pattern, n):
    """counts[m]: how many partite-free slot sets of m slots H[n] has, found
    by trying all 2^L sets on the copy list."""
    return _free_set_counts(brute_copy_masks(pattern, n), len(pattern.edges) * n * n)


def brute_m_free_set_counts(sizes, s):
    """counts[m]: how many K_s-free slot sets of m slots the parts of these
    sizes have, found by trying all 2^L sets on the clique list."""
    cliques = [c for masks in brute_m_cliques(sizes, s).values() for c in masks]
    return _free_set_counts(cliques, len(brute_m_slots(sizes)))


def _free_set_counts(copies, L):
    counts = [0] * (L + 1)
    for chosen in range(1 << L):
        if not any(c & chosen == c for c in copies):
            counts[chosen.bit_count()] += 1
    return counts
