"""Reference implementations, deliberately naive.

Everything here walks the full selection space with itertools so the bitmask
engine in satblow.core has something independent to disagree with.  Keep
these slow and obvious.
"""

import itertools
import warnings

from satblow import (
    BlowupHost,
    PartiteGraph,
    PartiteVertex,
    PatternGraph,
    constructions,
    greedy_saturate,
    is_partite_saturated,
)
from satblow.core import _closes_copy


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


def per_slot_first_uncovered(pattern, n, masks):
    """The least slot index k whose slot is a non-edge closing no copy, or
    None: one pinned search per non-edge, in slot order."""
    for k, (p, a, q, b) in enumerate(BlowupHost(pattern, n).ends0()):
        if not masks[p][a][q] >> b & 1:
            if not _closes_copy(pattern, n, masks, p, a, q, b):
                return k
    return None


def _brute_minimum(pattern, n, predicate):
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


def brute_need(host, masks, uncovered):
    """The exact walk's bundle-need bound, from its definition: a slot of
    the settled set `uncovered` joining x of part p to a vertex of part q
    puts x in need(p -> r) for each pattern neighbour r != q of p in which
    x has no neighbour in the graph held in masks, and likewise for its
    other end.  The bound sums, over the pattern edges {p, r}, the larger
    of |need(p -> r)| and |need(r -> p)|."""
    need = {}
    for k, (p, a, q, b) in enumerate(host.ends0()):
        if uncovered >> k & 1:
            for part, x, other in ((p, a, q), (q, b, p)):
                for r in host.pattern._adj0[part]:
                    if r != other and not masks[part][x][r]:
                        need.setdefault((part, r), set()).add(x)
    return sum(
        max(len(need.get((p - 1, r - 1), ())), len(need.get((r - 1, p - 1), ())))
        for p, r in host.pattern.edges
    )


def brute_reach(host, masks, uncovered, t, m):
    """The fewest slots of a valid set through a child P + (s,), s >= t, of
    the set P of m slots held in masks, whose non-edges that close no copy
    are `uncovered`, by the bundle-need bound: every slot below t that P
    lacks is settled for it."""
    return m + max(1, brute_need(host, masks, uncovered & (1 << t) - 1))


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


# --------------------------------------------------------------------------
# graph building and the .pbg round trip, the way they were written before
# both moved onto ints: every edge normalised through PartiteVertex and
# BlowupHost.is_allowed_slot, every "e" line checked through
# contains_vertex, and the edge lines dumped from sorted_edges().


def ref_edge_set(host, edges):
    """The edge set PartiteGraph(host, edges) holds; raises ValueError with
    the same text on the first edge that is not an allowed slot."""
    out = set()
    for (ip, ia), (jp, jb) in edges:
        u = PartiteVertex(int(ip), int(ia))
        v = PartiteVertex(int(jp), int(jb))
        if v < u:
            u, v = v, u
        if not host.is_allowed_slot(u, v):
            raise ValueError(f"edge {u}-{v} is not an allowed slot of this host")
        out.add((u, v))
    return frozenset(out)


def ref_masks(host, edge_set):
    """masks[p][a][q] with bit b set for each edge (p+1,a+1)-(q+1,b+1)."""
    v, n = host.pattern.vertex_count, host.n
    masks = [[[0] * v for _ in range(n)] for _ in range(v)]
    for x, y in edge_set:
        masks[x.part - 1][x.index - 1][y.part - 1] |= 1 << (y.index - 1)
        masks[y.part - 1][y.index - 1][x.part - 1] |= 1 << (x.index - 1)
    return masks


def ref_parse_blowup_graph(text):
    """(host, edge set) of a .pbg text, or the FormatError the parser raises."""
    from satblow.formats import (
        _MAX_MASKS,
        _MAX_PART_SIZE,
        FormatError,
        _header,
        _parse_endpoint,
        _pattern,
    )

    lines, (v, e, n) = _header(text, "blowup <vH> <eH> <n>", "pattern ", "part size")
    ln = lines[0][0]
    if n < 1:
        raise FormatError(ln, f"part size must be positive, got {n}")
    if n > _MAX_PART_SIZE:
        raise FormatError(ln, f"part size {n} is above the cap of {_MAX_PART_SIZE}")
    if v * v * n > _MAX_MASKS:
        raise FormatError(
            ln, f"{v} parts of size {n} need {v * v * n} masks, above the cap of {_MAX_MASKS}"
        )
    if len(lines) - 1 < e:
        raise FormatError(ln, f"header promises {e} pattern edges but file ends early")
    host = BlowupHost(_pattern(lines[1 : 1 + e], v, "p", "pattern "), n)
    edges = set()
    for ln, line in lines[1 + e :]:
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != "e":
            raise FormatError(ln, f"expected 'e <i>.<a> <j>.<b>', got {line!r}")
        pi, ai = _parse_endpoint(ln, tokens[1])
        pj, bj = _parse_endpoint(ln, tokens[2])
        u = PartiteVertex(pi, ai)
        w = PartiteVertex(pj, bj)
        if not host.contains_vertex(u):
            raise FormatError(ln, f"endpoint {pi}.{ai} out of range ({v} parts of size {n})")
        if not host.contains_vertex(w):
            raise FormatError(ln, f"endpoint {pj}.{bj} out of range ({v} parts of size {n})")
        if not host.is_allowed_slot(u, w):
            raise FormatError(
                ln, f"slot {pi}.{ai} {pj}.{bj} is not allowed, parts {pi} and {pj} are not pattern-adjacent"
            )
        key = (u, w) if u < w else (w, u)
        if key in edges:
            raise FormatError(ln, f"duplicate edge {pi}.{ai} {pj}.{bj}")
        edges.add(key)
    return host, frozenset(edges)


def ref_dump_blowup_graph(G, comment=None):
    """The .pbg text of G, its edge lines from G.sorted_edges()."""
    pattern = G.host.pattern
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"blowup {pattern.vertex_count} {pattern.edge_count()} {G.host.n}")
    lines.extend(f"p {i} {j}" for i, j in sorted(pattern.edges))
    lines.extend(f"e {u} {v}" for u, v in G.sorted_edges())
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# sample graphs shared by the test modules


def family_graphs():
    """One or more graphs of every construction family, greedy fills and
    an empty graph."""
    P = PatternGraph
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", constructions.VerificationRangeWarning)
        yield from (constructions.k4_construction(n) for n in (2, 3, 7))
        yield from (constructions.star_construction(r, n) for r, n in ((2, 3), (4, 5)))
        yield from (constructions.path_construction(r, n) for r, n in ((4, 8), (5, 7)))
        yield from constructions.two_connected_stages(P.cycle(4), 5)
        yield constructions.two_connected_upper(P.complete(3), 4, 7)
        yield from (constructions.clique_exsat_construction(r, n) for r, n in ((3, 4), (4, 3)))
        yield from (constructions.generic_exsat_construction(H, 4) for H in (P.cycle(5), P.path(4)))
        yield from (constructions.tree_exsat_construction(H, 5) for H in (P.star(3), P.path(5)))
    yield greedy_saturate(PartiteGraph(BlowupHost(P.cycle(5), 3)), 3)
    yield PartiteGraph(BlowupHost(P(4, [(1, 3), (2, 3)]), 2))
