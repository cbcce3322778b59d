"""The benchmark's four workloads, each an input generator and a pass.

make_inputs(name, seed) builds a workload's inputs from the seed; the seed
never changes how much work a pass does by more than a few percent, so runs
with different seeds are comparable.  run_pass(name, rec, inputs) makes the
workload's public calls through the Recorder and checks every answer.

Why each workload exists (BENCHMARK.json gives each a one-line reason):

* solve-ladder: exact solves with no budget; frontier expansion and
  isomorph rejection in solve.py almost alone.
* proof-reach: the first open rung of three families under a fixed budget,
  each next to a base rung of the same family that proves; tracks whether
  the hard rungs reach a proof and what the K3[4] group table costs.
* verify-sweep: every construction family verified from the definition
  after a .pbg round trip, plus K4 lemmas, greedy fills and CLI calls; the
  copy engine's short-circuit search on large sparse hosts.
* count-dense: exact copy counts on dense random graphs; the counting path
  of the copy engine, which verify-sweep never reaches.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import satblow as sb
from satblow import cli

P = sb.PatternGraph

PATTERNS = {
    "k3": P.complete(3),
    "k4": P.complete(4),
    "k5": P.complete(5),
    "p3": P.path(3),
    "p4": P.path(4),
    "p5": P.path(5),
    "p6": P.path(6),
    "c4": P.cycle(4),
    "c5": P.cycle(5),
    "c6": P.cycle(6),
    "star3": P.star(3),
}

# (kind, pattern, n, exact minimum) for the unbudgeted ladder.
SOLVE_LADDER = (
    ("sat", "k3", 3, 12),
    ("sat", "p4", 3, 14),
    ("sat", "k4", 2, 16),
    ("exsat", "p3", 4, 8),
    ("exsat", "p4", 3, 9),
    ("exsat", "k3", 3, 12),
)
M_VALUE = (5, 3, 8)

# (kind, pattern, n, exact minimum or None while the rung is open).  Each
# open rung sits next to a base rung of its family that proves at once, so
# the count of proved rungs is never zero and rises when an open rung falls.
PROOF_REACH = (
    ("sat", "c4", 2, 8),
    ("sat", "c4", 3, None),
    ("sat", "k3", 2, 6),
    ("sat", "k3", 4, None),
    ("exsat", "p3", 3, 6),
    ("exsat", "p3", 5, None),
)
REACH_BUDGET_S = 6.0

# K4 hosts are fixed so that the dominant cost does not move with the seed.
K4_NS = (20, 32, 44, 56, 68, 80, 92)
K4_LEMMA_MIN_N = 22

# (pattern, n, edge density) for the dense counting graphs.
DENSE = (("c6", 12, 0.7), ("p6", 16, 0.6), ("k4", 16, 0.7), ("k5", 10, 0.7))


def rung_tag(kind: str, pattern: str, n: int) -> str:
    return f"{kind}_{pattern}_{n}"


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


def _solve_inputs(seed: int) -> dict:
    # The seed only orders the rungs: answers and node counts do not depend
    # on the order, so they repeat exactly from run to run.
    rungs = list(SOLVE_LADDER)
    random.Random(seed).shuffle(rungs)
    return {"rungs": rungs, "mvalue": M_VALUE}


def _reach_inputs(seed: int) -> dict:
    rungs = list(PROOF_REACH)
    random.Random(seed).shuffle(rungs)
    return {"rungs": rungs, "budget": REACH_BUDGET_S}


def _sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    jobs = [("k4", (n,), "sat") for n in K4_NS]
    jobs += [("star", (r, rng.randint(lo, lo + 3)), "sat") for r, lo in ((3, 16), (4, 10), (5, 7))]
    jobs += [("path", (r, rng.randint(2 * r, 2 * r + 4)), "sat") for r in (4, 5, 6)]
    jobs += [
        ("two_connected_upper", (name, rng.randint(lo, lo + 2), rng.randrange(1 << 30)), "sat")
        for name, lo in (("c4", 8), ("k3", 6), ("c5", 8), ("k4", 8))
    ]
    jobs += [
        ("clique_exsat", (r, rng.randint(lo, lo + 3)), "exsat")
        for r, lo in ((3, 24), (4, 16), (5, 8))
    ]
    jobs += [
        ("generic_exsat", (name, rng.randint(lo, lo + 3)), "exsat")
        for name, lo in (("c5", 10), ("p4", 16), ("k4", 8))
    ]
    jobs += [
        ("tree_exsat", (name, rng.randint(24, 30)), "exsat") for name in ("p5", "star3")
    ]
    rng.shuffle(jobs)
    greedy = [
        (r, n, rng.randrange(1 << 30)) for r, n in ((3, rng.randint(14, 18)), (4, rng.randint(9, 11)))
    ]
    return {"jobs": jobs, "greedy": greedy}


def _dense_inputs(seed: int) -> dict:
    # Each graph is a fixed random graph with its indices permuted within
    # every part by the seed.  Copy counts, and the work of counting them,
    # do not change under such a relabelling, so runs with different seeds
    # time the same work; a fresh random graph per seed moved the pass time
    # by a third.
    rng = random.Random(seed)
    graphs = []
    for k, (name, n, density) in enumerate(DENSE):
        host = sb.BlowupHost(PATTERNS[name], n)
        base = random.Random(k)
        edges = [s for s in host.slots() if base.random() < density]
        perm = {part: rng.sample(range(1, n + 1), n) for part in PATTERNS[name].vertices}
        edges = [((u.part, perm[u.part][u.index - 1]), (v.part, perm[v.part][v.index - 1])) for u, v in edges]
        graphs.append((f"{name}[{n}]", sb.PartiteGraph(host, edges)))
    return {"graphs": graphs}


def make_inputs(name: str, seed: int) -> dict:
    return {
        "solve-ladder": _solve_inputs,
        "proof-reach": _reach_inputs,
        "verify-sweep": _sweep_inputs,
        "count-dense": _dense_inputs,
    }[name](seed)


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def verify_call(rec, kind: str, G, tag: str):
    """is_partite_saturated or is_extra_saturated, with the scanned
    non-edge count attached to the span."""
    fn = sb.is_partite_saturated if kind == "sat" else sb.is_extra_saturated
    verdict = rec.call(f"verify.{fn.__name__}", fn, G, tag=tag)
    if rec.trace:
        rec.annotate(non_edges=_scanned_non_edges(G, verdict))
    return verdict


def _scanned_non_edges(G, verdict) -> int:
    if verdict.ok:
        return G.host.slot_count() - G.edge_count()
    if not isinstance(verdict.witness, tuple) or len(verdict.witness) != 2:
        return 0  # stopped at the free check, before the non-edge scan
    witness = tuple(verdict.witness)
    for k, slot in enumerate(G.allowed_non_edges(), start=1):
        if slot == witness:
            return k
    return 0


def solve_rung(rec, kind: str, pattern: str, n: int, expected, budget=None):
    """One exact solve, its answer and its witness checked.  Without a
    budget the value must equal `expected`; under a budget an UNKNOWN is
    allowed, and a value is accepted when its witness verifies and it lies
    between the proven lower bound and the greedy upper bound."""
    tag = rung_tag(kind, pattern, n)
    H = PATTERNS[pattern]
    fn = sb.min_sat_exact if kind == "sat" else sb.min_exsat_exact
    with rec.op(f"solve {tag}") as op:
        res = rec.call(f"solve.{fn.__name__}", fn, H, n, budget, tag=tag, wall_clock=budget is not None)
        rec.annotate(nodes=res.nodes_explored, exact=res.value is not None, budget=budget)
        witness = res.witness
        if res.value is None:
            op.unknown = True
            op.check(budget is not None, "UNKNOWN from an unbudgeted solve")
            op.check(expected is None, f"UNKNOWN where {expected} is known")
            if op.check(witness is not None, "UNKNOWN without an upper-bound witness"):
                op.check(witness.edge_count() == res.upper_bound, "upper bound is not the witness size")
                op.check(verify_call(rec, kind, witness, "witness").ok, "upper-bound witness fails")
            return
        if expected is not None:
            op.check(res.value == expected, f"value {res.value}, expected {expected}")
        else:
            empty = sb.PartiteGraph(sb.BlowupHost(H, n))
            greedy = sb.greedy_saturate if kind == "sat" else sb.greedy_extra_saturate
            ub = rec.call(f"solve.{greedy.__name__}", greedy, empty, 0, tag="bound").edge_count()
            lb = sb.saturation_lower_bound(H, n)
            op.check(lb <= res.value <= ub, f"value {res.value} outside [{lb}, {ub}]")
        if op.check(witness is not None, "exact value without a witness"):
            op.check(witness.edge_count() == res.value, "witness size differs from the value")
            op.check(verify_call(rec, kind, witness, "witness").ok, "witness fails re-verification")


def mvalue_op(rec, r: int, s: int, expected: int) -> None:
    with rec.op(f"m_value({r},{s})") as op:
        res = rec.call("solve.m_value", sb.m_value, r, s, tag=f"m_{r}_{s}")
        rec.annotate(nodes=res.nodes_explored, exact=res.value is not None)
        op.check(res.value == expected, f"m({r},{s}) = {res.value}, expected {expected}")
        W = res.witness
        if op.check(W is not None, "no witness"):
            op.check(len(W.part_sizes) == r and sum(W.part_sizes) == res.value, "witness shape")
            op.check(not W.has_clique(s), f"witness holds a K_{s}")
            op.check(
                all(
                    W.parts_have_transversal_clique(parts)
                    for parts in itertools.combinations(range(1, r + 1), s - 1)
                ),
                "a part subset lacks a transversal clique",
            )


_BUILDERS = {
    "k4": (sb.k4_construction, sb.k4_saturation_edges),
    "star": (sb.star_construction, sb.star_saturation_edges),
    "path": (sb.path_construction, sb.path_saturation_edges),
    "clique_exsat": (sb.clique_exsat_construction, sb.clique_exsat_edges),
    "generic_exsat": (sb.generic_exsat_construction, sb.generic_exsat_edges),
    "tree_exsat": (sb.tree_exsat_construction, sb.tree_exsat_edges),
}


def roundtrip(rec, G, op, tag: str):
    """dump_blowup_graph then parse_blowup_graph; returns the text and the
    parsed graph, which must equal G."""
    text = rec.call("formats.dump_blowup_graph", sb.dump_blowup_graph, G, tag=tag)
    rec.annotate(bytes=len(text.encode()))
    back = rec.call("formats.parse_blowup_graph", sb.parse_blowup_graph, text, tag=tag)
    rec.annotate(bytes=len(text.encode()))
    op.check(back == G, ".pbg round trip changed the graph")
    return text, back


def construction_op(rec, family: str, params: tuple, kind: str) -> str | None:
    """Build, check the size against the closed form, round-trip through
    .pbg and verify from the definition.  Returns the .pbg text."""
    tag = f"{family}{params}"
    with rec.op(f"construct {tag}") as op:
        if family == "two_connected_upper":
            name, n, seed = params
            H = PATTERNS[name]
            G = rec.call("constructions.two_connected_upper", sb.two_connected_upper, H, n, seed, tag=tag)
            bound = sb.two_connected_edge_bound(H, n)
            op.check(G.edge_count() <= bound, f"{G.edge_count()} edges > bound {bound}")
        else:
            build, formula = _BUILDERS[family]
            args = tuple(PATTERNS[p] if isinstance(p, str) else p for p in params)
            G = rec.call(f"constructions.{build.__name__}", build, *args, tag=tag)
            want = formula(*args)
            op.check(G.edge_count() == want, f"{G.edge_count()} edges, closed form {want}")
        rec.annotate(edges=G.edge_count())
        text, back = roundtrip(rec, G, op, tag)
        op.check(verify_call(rec, kind, back, "scan").ok, f"{kind} verdict fails")
        if family == "k4" and params[0] >= K4_LEMMA_MIN_N:
            checks = rec.call("verify.check_k4_lemmas", sb.check_k4_lemmas, back, tag=tag)
            op.check(sb.all_applicable_pass(checks), "a K4 lemma check fails")
        return text
    return None


def greedy_op(rec, r: int, n: int, seed: int) -> None:
    tag = f"star{r}[{n}]"
    with rec.op(f"greedy_saturate {tag}") as op:
        empty = sb.PartiteGraph(sb.BlowupHost(P.star(r), n))
        G = rec.call("solve.greedy_saturate", sb.greedy_saturate, empty, seed, tag=tag)
        want = sb.star_saturation_edges(r, n)
        op.check(G.edge_count() == want, f"{G.edge_count()} edges, star size is {want}")
        op.check(verify_call(rec, "sat", G, "scan").ok, "greedy star graph is not saturated")


def cli_op(rec, argv: list[str], check) -> None:
    """satblow.cli.main in process with stdout captured; `check` judges the
    parsed JSON document."""
    with rec.op("cli " + " ".join(argv[:1] + argv[2:])) as op:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rec.call("cli.main", cli.main, argv, tag=argv[0])
        if op.check(code == 0, f"exit code {code}"):
            for message in check(json.loads(out.getvalue())):
                op.check(False, message)


def dense_op(rec, label: str, G) -> None:
    """Copy count, through-count on every slot, and the extra-saturation
    verdict, cross-checked by two identities."""
    with rec.op(f"count {label}") as op:
        _, G = roundtrip(rec, G, op, label)
        copies = rec.call("core.count_partite_copies", sb.count_partite_copies, G, tag=label)
        rec.annotate(copies=copies)
        through = {}
        for u, v in G.host.slots():
            through[(u, v)] = rec.call("core.count_copies_through", sb.count_copies_through, G, u, v)
        e_H = G.host.pattern.edge_count()
        on_edges = sum(through[e] for e in G.edges)
        op.check(on_edges == e_H * copies, f"sum over edges {on_edges} != e(H) * {copies}")
        verdict = verify_call(rec, "exsat", G, "scan")
        every = all(c > 0 for s, c in through.items() if s not in G.edges)
        op.check(verdict.ok == every, "extra-saturation verdict disagrees with through-counts")
        op.check(verdict.baseline_count == copies, "verdict baseline differs from the count")


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


def _solve_pass(rec, inputs: dict, workdir: str) -> None:
    for kind, pattern, n, expected in inputs["rungs"]:
        solve_rung(rec, kind, pattern, n, expected)
    mvalue_op(rec, *inputs["mvalue"])


def _reach_pass(rec, inputs: dict, workdir: str) -> None:
    for kind, pattern, n, expected in inputs["rungs"]:
        solve_rung(rec, kind, pattern, n, expected, inputs["budget"])


def _sweep_pass(rec, inputs: dict, workdir: str) -> None:
    largest = None
    for family, params, kind in inputs["jobs"]:
        text = construction_op(rec, family, params, kind)
        if family == "k4" and params[0] == max(K4_NS):
            largest = text
    for r, n, seed in inputs["greedy"]:
        greedy_op(rec, r, n, seed)
    n = max(K4_NS)
    path = os.path.join(workdir, f"k4_{n}.pbg")
    with open(path, "w") as fh:
        fh.write(largest or "")

    def verify_ok(doc):
        if doc.get("status") != "ok":
            yield f"verify status {doc.get('status')}"
        if any(c["status"] == "fail" for c in doc.get("checks") or ()):
            yield "a K4 lemma check fails"

    def count_ok(doc):
        if doc.get("count") != "0":
            yield f"count {doc.get('count')} on a saturated graph"
        if doc.get("edges") != sb.k4_saturation_edges(n):
            yield f"edges {doc.get('edges')}"

    cli_op(rec, ["verify", path, "--k4-lemmas"], verify_ok)
    cli_op(rec, ["count", path], count_ok)


def _dense_pass(rec, inputs: dict, workdir: str) -> None:
    for label, G in inputs["graphs"]:
        dense_op(rec, label, G)


def run_pass(name: str, rec, inputs: dict, workdir: str) -> None:
    {
        "solve-ladder": _solve_pass,
        "proof-reach": _reach_pass,
        "verify-sweep": _sweep_pass,
        "count-dense": _dense_pass,
    }[name](rec, inputs, workdir)
