"""Command line front end.

One JSON document per invocation on stdout (the table subcommand can emit
aligned text instead).  Exit codes: 0 when a verdict or value was computed,
even a failing verdict; 2 on malformed input or bad arguments; 3 on every
UNKNOWN: the wall-clock budget ran out, the exact walk's copy table would
pass its cap (see solve.SolveResult), or an m-value search reached
max_vertices without a witness.  An error, bad arguments included, is one
line on stderr, and so is each warning.
Copy counts are printed as decimal strings so that arbitrarily large
values survive JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Optional

from .constructions import FAMILIES, ConstructionSpec
from .core import (
    PartiteGraph,
    PartiteVertex,
    count_copies_through,
    count_partite_copies,
)
from .formats import load_blowup_graph, resolve_pattern, save_blowup_graph
from .mvalue import kr_sat_bounds, m_value
from .solve import min_exsat_exact, min_sat_exact
from .verify import (
    Verdict,
    _k4_lemmas,
    is_extra_saturated,
    is_partite_free,
    is_partite_saturated,
)


def _parse_vertex_token(token: str) -> PartiteVertex:
    try:
        part, index = token.split(".")
        return PartiteVertex(int(part), int(index))
    except ValueError:
        raise ValueError(f"expected a part.index vertex token, got {token!r}") from None


def _witness_json(verdict: Verdict):
    w = verdict.witness
    if w is None:
        return None
    if hasattr(w, "indices"):  # a partite copy
        return {
            "kind": "copy",
            "vertices": [str(v) for v in w.vertices()],
        }
    u, v = w
    return {"kind": "non_edge", "u": str(u), "v": str(v)}


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _check_output(path: str) -> None:
    """Refuse an output path that cannot be a file: checked before the
    work, so a long search never ends in a failed write."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"output path {path!r} is in a missing directory")


_CHECKS = {
    "free": is_partite_free,
    "saturated": is_partite_saturated,
    "extra-saturated": is_extra_saturated,
}


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    _check_output(args.output)
    pattern = resolve_pattern(args.pattern) if args.pattern else None
    spec = ConstructionSpec(
        family=args.family, n=args.n, r=args.r, pattern=pattern, seed=args.seed
    )
    G = spec.build()
    comment = f"family={args.family} n={args.n} edges={G.edge_count()}"
    save_blowup_graph(G, args.output, comment)
    _print_json(
        {
            "family": args.family,
            "n": args.n,
            "r": args.r,
            "pattern": args.pattern,
            "edges": G.edge_count(),
            "formula_edges": spec.formula_value(),
            "output": args.output,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    G = load_blowup_graph(args.graph)
    verdict = _CHECKS[args.check](G)
    checks = None
    if args.k4_lemmas:
        saturation = verdict if args.check == "saturated" else None
        checks = [
            {
                "name": c.name,
                "status": c.status,
                "counterexample": None if c.counterexample is None else str(c.counterexample),
                "note": c.note,
            }
            for c in _k4_lemmas(G, saturation)
        ]
    _print_json(
        {
            "status": verdict.status.value,
            "witness": _witness_json(verdict),
            "count": None
            if verdict.baseline_count is None
            else str(verdict.baseline_count),
            "checks": checks,
        }
    )
    return 0


def _cmd_count(args) -> int:
    G = load_blowup_graph(args.graph)
    doc = {"edges": G.edge_count()}
    if args.through:
        u = _parse_vertex_token(args.through[0])
        v = _parse_vertex_token(args.through[1])
        doc["through"] = {"u": args.through[0], "v": args.through[1]}
        doc["count"] = str(count_copies_through(G, u, v))
    else:
        doc["through"] = None
        doc["count"] = str(count_partite_copies(G))
    _print_json(doc)
    return 0


def _cmd_solve(args) -> int:
    if args.witness_out:
        _check_output(args.witness_out)
    pattern = resolve_pattern(args.pattern)
    solver = min_sat_exact if args.mode == "sat" else min_exsat_exact
    result = solver(
        pattern,
        args.n,
        budget=args.budget,
        use_symmetry=not args.no_symmetry,
        seed=args.seed,
    )
    witness_path = None
    if args.witness_out and result.witness is not None:
        label = result.value if result.value is not None else "UNKNOWN"
        save_blowup_graph(
            result.witness,
            args.witness_out,
            f"mode={args.mode} pattern={args.pattern} n={args.n} value={label}",
        )
        witness_path = args.witness_out
    _print_json(
        {
            "mode": args.mode,
            "pattern": args.pattern,
            "n": args.n,
            "value": "UNKNOWN" if result.value is None else result.value,
            "lower_bound": result.lower_bound,
            "upper_bound": result.upper_bound,
            "nodes": result.nodes_explored,
            "elapsed": round(result.elapsed, 3),
            "witness_edges": None
            if result.witness is None
            else result.witness.edge_count(),
            "witness_path": witness_path,
            "stats": result.stats,
        }
    )
    return 3 if result.value is None else 0


def _cmd_mvalue(args) -> int:
    result = m_value(args.r, args.s, args.max_vertices, args.budget)
    witness = None
    if result.witness is not None:
        witness = {
            "part_sizes": list(result.witness.part_sizes),
            "edges": sorted(
                f"{p}.{i} {q}.{j}" for (p, i), (q, j) in result.witness.edges
            ),
        }
    _print_json(
        {
            "r": args.r,
            "s": args.s,
            "value": "UNKNOWN" if result.value is None else result.value,
            "witness": witness,
            "nodes": result.nodes_explored,
            "elapsed": round(result.elapsed, 3),
            "stats": result.stats,
        }
    )
    return 3 if result.value is None else 0


def _cmd_bounds(args) -> int:
    result = kr_sat_bounds(
        args.r, args.n, max_vertices=args.max_vertices, budget=args.budget
    )
    _print_json(
        {
            "r": args.r,
            "n": args.n,
            "lower": result.lower,
            "upper": result.upper,
            "m_lower": "UNKNOWN" if result.m_lower.value is None else result.m_lower.value,
            "m_upper": "UNKNOWN" if result.m_upper.value is None else result.m_upper.value,
        }
    )
    return 3 if result.m_lower.value is None or result.m_upper.value is None else 0


def _parse_n_range(text: str) -> range:
    lo, colon, hi = text.partition(":")
    if not colon:
        raise ValueError(f"expected LOW:HIGH, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"expected LOW:HIGH, got {text!r}") from None
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return range(a, b + 1)


def _cmd_table(args) -> int:
    pattern = resolve_pattern(args.pattern) if args.pattern else None
    rows = []
    for n in _parse_n_range(args.n_range):
        spec = ConstructionSpec(family=args.family, n=n, r=args.r, pattern=pattern)
        rows.append({"n": n, "edges": spec.formula_value()})
    if args.format == "text":
        print(f"{'n':>8} {'edges':>12}")
        for row in rows:
            print(f"{row['n']:>8} {row['edges']:>12}")
    else:
        _print_json({"family": args.family, "r": args.r, "pattern": args.pattern, "rows": rows})
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take one line, as every other error
    of the CLI does: the message, then the usage run together."""

    def error(self, message: str):
        usage = " ".join(self.format_usage().split())
        self.exit(2, f"error: {message} ({usage})\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satblow",
        description="Build, verify and exactly solve partite saturation "
        "problems in blown-up pattern graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pattern_help = "built-in name (k2..k6, p3..p8, c4..c8, star-2..star-6) or a .pat file"

    p = sub.add_parser("construct", help="build a named family and write a .pbg file")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("-n", type=int, required=True, help="part size")
    p.add_argument("-r", type=int, help="parameter for star, path and clique-exsat")
    p.add_argument("--pattern", help=pattern_help)
    p.add_argument("--seed", type=int, help="required by two-connected")
    p.add_argument("-o", "--output", required=True, help="output .pbg path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a .pbg graph for a saturation property")
    p.add_argument("graph", help="input .pbg path")
    p.add_argument("--check", choices=tuple(_CHECKS), default="saturated")
    p.add_argument(
        "--k4-lemmas",
        action="store_true",
        help="also run the structural checks for saturated K4 blow-ups",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="count partite copies in a .pbg graph")
    p.add_argument("graph", help="input .pbg path")
    p.add_argument(
        "--through",
        nargs=2,
        metavar=("U", "V"),
        help="count copies through the slot U V given as part.index tokens, "
        "the slot being treated as present",
    )
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("solve", help="exact minimum saturated or extra-saturated size")
    p.add_argument("mode", choices=("sat", "exsat"))
    p.add_argument("--pattern", required=True, help=pattern_help)
    p.add_argument("-n", type=int, required=True, help="part size")
    p.add_argument("--budget", type=float, help="wall clock limit in seconds")
    p.add_argument("--seed", type=int, default=0, help="seed for the greedy upper bound")
    p.add_argument(
        "--no-symmetry",
        action="store_true",
        help="disable isomorph rejection (for cross-checking on tiny hosts)",
    )
    p.add_argument("--witness-out", help="write the witness graph to this .pbg path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "mvalue", help="smallest covering clique-free multipartite witness"
    )
    p.add_argument("-r", type=int, required=True, help="number of parts")
    p.add_argument("-s", type=int, required=True, help="forbidden clique size")
    p.add_argument("--max-vertices", type=int, help="stop after this many vertices")
    p.add_argument("--budget", type=float, help="wall clock limit in seconds")
    p.set_defaults(func=_cmd_mvalue)

    p = sub.add_parser("bounds", help="linear bounds for saturated clique blow-ups")
    p.add_argument("-r", type=int, required=True, help="clique size, at least 4")
    p.add_argument("-n", type=int, required=True, help="part size")
    p.add_argument("--max-vertices", type=int)
    p.add_argument(
        "--budget",
        type=float,
        help="wall clock limit in seconds for both m-value searches together",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", help="closed-form edge counts over a range of n")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n-range", required=True, help="inclusive range LOW:HIGH")
    p.add_argument("-r", type=int)
    p.add_argument("--pattern", help=pattern_help)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # warnings (a construction outside its verified range) are about a
    # result, so they are printed one line each, and only when there is one
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except (ValueError, OSError) as exc:  # FormatError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
