#!/usr/bin/env python3
"""Rebuild every closed-form table at desk scale and verify each row.

Each section prints the construction size, the closed form, and the verifier
verdict, so a single run visibly reconfirms the headline formulas:

  k4        18 n - 21 saturated subgraphs of K4[n]
  star      (r - 1) n^2, forced for every saturated subgraph of K_{1,r}[n]
  path      the even/odd quadratic for P_r[n]
  cliques   (2 n - 1) r (r - 1) / 2 extra-saturated subgraphs of K_r[n], an
            upper bound and not the minimum: for K3 it gives 6 n - 3 = 9, 15,
            21 at n = 2, 3, 4, where the exact minima are 6, 12 and 18
  trees     (|T| - 1) n extra-saturated subgraphs of T[n]
  bounds    8 n <= sat <= 18 n for K4[n], n >= 2, via multipartite witnesses
"""

import argparse
from itertools import product

from satblow import (
    ConstructionSpec,
    PatternGraph,
    is_extra_saturated,
    is_partite_saturated,
    kr_sat_bounds,
)

R_N = (("r", 4), ("n", 4))  # the key columns of the (r, n) families, as (label, width)
TREES = (("p3", PatternGraph.path(3)), ("p4", PatternGraph.path(4)),
         ("star-3", PatternGraph.star(3)))


def _verdict(flag: bool) -> str:
    return "ok" if flag else "MISMATCH"


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def _cells(values, widths) -> str:
    return " ".join(f"{v:>{w}}" for v, w in zip(values, widths))


def _r_n(pairs) -> list:
    return [((r, n), {"r": r, "n": n}) for r, n in pairs]


def family_table(title, family, check, head, rows) -> None:
    """One section: each row builds its ConstructionSpec, and is ok when its
    edge count equals the closed form and check passes.  head holds (label,
    width) for each key column and, last, for the closed form; each row is
    its key cells and the spec fields of its graph."""
    section(title)
    labels, widths = zip(*head)
    print(f"{_cells(labels[:-1], widths)} {'edges':>8} {labels[-1]:>{widths[-1]}}  verified")
    for cells, fields in rows:
        spec = ConstructionSpec(family, **fields)
        G = spec.build()
        edges, formula = G.edge_count(), spec.formula_value()
        good = edges == formula and check(G).ok
        print(f"{_cells(cells, widths)} {edges:>8} {formula:>{widths[-1]}}  {_verdict(good)}")


def bounds_table(n_max: int) -> None:
    section("saturation bounds for K4 blow-ups")
    print(f"{'n':>4} {'lower 8n':>9} {'upper 18n':>10}")
    for n in range(2, n_max + 1):  # the lower bound needs n >= 2
        b = kr_sat_bounds(4, n)
        print(f"{n:>4} {b.lower:>9} {b.upper:>10}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k4-max-n", type=int, default=12)
    parser.add_argument("--bounds-max-n", type=int, default=8)
    args = parser.parse_args()
    n_max = args.k4_max_n
    family_table(f"saturated K4 blow-ups, n = 3..{n_max}", "k4", is_partite_saturated,
                 (("n", 4), ("18n-21", 8)), [((n,), {"n": n}) for n in range(3, n_max + 1)])
    family_table("saturated star blow-ups (every saturated graph has this size)", "star",
                 is_partite_saturated, R_N + (("(r-1)n^2", 9),), _r_n(product((2, 3, 4), repeat=2)))
    family_table("saturated path blow-ups, n = 2r .. 2r+2", "path", is_partite_saturated,
                 R_N + (("formula", 8),),
                 _r_n((r, n) for r in (4, 5, 6) for n in range(2 * r, 2 * r + 3)))
    family_table("extra-saturated clique blow-ups", "clique-exsat", is_extra_saturated,
                 R_N + (("(2n-1)e", 8),), _r_n(product((3, 4), (2, 3, 4))))
    family_table("extra-saturated tree blow-ups", "tree-exsat", is_extra_saturated,
                 (("tree", 8), ("n", 4), ("(v-1)n", 8)),
                 [((name, n), {"pattern": T, "n": n}) for name, T in TREES for n in (4, 5, 6)])
    bounds_table(args.bounds_max_n)


if __name__ == "__main__":
    main()
