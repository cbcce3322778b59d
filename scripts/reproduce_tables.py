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
  bounds    8 n <= sat <= 18 n for K4[n] via multipartite witnesses
"""

import argparse

from satblow import (
    PatternGraph,
    clique_exsat_construction,
    clique_exsat_edges,
    is_extra_saturated,
    is_partite_saturated,
    k4_construction,
    k4_saturation_edges,
    kr_sat_bounds,
    path_construction,
    path_saturation_edges,
    star_construction,
    star_saturation_edges,
    tree_exsat_construction,
    tree_exsat_edges,
)


def _verdict(flag: bool) -> str:
    return "ok" if flag else "MISMATCH"


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def k4_table(n_max: int) -> None:
    section(f"saturated K4 blow-ups, n = 3..{n_max}")
    print(f"{'n':>4} {'edges':>8} {'18n-21':>8}  verified")
    for n in range(3, n_max + 1):
        G = k4_construction(n)
        good = G.edge_count() == k4_saturation_edges(n) and is_partite_saturated(G).ok
        print(f"{n:>4} {G.edge_count():>8} {k4_saturation_edges(n):>8}  {_verdict(good)}")


def star_table() -> None:
    section("saturated star blow-ups (every saturated graph has this size)")
    print(f"{'r':>4} {'n':>4} {'edges':>8} {'(r-1)n^2':>9}  verified")
    for r in (2, 3, 4):
        for n in (2, 3, 4):
            G = star_construction(r, n)
            good = (
                G.edge_count() == star_saturation_edges(r, n)
                and is_partite_saturated(G).ok
            )
            print(
                f"{r:>4} {n:>4} {G.edge_count():>8} "
                f"{star_saturation_edges(r, n):>9}  {_verdict(good)}"
            )


def path_table() -> None:
    section("saturated path blow-ups, n = 2r .. 2r+2")
    print(f"{'r':>4} {'n':>4} {'edges':>8} {'formula':>8}  verified")
    for r in (4, 5, 6):
        for n in range(2 * r, 2 * r + 3):
            G = path_construction(r, n)
            good = (
                G.edge_count() == path_saturation_edges(r, n)
                and is_partite_saturated(G).ok
            )
            print(
                f"{r:>4} {n:>4} {G.edge_count():>8} "
                f"{path_saturation_edges(r, n):>8}  {_verdict(good)}"
            )


def clique_exsat_table() -> None:
    section("extra-saturated clique blow-ups")
    print(f"{'r':>4} {'n':>4} {'edges':>8} {'(2n-1)e':>8}  verified")
    for r in (3, 4):
        for n in (2, 3, 4):
            G = clique_exsat_construction(r, n)
            good = (
                G.edge_count() == clique_exsat_edges(r, n)
                and is_extra_saturated(G).ok
            )
            print(
                f"{r:>4} {n:>4} {G.edge_count():>8} "
                f"{clique_exsat_edges(r, n):>8}  {_verdict(good)}"
            )


def tree_exsat_table() -> None:
    section("extra-saturated tree blow-ups")
    trees = [
        ("p3", PatternGraph.path(3)),
        ("p4", PatternGraph.path(4)),
        ("star-3", PatternGraph.star(3)),
    ]
    print(f"{'tree':>8} {'n':>4} {'edges':>8} {'(v-1)n':>8}  verified")
    for name, T in trees:
        for n in (4, 5, 6):
            G = tree_exsat_construction(T, n)
            good = (
                G.edge_count() == tree_exsat_edges(T, n) and is_extra_saturated(G).ok
            )
            print(
                f"{name:>8} {n:>4} {G.edge_count():>8} "
                f"{tree_exsat_edges(T, n):>8}  {_verdict(good)}"
            )


def bounds_table(n_max: int) -> None:
    section("saturation bounds for K4 blow-ups")
    print(f"{'n':>4} {'lower 8n':>9} {'upper 18n':>10}")
    for n in range(1, n_max + 1):
        b = kr_sat_bounds(4, n)
        print(f"{n:>4} {b.lower:>9} {b.upper:>10}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k4-max-n", type=int, default=12)
    parser.add_argument("--bounds-max-n", type=int, default=8)
    args = parser.parse_args()
    k4_table(args.k4_max_n)
    star_table()
    path_table()
    clique_exsat_table()
    tree_exsat_table()
    bounds_table(args.bounds_max_n)


if __name__ == "__main__":
    main()
