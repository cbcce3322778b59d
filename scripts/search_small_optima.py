#!/usr/bin/env python3
"""Exact minima on small hosts, next to the best known constructions.

Runs the exact solver over a desk-scale grid and prints, per host, the true
minimum against the matching closed-form upper bound, flagging rows where a
construction is already optimal.  Instances that blow past the budget are
reported as UNKNOWN with the verified upper bound.
"""

import argparse

from satblow import ConstructionSpec, PatternGraph, min_exsat_exact, min_sat_exact

P3 = PatternGraph.path(3)

# each row: name, pattern, part sizes, and the ConstructionSpec fields other
# than n of the matching construction, or None
SAT_GRID = [
    ("k2", PatternGraph.complete(2), (2, 3, 4), None),
    ("star-2", PatternGraph.star(2), (2, 3), {"family": "star", "r": 2}),
    ("star-3", PatternGraph.star(3), (2,), {"family": "star", "r": 3}),
    ("k3", PatternGraph.complete(3), (2, 3), None),
    ("p4", PatternGraph.path(4), (2,), None),
]

EXSAT_GRID = [
    ("k2", PatternGraph.complete(2), (2, 3, 4), None),
    ("p3", P3, (2, 3, 4), {"family": "tree-exsat", "pattern": P3}),
    ("k3", PatternGraph.complete(3), (2,), {"family": "clique-exsat", "r": 3}),
]


def run_grid(title, grid, solver, budget):
    print()
    print(title)
    print("-" * len(title))
    print(f"{'pattern':>8} {'n':>3} {'minimum':>8} {'bound':>6} {'nodes':>9} {'time':>7}")
    for name, H, n_values, spec in grid:
        for n in n_values:
            result = solver(H, n, budget=budget)
            value = "UNKNOWN" if result.value is None else result.value
            bound = "" if spec is None else ConstructionSpec(n=n, **spec).formula_value()
            mark = ""
            if bound != "" and result.value is not None:
                mark = "  <- construction optimal" if result.value == bound else ""
            print(
                f"{name:>8} {n:>3} {value:>8} {str(bound):>6} "
                f"{result.nodes_explored:>9} {result.elapsed:>6.1f}s{mark}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget",
        type=float,
        default=300.0,
        help="per-instance wall clock budget in seconds",
    )
    args = parser.parse_args()
    run_grid("minimum saturated sizes", SAT_GRID, min_sat_exact, args.budget)
    run_grid("minimum extra-saturated sizes", EXSAT_GRID, min_exsat_exact, args.budget)


if __name__ == "__main__":
    main()
