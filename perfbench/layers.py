"""Per-layer metrics of one traced pass, computed from its spans.

Layers are the package modules (core, constructions, verify, solve,
formats, cli), the benchmark's own code (bench) and import (setup).  A
span's module is the prefix of its name.  A module's self time is its
spans' durations minus the part covered by their child spans.

Every metric is always emitted, as 0 where the workload leaves the layer
idle, so that each traced run reports the same names.
"""

from __future__ import annotations

from workloads import SOLVE_LADDER, rung_tag

MODULES = ("core", "constructions", "verify", "solve", "formats", "cli")
SCAN_CALLS = ("verify.is_partite_saturated", "verify.is_extra_saturated")
EXACT_CALLS = ("solve.min_sat_exact", "solve.min_exsat_exact")
LADDER_TAGS = tuple(rung_tag(kind, p, n) for kind, p, n, _ in SOLVE_LADDER)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], setup: dict) -> dict:
    """Name -> value for one traced pass.  `setup` holds the child's
    import_s, numpy_import_s and raw_setup_s, and the pass's raw_wall_s
    and probe_share.  Times are in reference seconds (harness.RefClock),
    except the raw_ ones, which are perf_counter seconds."""
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for d, s in zip(dur, spans):
        if s["parent"] >= 0:
            child_time[s["parent"]] += d

    def total(pred) -> float:
        return sum(d for d, s in zip(dur, spans) if pred(s))

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def attr(pred, key) -> int:
        return sum(s["attrs"].get(key, 0) for s in spans if pred(s))

    def named(*names):
        return lambda s: s["name"] in names

    exact = named(*EXACT_CALLS)
    proved = lambda s: exact(s) and s["attrs"].get("exact")  # noqa: E731
    unknown = lambda s: exact(s) and s["attrs"].get("exact") is False  # noqa: E731
    scans = lambda s: s["name"] in SCAN_CALLS and s["tag"] == "scan"  # noqa: E731
    witness = lambda s: s["name"] in SCAN_CALLS and s["tag"] == "witness"  # noqa: E731
    through = named("core.count_copies_through")
    formats = lambda s: s["name"].startswith("formats.")  # noqa: E731

    exact_s = total(exact)
    all_nodes = attr(exact, "nodes")
    non_edges = attr(scans, "non_edges")
    through_s = total(through)
    through_calls = count(through)
    fmt_s = total(formats)
    fmt_bytes = attr(formats, "bytes")

    m = {
        "setup.import_s": setup["import_s"],
        "setup.numpy_import_s": setup["numpy_import_s"],
        "setup.raw_s": setup["raw_setup_s"],
        "solve.nodes": attr(proved, "nodes"),
        "solve.nodes_per_s": _ratio(all_nodes, exact_s),
        "solve.exact_s": exact_s,
    }
    for tag in LADDER_TAGS:
        m[f"solve.{tag}_s"] = total(lambda s: exact(s) and s["tag"] == tag)
    m.update(
        {
            "solve.mvalue_s": total(named("solve.m_value")),
            "solve.mvalue_nodes": attr(named("solve.m_value"), "nodes"),
            "solve.budget_overrun_s": sum(
                d - (s["attrs"]["budget"] or 0.0) for d, s in zip(dur, spans) if unknown(s)
            ),
            "solve.nodes_in_budget": attr(unknown, "nodes"),
            "solve.greedy_s": total(named("solve.greedy_saturate", "solve.greedy_extra_saturate")),
            "verify.scan_s": total(scans),
            "verify.scans": count(scans),
            "verify.non_edges": non_edges,
            "verify.us_per_non_edge": 1e6 * _ratio(total(scans), non_edges),
            "verify.lemma_s": total(named("verify.check_k4_lemmas")),
            "verify.witness_s": total(witness),
            "core.count_s": total(named("core.count_partite_copies")),
            "core.count_calls": count(named("core.count_partite_copies")),
            "core.through_s": through_s,
            "core.through_calls": through_calls,
            "core.us_per_through": 1e6 * _ratio(through_s, through_calls),
            "core.copies_total": attr(named("core.count_partite_copies"), "copies"),
            "constructions.build_s": total(lambda s: s["name"].startswith("constructions.")),
            "constructions.edges": attr(lambda s: s["name"].startswith("constructions."), "edges"),
            "formats.dump_s": total(named("formats.dump_blowup_graph")),
            "formats.parse_s": total(named("formats.parse_blowup_graph")),
            "formats.bytes": fmt_bytes,
            "formats.mb_per_s": _ratio(fmt_bytes / 1e6, fmt_s),
            "cli.main_s": total(named("cli.main")),
            "cli.calls": count(named("cli.main")),
        }
    )
    for module in MODULES + ("bench",):
        mine = [i for i, s in enumerate(spans) if s["name"].split(".", 1)[0] == module]
        m[f"{module}.self_s"] = sum(dur[i] - child_time[i] for i in mine)
        m[f"{module}.spans"] = len(mine)
    m["bench.raw_wall_s"] = setup["raw_wall_s"]
    m["bench.probe_share"] = setup["probe_share"]
    m["trace.spans"] = len(spans)
    return m
