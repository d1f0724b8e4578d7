"""Reduction of one raw ledger run to its metrics.

The C++ ledger binary (perfbench/src) records raw numbers: call times, traced
spans, work counters, checks.  This module turns them into the end-to-end
and per-layer metrics.  Ratios whose denominator is zero are None (printed
as null), never 0.
"""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between order
    statistics, with the number of samples and how many lie above it."""
    if not values:
        return {"value": None, "n": 0, "beyond": 0}
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return {"value": value, "n": len(xs), "beyond": sum(1 for x in xs if x > value)}


def geomean(values):
    """Geometric mean of positive values; None when there are none."""
    if not values:
        return None
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ValueError("geometric mean needs positive finite values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator, denominator):
    """numerator / denominator, or None when the denominator is zero."""
    if denominator in (0, None) or numerator is None:
        return None
    return numerator / denominator


def self_times(spans):
    """Per-span self time in seconds: duration minus the children's
    durations.  Spans are (name, start_ns, end_ns, parent_index, job); the
    recorder is single-threaded, so children never overlap each other."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [((end - start) - child_ns[i]) * 1e-9
            for i, (_, start, end, _, _) in enumerate(spans)]


def span_totals(spans):
    """name -> (summed duration s, summed self time s, count)."""
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, own, count = out.get(name, (0.0, 0.0, 0))
        out[name] = (total + (end - start) * 1e-9, own + selfs[i], count + 1)
    return out


def end_to_end(raw, setup_samples):
    """The end-to-end metrics of an untraced run, plus the figures the
    ledger prints beside them (sample counts, failures, area)."""
    calls = raw["call_s"]
    done = raw["designs_run"] - raw["designs_run_failed"]
    p50 = percentile(calls, 50)
    p90 = percentile(calls, 90)
    power = geomean(raw["power_w"])
    area = geomean(raw["area_lambda2"])
    return {
        "setup_s": statistics.median(setup_samples),
        "designs_per_s": ratio(done, sum(calls)),
        "call_s_p50": p50["value"],
        "call_s_p90": p90["value"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "power_mw_geomean": None if power is None else power * 1e3,
        "designs_failed_frac": ratio(raw["designs_failed"], raw["designs_attempted"]),
        "area_lambda2_geomean": area,
        "_samples": {"calls": p50["n"], "beyond_p90": p90["beyond"],
                     "setup": len(setup_samples), "designs": len(raw["power_w"])},
    }


def _sum(totals, *names):
    return sum(totals.get(n, (0.0, 0.0, 0))[0] for n in names)


def per_layer(raw):
    """Per-layer metrics of a traced run: name -> value (None = undefined)."""
    totals = span_totals(raw["spans"])
    c = raw["call_counters"]
    r = raw["replay_counters"]
    v = raw["values"]
    cnt = lambda name: c.get(name, 0)  # noqa: E731
    designs = raw["designs_run"] / max(raw["passes"], 1)

    select_s = _sum(totals, "stage.topology-select")
    verify_s = _sum(totals, "stage.verify-pre-layout", "stage.verify-post-layout")
    hunt_s = _sum(totals, "call.worstCaseCorner")
    robust_call_s = _sum(totals, "call.robustSynthesize")
    place_s = _sum(totals, "replay.place")
    route_s = _sum(totals, "replay.route")
    flow_self = totals.get("call.synthesizeAmplifier", (0.0, 0.0, 0))[1]
    sizing_s = select_s if select_s > 0 else robust_call_s
    sim_s = verify_s if verify_s > 0 else hunt_s
    speedup = ratio(v.get("pool.serial_s"), v.get("pool.parallel_s"))
    straggler = ratio(v.get("pool.slowest_serial_call_s"),
                      ratio(v.get("pool.serial_s"), v.get("pool.serial_calls")))
    ceiling = v.get("host.parallel_ceiling_x")
    hits, misses = cnt("core.cache.hits"), cnt("core.cache.misses")
    nominal_s = v.get("manufacture.nominal_s", 0.0)
    corner_s = v.get("manufacture.corner_search_s", 0.0)
    nominal_evals = v.get("manufacture.nominal_evals", 0.0)
    robust_evals = v.get("manufacture.robust_evals", 0.0)

    return {
        "flowgraph.attempts_per_design": ratio(cnt("core.flow.attempts"), designs),
        "flowgraph.residual_s": flow_self,
        "topology.select_s": select_s,
        "topology.library_build_s": raw["setup"]["library_build_s"],
        "sizing.cost_evals": cnt("sizing.cost_evals"),
        "sizing.us_per_cost_eval": _scaled(ratio(sizing_s, cnt("sizing.cost_evals")), 1e6),
        "knowledge.plan_s": _sum(totals, "stage.plan-candidate"),
        "layout.stage_s": _sum(totals, "stage.layout"),
        "layout.place_s": place_s,
        "layout.route_s": route_s,
        "route.expansions": cnt("route.expansions"),
        "layout.route_ns_per_expansion":
            _scaled(ratio(route_s, r.get("route.expansions", 0)), 1e9),
        "place.moves_attempted": cnt("place.moves_attempted"),
        "layout.place_us_per_move":
            _scaled(ratio(place_s, r.get("place.moves_attempted", 0)), 1e6),
        "layout.row_fallbacks": v.get("layout.row_fallbacks", 0.0),
        "extract.s": _sum(totals, "stage.extract"),
        "sim.verify_s": verify_s,
        "sim.newton_iterations": cnt("sim.newton_iterations"),
        "sim.lu_factorizations": cnt("sim.lu_factorizations"),
        "sim.lu_reuses": cnt("sim.lu_reuses"),
        "sim.dc_solves": cnt("sim.dc_solves"),
        "sim.ac_points": cnt("sim.ac_points"),
        "sim.sparse.analyses": cnt("sim.sparse.analyses"),
        "sim.sparse.pivot_drift": cnt("sim.sparse.pivot_drift"),
        "sim.failures": sum(val for key, val in c.items() if key.startswith("sim.fail.")),
        "sim.fallback_rungs": cnt("sim.strategy.gmin") + cnt("sim.strategy.source"),
        "sim.us_per_newton_iteration":
            _scaled(ratio(sim_s, cnt("sim.newton_iterations")), 1e6),
        "manufacture.hunt_s": hunt_s,
        "manufacture.nominal_s": nominal_s,
        "manufacture.corner_search_s": corner_s,
        "manufacture.nominal_evals": nominal_evals,
        "manufacture.robust_evals": robust_evals,
        "manufacture.corner_to_nominal_time_ratio": ratio(corner_s, nominal_s),
        "manufacture.corner_to_nominal_eval_ratio": ratio(robust_evals, nominal_evals),
        "evalcache.hits": hits,
        "evalcache.misses": misses,
        "evalcache.hit_ratio": ratio(hits, hits + misses),
        "evalcache.inserts": cnt("core.cache.inserts"),
        "evalcache.evictions": cnt("core.cache.evictions"),
        "evalcache.bypasses": cnt("core.cache.bypasses"),
        "evalcache.bytes": v.get("evalcache.bytes", 0.0),
        "pool.threads": raw["pool_threads"],
        "pool.speedup": speedup,
        "pool.efficiency_vs_ceiling": ratio(speedup, ceiling),
        "pool.straggler_ratio": straggler,
        "surrogate.predictions": cnt("core.surrogate.predictions"),
        "trace.overhead_frac": _minus_one(ratio(sum(raw["traced_call_s"]),
                                                sum(raw["untraced_set0_s"]))),
        "host.parallel_ceiling_x": ceiling,
    }


def _scaled(value, factor):
    return None if value is None else value * factor


def _minus_one(value):
    return None if value is None else value - 1.0


def residual_identity_error(spans):
    """|Σ stage spans + residual − call time| over the stage-wrapped flow
    calls, in seconds: zero up to rounding when spans account for every
    call."""
    selfs = self_times(spans)
    worst = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name != "call.synthesizeAmplifier":
            continue
        stages = sum((e - s) * 1e-9 for (n, s, e, p, _) in spans
                     if p == i and n.startswith("stage."))
        worst = max(worst, abs(stages + selfs[i] - (end - start) * 1e-9))
    return worst


def exact_counters(pass_counters, traced=None):
    """name -> True when the counter read the same in both repetitions of
    input set 0 (the first and the second) and, when given, in the traced
    repetition of it."""
    runs = list(pass_counters[:2]) + ([traced] if traced is not None else [])
    names = set().union(*runs) if runs else set()
    return {n: len({run.get(n, 0) for run in runs}) == 1 for n in sorted(names)}
