"""Turns one raw driver record into the benchmark's metrics.

The driver (driver.cc) only times calls, reads counters and checks
responses; every median, percentile, share, ratio and self time is
computed here, so test_metrics.py can check the arithmetic on its own.
"""
import math

# Every end-to-end metric, printed by untraced runs (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "tune_p50_ms": "ms",
    "tune_p90_ms": "ms",
    "requests_per_s": "1/s",
    "improvement_pct": "%",
    "peak_rss_mb": "MB",
}

PHASES = ("candidates", "estimation", "selection", "merging", "enumeration")
CODECS = ("none", "row", "page", "rle", "global_dict")

# Every per-layer metric, printed by traced runs (--trace 1).
PER_LAYER = dict(
    [("advisor.%s_ms" % p, "ms") for p in PHASES]
    + [("advisor.candidates", "count"),
       ("engine.overhead_ms", "ms"),
       ("engine.warmup_ms", "ms"),
       ("workloads.build_ms", "ms"),
       ("estimator.sampled", "count"),
       ("estimator.deduced", "count"),
       ("estimator.cost_pages", "pages"),
       ("estimator.cache_hit_ratio", "fraction"),
       ("estimator.samplecf_ms", "ms"),
       ("estimator.samplecf_calls", "count"),
       ("estimator.plan_ms", "ms"),
       ("estimator.execute_ms", "ms"),
       ("stats.rows_scanned", "count"),
       ("stats.sample_ms", "ms"),
       ("index.materialize_ms", "ms"),
       ("index.pack_ms", "ms")]
    + [("compress.measure_ns_per_row.%s" % c, "ns/row") for c in CODECS]
    + [("succinct.measure_ns_per_row.bitmap", "ns/row"),
       ("optimizer.what_if_calls", "count"),
       ("optimizer.stmt_costs_computed", "count"),
       ("optimizer.cost_cache_hit_ratio", "fraction"),
       ("optimizer.cost_us", "us"),
       ("service.queue_ms", "ms"),
       ("service.run_ms", "ms"),
       ("service.attempts", "count"),
       ("service.degraded", "count"),
       ("service.rejected", "count"),
       ("trace.tune_p50_ms", "ms"),
       ("trace.requests", "count")])

# A tail percentile is reported as qualified only with at least this many
# samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty list; 0.0 for an empty one."""
    if not values:
        return 0.0
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty list.

    Returns (value, beyond, qualified): `beyond` counts the samples ranked
    above the reported one, and the value is qualified only when at least
    MIN_BEYOND samples lie beyond it.
    """
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    beyond = len(s) - rank
    return s[rank - 1], beyond, beyond >= MIN_BEYOND


def request_correct(request):
    """A request counts as correct only when the engine said kOk, the design
    fits the budget and its JSON report equals the run's reference."""
    return (request["status"] == "ok" and request["within_budget"]
            and request["matches_reference"])


def failed_share(requests):
    """Requests that did not count as correct, over requests attempted."""
    if not requests:
        return 1.0
    failed = sum(1 for r in requests if not request_correct(r))
    return failed / float(len(requests))


def hit_ratio(hits, misses):
    """Served-from-cache share of all lookups; 0 when there were none."""
    total = hits + misses
    return hits / float(total) if total > 0 else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start_ms"], span["end_ms"]
        covered = 0.0
        cursor = start
        kids = sorted((max(start, spans[k]["start_ms"]),
                       min(end, spans[k]["end_ms"]))
                      for k in children.get(i, []))
        for lo, hi in kids:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def span_self_medians(spans):
    """Median self time per span name over request spans (request != 0),
    plus the per-request sum for names seen several times per request."""
    selfs = self_times(spans)
    per_request = {}
    for span, own in zip(spans, selfs):
        if span["request"] == 0:
            continue
        key = (span["name"], span["request"])
        per_request[key] = per_request.get(key, 0.0) + own
    by_name = {}
    for (name, _), total in per_request.items():
        by_name.setdefault(name, []).append(total)
    return {name: median(v) for name, v in by_name.items()}


def end_to_end(raw):
    """Every end-to-end metric of an untraced run, plus notes for people."""
    requests = raw["requests"]
    latencies = [r["latency_ms"] for r in requests]
    ok = sum(1 for r in requests if r["status"] == "ok")
    p90, beyond, qualified = percentile(latencies, 90)
    values = {
        "setup_s": median(raw["setup_s"]),
        "tune_p50_ms": median(latencies),
        "tune_p90_ms": p90,
        "requests_per_s": ok / (raw["window_ms"] / 1000.0),
        "improvement_pct": median([r["improvement_pct"] for r in requests]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = [
        "tune_p50_ms over %d requests at %d client(s)"
        % (len(latencies), raw["clients"]),
        "tune_p90_ms has %d samples beyond it%s"
        % (beyond, "" if qualified else
           " (fewer than %d: not a qualified tail)" % MIN_BEYOND),
        "failed_share %.4f (%d of %d requests)"
        % (failed_share(requests),
           sum(1 for r in requests if not request_correct(r)), len(requests)),
    ]
    return values, notes


def per_layer(raw):
    """Every per-layer metric of a traced run."""
    requests = raw["requests"]
    replay = raw["replay"]
    phases = span_self_medians(raw["spans"])

    def per_request(field):
        return median([r[field] for r in requests])

    values = {"advisor.%s_ms" % p: phases.get("advisor." + p, 0.0)
              for p in PHASES}
    ns, rows = replay["measure_ns"], replay["measure_rows"]
    for codec in CODECS + ("bitmap",):
        layer = "succinct" if codec == "bitmap" else "compress"
        values["%s.measure_ns_per_row.%s" % (layer, codec)] = (
            ns[codec] / rows[codec] if rows.get(codec) else 0.0)
    values.update({
        "advisor.candidates": per_request("candidates"),
        "engine.overhead_ms": phases.get("engine.tune", 0.0),
        "engine.warmup_ms": median(raw["warmup_ms"]),
        "workloads.build_ms": median(raw["build_ms"]),
        "estimator.sampled": per_request("sampled"),
        "estimator.deduced": per_request("deduced"),
        "estimator.cost_pages": per_request("cost_pages"),
        "estimator.cache_hit_ratio": hit_ratio(raw["est_cache_hits"],
                                               raw["est_cache_misses"]),
        "estimator.samplecf_ms": median(replay["samplecf_ms"]),
        "estimator.samplecf_calls": len(replay["samplecf_ms"]),
        "estimator.plan_ms": median(replay["plan_ms"]),
        "estimator.execute_ms": median(replay["execute_ms"]),
        "stats.rows_scanned": raw["rows_scanned"] / float(len(requests)),
        "stats.sample_ms": median(replay["sample_ms"]),
        "index.materialize_ms": median(replay["materialize_ms"]),
        "index.pack_ms": median(replay["pack_ms"]),
        "optimizer.what_if_calls": per_request("what_if_calls"),
        "optimizer.stmt_costs_computed": per_request("stmt_costs_computed"),
        "optimizer.cost_cache_hit_ratio": hit_ratio(
            sum(r["stmt_costs_cached"] for r in requests),
            sum(r["stmt_costs_computed"] for r in requests)),
        "optimizer.cost_us": median(replay["cost_us"]),
        "service.queue_ms": per_request("queue_ms"),
        "service.run_ms": per_request("run_ms"),
        "service.attempts": (sum(r["attempts"] for r in requests)
                             / float(len(requests))),
        "service.degraded": raw["service_degraded"],
        "service.rejected": raw["service_rejected"],
        "trace.tune_p50_ms": median([r["latency_ms"] for r in requests]),
        "trace.requests": len(requests),
    })
    return values


def phase_shares(values):
    """Shares of the traced median latency taken by the estimation-side
    phases (candidates + estimation + merging) and by the search phases
    (selection + enumeration): the layers each workload is chosen to load.
    """
    total = values["trace.tune_p50_ms"]
    if total <= 0:
        return 0.0, 0.0
    estimation = sum(values["advisor.%s_ms" % p]
                     for p in ("candidates", "estimation", "merging"))
    search = sum(values["advisor.%s_ms" % p]
                 for p in ("selection", "enumeration"))
    return estimation / total, search / total


def result(raw, trace):
    """The benchmark's final line as a dict, plus notes for people."""
    requests = raw["requests"]
    failed = sum(1 for r in requests if not request_correct(r))
    checks = raw["checks"]
    if trace:
        values = per_layer(raw)
        replay = raw["replay"]
        notes = [
            "estimation phases %.1f%%, search phases %.1f%% of the traced "
            "median latency" % tuple(100 * x for x in phase_shares(values)),
            "replayed %d candidates (%d compressed) at sampling fraction %g"
            % (replay["candidates"], replay["compressed"],
               replay["sampling_fraction"]),
        ]
        units = PER_LAYER
    else:
        values, notes = end_to_end(raw)
        units = END_TO_END
    notes += ["check %s: %s" % (name, "pass" if ok else "FAIL")
              for name, ok in sorted(checks.items())]
    line = {
        "correct": bool(requests) and failed == 0 and all(checks.values()),
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return line, notes
