#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic (metrics.py).

    python3 perfbench/test_metrics.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def request(status="ok", within_budget=True, matches=True, latency=1.0):
    return {"status": status, "within_budget": within_budget,
            "matches_reference": matches, "latency_ms": latency}


def span(name, start, end, parent=-1, req=1):
    return {"name": name, "start_ms": start, "end_ms": end,
            "parent": parent, "request": req}


class PercentileRule(unittest.TestCase):
    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(metrics.median([]), 0.0)

    def test_p90_of_100_has_ten_beyond(self):
        value, beyond, qualified = metrics.percentile(range(1, 101), 90)
        self.assertEqual((value, beyond, qualified), (90, 10, True))

    def test_p90_of_99_is_not_qualified(self):
        value, beyond, qualified = metrics.percentile(range(1, 100), 90)
        self.assertEqual(value, 90)  # nearest rank ceil(0.9 * 99) = 90
        self.assertEqual(beyond, 9)
        self.assertFalse(qualified)

    def test_few_samples(self):
        value, beyond, qualified = metrics.percentile([5, 1, 3, 4], 90)
        self.assertEqual((value, beyond, qualified), (5, 0, False))
        value, beyond, _ = metrics.percentile([7], 50)
        self.assertEqual((value, beyond), (7, 0))

    def test_order_does_not_matter(self):
        data = list(range(200))
        shuffled = data[::7] + [x for x in data if x % 7]
        self.assertEqual(metrics.percentile(data, 90),
                         metrics.percentile(shuffled, 90))


class FailedShare(unittest.TestCase):
    def test_all_correct(self):
        self.assertEqual(metrics.failed_share([request()] * 4), 0.0)

    def test_each_kind_of_incorrect(self):
        requests = [request(), request(status="error"),
                    request(within_budget=False), request(matches=False),
                    request(status="service:kOverloaded")]
        self.assertAlmostEqual(metrics.failed_share(requests), 4 / 5.0)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(metrics.failed_share([]), 1.0)


class HitRatios(unittest.TestCase):
    def test_ratio(self):
        self.assertAlmostEqual(metrics.hit_ratio(3, 1), 0.75)
        self.assertEqual(metrics.hit_ratio(0, 5), 0.0)
        self.assertEqual(metrics.hit_ratio(5, 0), 1.0)
        self.assertEqual(metrics.hit_ratio(0, 0), 0.0)

    def test_cost_cache_ratio_sums_over_requests(self):
        raw = traced_raw()
        raw["requests"][0].update(stmt_costs_cached=30, stmt_costs_computed=10)
        raw["requests"][1].update(stmt_costs_cached=10, stmt_costs_computed=30)
        values = metrics.per_layer(raw)
        self.assertAlmostEqual(values["optimizer.cost_cache_hit_ratio"], 0.5)

    def test_estimation_cache_ratio_uses_run_totals(self):
        raw = traced_raw()
        raw.update(est_cache_hits=1, est_cache_misses=3)
        values = metrics.per_layer(raw)
        self.assertAlmostEqual(values["estimator.cache_hit_ratio"], 0.25)


class PhaseSelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("engine.tune", 0, 100),
                 span("advisor.a", 0, 30, parent=0),
                 span("advisor.b", 30, 90, parent=0)]
        self.assertEqual(metrics.self_times(spans), [10, 30, 60])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("root", 10, 50),
                 span("x", 0, 30, parent=0),
                 span("y", 20, 40, parent=0)]
        self.assertEqual(metrics.self_times(spans)[0], 10)

    def test_phases_from_callback_timestamps(self):
        # Hook timestamps 2, 7, 9, 10, 19 inside a run from 1 to 20.
        marks = [("candidates", 2), ("estimation", 7), ("selection", 9),
                 ("merging", 10), ("enumeration", 19)]
        spans = [span("request", 0, 21), span("engine.tune", 1, 20, parent=0)]
        prev = 1
        for phase, at in marks:
            spans.append(span("advisor." + phase, prev, at, parent=1))
            prev = at
        medians = metrics.span_self_medians(spans)
        self.assertEqual(medians["advisor.candidates"], 1)
        self.assertEqual(medians["advisor.estimation"], 5)
        self.assertEqual(medians["advisor.selection"], 2)
        self.assertEqual(medians["advisor.merging"], 1)
        self.assertEqual(medians["advisor.enumeration"], 9)
        self.assertEqual(medians["engine.tune"], 1)  # rendering after 19
        self.assertEqual(medians["request"], 2)

    def test_medians_are_per_request(self):
        spans = [span("advisor.a", 0, 4, req=1),
                 span("advisor.a", 0, 6, req=2),
                 span("advisor.a", 0, 100, req=0)]  # replay span: ignored
        self.assertEqual(metrics.span_self_medians(spans)["advisor.a"], 5)


def traced_raw():
    req = dict(request(), candidates=1, sampled=1, deduced=0, cost_pages=1,
               what_if_calls=1, stmt_costs_computed=1, stmt_costs_cached=0,
               queue_ms=0, run_ms=0, attempts=1, improvement_pct=1.0)
    return {
        "requests": [dict(req), dict(req)], "checks": {}, "spans": [],
        "replay": {"candidates": 3, "compressed": 2,
                   "sampling_fraction": 0.01, "samplecf_ms": [1],
                   "plan_ms": [1], "execute_ms": [1], "sample_ms": [1],
                   "materialize_ms": [1], "pack_ms": [1],
                   "cost_us": [1], "measure_ns": {"row": 20.0},
                   "measure_rows": {"row": 10.0}},
        "warmup_ms": [1], "build_ms": [1], "rows_scanned": 4,
        "est_cache_hits": 0, "est_cache_misses": 0,
        "service_degraded": 0, "service_rejected": 0,
    }


class PhaseShares(unittest.TestCase):
    def test_shares_of_traced_median(self):
        values = {"advisor.%s_ms" % p: v for p, v in
                  (("candidates", 1), ("estimation", 6), ("merging", 1),
                   ("selection", 4), ("enumeration", 6))}
        values["trace.tune_p50_ms"] = 20.0
        self.assertEqual(metrics.phase_shares(values), (0.4, 0.5))
        values["trace.tune_p50_ms"] = 0.0
        self.assertEqual(metrics.phase_shares(values), (0.0, 0.0))


class Result(unittest.TestCase):
    def test_traced_line_has_every_per_layer_metric(self):
        line, _ = metrics.result(traced_raw(), trace=True)
        self.assertEqual(set(line["metrics"]), set(metrics.PER_LAYER))
        self.assertEqual(
            line["metrics"]["compress.measure_ns_per_row.row"]["value"], 2.0)
        self.assertEqual(line["metrics"]["stats.rows_scanned"]["value"], 2.0)

    def test_untraced_line(self):
        raw = {"requests": [dict(request(latency=x), improvement_pct=5.0)
                            for x in (1, 2, 3, 4)],
               "checks": {"warmup_0_ok": True}, "setup_s": [3, 1, 2],
               "window_ms": 2000.0, "peak_rss_mb": 10.0, "clients": 1}
        raw["requests"][3]["status"] = "error"
        line, notes = metrics.result(raw, trace=False)
        self.assertEqual(set(line["metrics"]), set(metrics.END_TO_END))
        self.assertEqual((line["attempted"], line["failed"]), (4, 1))
        self.assertFalse(line["correct"])
        m = line["metrics"]
        self.assertEqual(m["setup_s"]["value"], 2)
        self.assertEqual(m["tune_p50_ms"]["value"], 2.5)
        self.assertEqual(m["requests_per_s"]["value"], 1.5)  # 3 ok in 2 s
        self.assertIn("failed_share 0.2500 (1 of 4 requests)", notes)

    def test_failed_check_makes_run_incorrect(self):
        raw = traced_raw()
        raw["checks"] = {"fresh_engine_ok": False}
        line, _ = metrics.result(raw, trace=True)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 0)


if __name__ == "__main__":
    unittest.main()
