"""Self-tests of the ledger's statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ledger_stats as ls  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        p = ls.percentile([4.0, 1.0, 3.0, 2.0, 5.0], 50)
        self.assertEqual(p, {"value": 3.0, "n": 5, "beyond": 2})
        p90 = ls.percentile(list(range(1, 12)), 90)  # 1..11
        self.assertAlmostEqual(p90["value"], 10.0)
        self.assertEqual((p90["n"], p90["beyond"]), (11, 1))
        self.assertAlmostEqual(ls.percentile([0.0, 1.0], 25)["value"], 0.25)

    def test_sample_count_bounds_what_lies_beyond(self):
        values = [float(i) for i in range(100)]
        p90 = ls.percentile(values, 90)
        self.assertEqual(p90["n"], 100)
        self.assertEqual(p90["beyond"], 10)  # enough samples for a p90 claim

    def test_ties_do_not_count_as_beyond(self):
        self.assertEqual(ls.percentile([2.0] * 7, 90)["beyond"], 0)

    def test_empty_input_has_no_value(self):
        self.assertEqual(ls.percentile([], 50), {"value": None, "n": 0, "beyond": 0})


class GeomeanTest(unittest.TestCase):
    def test_geometric_mean(self):
        self.assertAlmostEqual(ls.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(ls.geomean([2.0, 8.0, 4.0]), 4.0)
        self.assertAlmostEqual(ls.geomean([3e-4]), 3e-4)

    def test_none_when_empty_and_rejects_nonpositive(self):
        self.assertIsNone(ls.geomean([]))
        with self.assertRaises(ValueError):
            ls.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            ls.geomean([1.0, math.nan])


class RatioTest(unittest.TestCase):
    def test_zero_denominator_is_null_not_zero(self):
        self.assertIsNone(ls.ratio(5.0, 0))
        self.assertIsNone(ls.ratio(0.0, 0.0))
        self.assertIsNone(ls.ratio(1.0, None))
        self.assertEqual(ls.ratio(0.0, 4.0), 0.0)
        self.assertEqual(ls.ratio(12307, 2140), 12307 / 2140)


def span(name, start_ms, end_ms, parent=-1, job=0):
    return [name, int(start_ms * 1e6), int(end_ms * 1e6), parent, job]


class SpanTreeTest(unittest.TestCase):
    # call [0,100) with stages [0,30) and [40,90); the second stage has a
    # child [50,70).  A second root [200,210) has no children.
    SPANS = [
        span("call.synthesizeAmplifier", 0, 100),
        span("stage.topology-select", 0, 30, parent=0),
        span("stage.layout", 40, 90, parent=0),
        span("inner", 50, 70, parent=2),
        span("replay.route", 200, 210, job=1),
    ]

    def test_self_time_is_duration_minus_children(self):
        selfs = ls.self_times(self.SPANS)
        for got, want in zip(selfs, [0.020, 0.030, 0.030, 0.020, 0.010]):
            self.assertAlmostEqual(got, want, places=12)

    def test_self_times_sum_to_root_durations(self):
        self.assertAlmostEqual(sum(ls.self_times(self.SPANS)), 0.110, places=12)

    def test_totals_by_name(self):
        totals = ls.span_totals(self.SPANS + [span("stage.layout", 300, 305)])
        total, own, count = totals["stage.layout"]
        self.assertAlmostEqual(total, 0.055, places=12)
        self.assertAlmostEqual(own, 0.035, places=12)
        self.assertEqual(count, 2)

    def test_residual_identity_holds_for_stage_children(self):
        # call self time (0.020) = residual; stages (0.030 + 0.050) + residual = 0.100
        self.assertLess(ls.residual_identity_error(self.SPANS), 1e-12)


class ExactCountersTest(unittest.TestCase):
    def test_exact_only_when_every_repetition_agrees(self):
        first = {"route.expansions": 10, "core.cache.hits": 5}
        second = {"route.expansions": 10, "core.cache.hits": 6}
        fresh = {"route.expansions": 99}  # another input set: not compared
        exact = ls.exact_counters([first, second, fresh])
        self.assertEqual(exact, {"core.cache.hits": False, "route.expansions": True})
        traced = {"route.expansions": 11, "core.cache.hits": 5}
        self.assertFalse(ls.exact_counters([first, first], traced)["route.expansions"])


if __name__ == "__main__":
    unittest.main()
