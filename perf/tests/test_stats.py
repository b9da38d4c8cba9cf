"""Unit tests of the benchmark's statistics and output checks.

    python3 -m unittest discover -s perf/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


def rep(config="w", signature="s", ok=True, kind="run", **extra):
    r = {"kind": kind, "config": config, "ok": ok, "error": "" if ok else "boom",
         "signature": signature, "fallback": "", "virt_step_ps": 5,
         "msgs": 10, "posts": 20}
    r.update(extra)
    return r


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        q1, mid, q3 = stats.quartiles(values)
        self.assertEqual([q1, mid, q3], statistics.quantiles(values, n=4))
        self.assertEqual(mid, stats.median(values))

    def test_single_sample_has_zero_spread(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.relative_spread([4.0]), 0.0)

    def test_relative_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / mid)


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail_percentile(0))
        self.assertIsNone(stats.tail_percentile(19))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(20), 50.0)   # 10 beyond p50
        self.assertEqual(stats.tail_percentile(39), 50.0)   # 9 beyond p75
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_samples_beyond_counts_above_the_nearest_rank(self):
        self.assertEqual(stats.samples_beyond(20, 50.0), 10)
        self.assertEqual(stats.samples_beyond(21, 50.0), 10)
        self.assertEqual(stats.samples_beyond(100, 90.0), 10)

    def test_percentile_value_is_nearest_rank(self):
        values = list(range(1, 21))
        self.assertEqual(stats.percentile_value(values, 50.0), 10)
        self.assertEqual(stats.percentile_value(values, 100.0), 20)

    def test_summary_reports_count_and_tail(self):
        s = stats.summarize([float(v) for v in range(1, 21)])
        self.assertEqual(s["n"], 20)
        self.assertAlmostEqual(s["spread"], stats.relative_spread(
            [float(v) for v in range(1, 21)]))
        self.assertEqual(s["tail_p"], 50.0)
        self.assertEqual(s["tail_value"], 10.0)
        self.assertIsNone(stats.summarize([1.0, 2.0])["tail_p"])


class StealFilter(unittest.TestCase):
    @staticmethod
    def reps(pairs):
        return [{"steal_ticks": t, "wall_s": w} for t, w in pairs]

    def test_rate_is_ticks_per_second(self):
        self.assertEqual(stats.steal_rate({"steal_ticks": 30, "wall_s": 1.5}), 20.0)
        self.assertEqual(stats.steal_rate({"steal_ticks": 3, "wall_s": 0.0}), 0.0)

    def test_nothing_stolen_keeps_every_call(self):
        reps = self.reps([(0, 1.0), (0, 1.3), (0, 0.9)])
        self.assertEqual(stats.low_steal(reps), reps)

    def test_steady_steal_keeps_every_call_and_the_plain_median(self):
        # Every call loses the same share to steal, so ticks grow with the
        # call's length. No call is singled out and the median is the plain
        # one; a fit on raw ticks would have driven it towards 0.
        walls = [1.0, 1.2, 1.4, 1.6, 2.0]
        reps = self.reps([(10 * w, w) for w in walls])
        kept = stats.low_steal(reps)
        self.assertEqual(kept, reps)
        self.assertEqual(stats.median([r["wall_s"] for r in kept]), 1.4)

    def test_a_burst_drops_the_calls_it_hit(self):
        reps = self.reps([(2, 2.0), (1, 2.1), (40, 3.0), (2, 1.9), (60, 3.4)])
        kept = stats.low_steal(reps)
        self.assertEqual([r["wall_s"] for r in kept], [2.0, 2.1, 1.9])

    def test_no_calls_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.low_steal([])


class FailureCounting(unittest.TestCase):
    def test_clean_set_has_no_failures(self):
        reps = [rep(), rep(), rep(config="w@setup", signature="z")]
        self.assertEqual(stats.count_failures(reps), (3, 0, []))
        self.assertEqual(stats.pass_fraction(3, 0), 1.0)

    def test_throw_counts_as_failure(self):
        attempted, failed, reasons = stats.count_failures([rep(), rep(ok=False)])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("threw", reasons[0])

    def test_minority_signature_fails_against_the_majority(self):
        reps = [rep(signature="a"), rep(signature="b"), rep(signature="a")]
        attempted, failed, _ = stats.count_failures(reps)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertAlmostEqual(stats.pass_fraction(attempted, failed), 2 / 3)

    def test_signatures_compare_only_within_a_config(self):
        reps = [rep(config="w", signature="a"), rep(config="w@setup", signature="b")]
        self.assertEqual(stats.count_failures(reps)[1], 0)

    def test_silent_serial_fallback_fails(self):
        _, failed, reasons = stats.count_failures([rep(fallback="streaming metrics")])
        self.assertEqual(failed, 1)
        self.assertIn("fell back", reasons[0])

    def test_verification_tolerance(self):
        good = rep(l2_error=5e-5, linf_error=6e-4)
        bad = rep(l2_error=5e-5, linf_error=1.0)
        nan = rep(l2_error=float("nan"), linf_error=6e-4)
        for r, fails in ((good, 0), (bad, 1), (nan, 1)):
            self.assertEqual(stats.count_failures([r])[1], fails)

    def test_coordinator_contract(self):
        serial = rep(kind="contract", config="halo@serial")
        parallel = rep(kind="contract", config="halo@parallel")
        self.assertEqual(stats.count_failures([serial, parallel])[1], 0)
        drift = dict(parallel, posts=21)
        attempted, failed, reasons = stats.count_failures([serial, drift])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("posts", reasons[0])
        _, failed, _ = stats.count_failures([serial])
        self.assertEqual(failed, 1)


class PairedRatio(unittest.TestCase):
    def test_median_of_per_pair_ratios_in_either_order(self):
        reps = [rep(kind="traced", wall_s=2.2), rep(kind="run", wall_s=2.0),
                rep(kind="run", wall_s=4.0), rep(kind="traced", wall_s=4.8),
                rep(kind="traced", wall_s=3.0), rep(kind="run", wall_s=3.0),
                rep(kind="contract", wall_s=9.0)]
        self.assertAlmostEqual(stats.paired_ratio(reps), 1.1)

    def test_pairs_with_a_failed_side_are_skipped(self):
        reps = [rep(kind="traced", wall_s=2.0), rep(kind="run", wall_s=1.0, ok=False),
                rep(kind="run", wall_s=2.0), rep(kind="traced", wall_s=3.0)]
        self.assertAlmostEqual(stats.paired_ratio(reps), 1.5)
        with self.assertRaises(ValueError):
            stats.paired_ratio(reps[:2])


class Estimates(unittest.TestCase):
    def test_per_op_cost_times_count(self):
        self.assertAlmostEqual(stats.estimate_seconds(2.5, 400_000), 1.0)
        self.assertEqual(stats.estimate_seconds(2.5, 0), 0.0)

    def test_count_over_rate(self):
        self.assertAlmostEqual(stats.rate_estimate_seconds(20e6, 10e6), 2.0)
        self.assertEqual(stats.rate_estimate_seconds(5, 0.0), 0.0)


class PositiveMetrics(unittest.TestCase):
    def test_zero_or_negative_metric_is_an_error(self):
        ok = {"run_s": {"value": 1.5, "unit": "s"}}
        stats.check_positive(ok)
        for bad in (0.0, -0.2, float("nan")):
            with self.assertRaises(ValueError):
                stats.check_positive(dict(ok, setup_s={"value": bad, "unit": "s"}))


if __name__ == "__main__":
    unittest.main()
