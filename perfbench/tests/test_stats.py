"""Tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        self.assertEqual(stats.percentile(values, 0.0), 1.0)
        self.assertEqual(stats.percentile(values, 1.0), 100.0)
        self.assertAlmostEqual(stats.percentile(values, 0.5), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 0.9), 90.1)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 0.5), 3.0)
        self.assertEqual(stats.percentile(values, 0.25), 2.0)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7.5], 0.9), 7.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class TenBeyondRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(99, 0.9), 9)
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.samples_beyond(20, 0.5), 10)

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(stats.tail([1.0] * 99, 0.9))
        self.assertEqual(stats.tail([1.0] * 100, 0.9), 1.0)

    def test_p99_needs_a_thousand_samples(self):
        values = [float(v) for v in range(1000)]
        self.assertIsNone(stats.tail(values[:999], 0.99))
        self.assertAlmostEqual(stats.tail(values, 0.99), 989.01)


class Quartiles(unittest.TestCase):
    def test_quartiles_match_the_statistics_module(self):
        values = [10.0, 11.0, 9.5, 12.0, 10.5, 10.2, 9.9, 11.4, 10.8, 10.1]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, med, q3))

    def test_a_single_run_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0, 3.0))


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # due every 10 ms; the second request was sent 5 ms late because
        # the first reply took 15 ms
        due = [0.0, 10_000.0, 20_000.0]
        sent = [0.0, 15_000.0, 20_000.0]
        done = [15_000.0, 17_000.0, 21_000.0]
        latency, late = stats.open_loop(due, sent, done)
        self.assertEqual(latency, [15.0, 7.0, 1.0])
        self.assertEqual(late, [0.0, 5.0, 0.0])

    def test_early_wakeups_are_not_negative_lateness(self):
        _, late = stats.open_loop([1000.0], [999.0], [2000.0])
        self.assertEqual(late, [0.0])


class Glue(unittest.TestCase):
    def test_glue_from_a_fixture_manifest(self):
        with open(os.path.join(HERE, "fixtures", "run.json")) as f:
            manifest = json.load(f)
        sums, glue, share = stats.stage_times(manifest)
        self.assertEqual(sums["train"], 191.0 + 284.5)
        self.assertEqual(sums["audit"], 88.0 + 97.0)
        self.assertEqual(sums["remedy"], 2870.75)
        stages = 177.5 + 166.0 + 27.25 + 2870.75 + 191.0 + 284.5 + 88.0 + 97.0
        self.assertAlmostEqual(glue, 6000.5 - stages)
        self.assertAlmostEqual(share, (6000.5 - stages) / 6000.5)
        # stage times plus glue add up to total_ms
        self.assertAlmostEqual(sum(sums.values()) + glue, manifest["total_ms"])


if __name__ == "__main__":
    unittest.main()
