"""Unit tests for the benchmark harness's statistics, output checks and
compare verdicts.  Run from the repository root:

  python3 bench_e2e/test_run.py
"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, run.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(run.rel_spread([2.5]), 0.0)

    def test_rel_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.rel_spread(values), (q3 - q1) / q2)


class Verdicts(unittest.TestCase):
    OLD = [1.00, 1.01, 0.99, 1.02, 0.98]

    def test_unchanged_within_noise(self):
        v, delta = run.verdict(self.OLD, [1.01, 1.00, 0.99, 1.02, 1.00], 0.1, "lower")
        self.assertEqual(v, "unchanged")
        self.assertAlmostEqual(delta, 0.0)

    def test_worse_beyond_bound(self):
        v, delta = run.verdict(self.OLD, [1.20, 1.21, 1.19, 1.22, 1.18], 0.1, "lower")
        self.assertEqual(v, "worse")
        self.assertAlmostEqual(delta, 0.2)

    def test_slower_within_bound_is_not_worse(self):
        # medians 1.00 -> 1.04: beyond the parent's spread, inside the bound
        v, _ = run.verdict(self.OLD, [1.04, 1.05, 1.03, 1.04, 1.04], 0.1, "lower")
        self.assertEqual(v, "unchanged")

    def test_improved_when_every_run_is_better(self):
        v, delta = run.verdict(self.OLD, [0.80, 0.81, 0.79, 0.82, 0.78], 0.1, "lower")
        self.assertEqual(v, "improved")
        self.assertLess(delta, 0)

    def test_improved_beyond_parent_spread(self):
        # runs overlap, but the medians differ by more than the quartile distance
        v, _ = run.verdict(self.OLD, [0.95, 0.96, 0.99, 0.94, 0.95], 0.1, "lower")
        self.assertEqual(v, "improved")

    def test_separated_but_inside_parent_spread_is_unchanged(self):
        v, _ = run.verdict(self.OLD, [0.975] * 5, 0.1, "lower")
        self.assertEqual(v, "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [0.7, 1.3, 1.0, 0.8, 1.25]
        v, _ = run.verdict(self.OLD, noisy, 0.1, "lower")
        self.assertEqual(v, "unresolved")

    def test_higher_is_better(self):
        v, _ = run.verdict(self.OLD, [0.8, 0.81, 0.79, 0.8, 0.8], 0.1, "higher")
        self.assertEqual(v, "worse")


class OutputChecks(unittest.TestCase):
    EST = "p = 0.986458 in [0.983983, 0.988933] (297056/301134 paths, 0 dead/timelocked, 0.88s)"
    COST = ("E[cost] = 10.1733  [10.1433, 10.2033]  (238893 sat paths; p = 1.000000  "
            "[0.997221, 1.000000], 238893 paths, 1.05s)")
    EXACT = "p = 0.247395325 (65791 states, 81 after lumping, 19.20s)"

    def test_estimate(self):
        self.assertEqual(run.check_estimate(self.EST + "\n", 0.9866, 0.007),
                         {"paths": 301134, "successes": 297056})
        with self.assertRaises(run.Failure):
            run.check_estimate(self.EST, 0.5, 0.007)
        with self.assertRaises(run.Failure):
            run.check_estimate(self.EST.replace("0 dead", "3 dead"), 0.9866, 0.007)

    def test_cost(self):
        facts = run.check_cost(self.COST, 10.175, 0.03)
        self.assertEqual(facts["mean"], "10.1733")
        with self.assertRaises(run.Failure):
            run.check_cost(self.COST, 11.0, 0.03)
        with self.assertRaises(run.Failure):
            run.check_cost(self.COST.replace("(238893 sat", "(238892 sat"), 10.175, 0.03)

    def test_exact(self):
        self.assertLess(run.check_exact(self.EXACT, 0.24739532502467163)["abs_err"], 1e-6)
        with self.assertRaises(run.Failure):
            run.check_exact("p = 0.999975380 (210 states, 21 after lumping, 3.65s)", 1.0)
        with self.assertRaises(run.Failure):
            run.check_exact("slimsim: state space exceeds 2000000 states", 1.0)

    def test_strip_wall(self):
        self.assertEqual(run.strip_wall(self.EST),
                         self.EST.replace(", 0.88s)", ", <wall>)"))
        self.assertEqual(run.strip_wall(self.EST),
                         run.strip_wall(self.EST.replace("0.88s", "12.50s")))

    def test_prom_sum(self):
        text = "\n".join([
            "# TYPE slimsim_firings_total counter",
            'slimsim_firings_total{kind="delay",worker="0"} 10',
            'slimsim_firings_total{kind="markov",worker="0"} 4',
            'slimsim_firings_total{kind="delay",worker="1"} 5',
            "slimsim_checkpoints_total 3",
        ])
        self.assertEqual(run.prom_sum(text, "slimsim_firings_total", kind="delay"), 15)
        self.assertEqual(run.prom_sum(text, "slimsim_firings_total"), 19)
        self.assertEqual(run.prom_sum(text, "slimsim_checkpoints_total"), 3)
        self.assertEqual(run.prom_sum(text, "slimsim_missing_total"), 0)


if __name__ == "__main__":
    unittest.main()
