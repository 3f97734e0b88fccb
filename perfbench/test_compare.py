#!/usr/bin/env python3
"""Golden statistic/p-value pairs for the Mann-Whitney rank-sum test of
compare.py.  Run with: python3 perfbench/test_compare.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import mann_whitney, midranks, u_counts  # noqa: E402


class RankSum(unittest.TestCase):
    def assert_result(self, got, statistic, pvalue, eps=1e-4, msg=""):
        self.assertAlmostEqual(got[0], statistic, delta=eps, msg=f"{msg} statistic")
        self.assertAlmostEqual(got[1], pvalue, delta=eps, msg=f"{msg} p-value")

    def test_scipy_documentation_example(self):
        # scipy.stats.mannwhitneyu documentation (Conover's example):
        # exact U = 17, p = 0.1111111111111111; asymptotic p = 0.11134688653314041.
        males = [19, 22, 16, 29, 24]
        females = [20, 11, 17, 12]
        self.assert_result(mann_whitney(males, females, "exact"), 17.0, 0.1111111111111111,
                           eps=1e-12, msg="exact")
        self.assert_result(mann_whitney(males, females, "asymptotic"), 17.0,
                           0.11134688653314041, eps=1e-12, msg="asymptotic")
        self.assert_result(mann_whitney(males, females), 17.0, 0.1111111111111111,
                           msg="auto picks exact")

    def test_r_documentation_example(self):
        # R's wilcox.test documentation, Hollander & Wolfe (1973) p. 69:
        # W = 35, one-sided p = 0.1272, so two-sided p = 0.2544.
        x = [0.80, 0.83, 1.89, 1.04, 1.45, 1.38, 1.91, 1.64, 0.73, 1.46]
        y = [1.15, 0.88, 0.90, 0.74, 1.21]
        self.assert_result(mann_whitney(x, y), 35.0, 0.2544)
        self.assert_result(mann_whitney(y, x), 15.0, 0.2544, msg="swapped samples")

    def test_complete_separation(self):
        # Ten below ten: U = 0, and only the two extreme arrangements of
        # C(20, 10) = 184756 are as extreme, so p = 2 / 184756.
        lo, hi = list(range(1, 11)), list(range(11, 21))
        self.assert_result(mann_whitney(lo, hi), 0.0, 2 / 184756, eps=1e-12)
        self.assert_result(mann_whitney(hi, lo), 100.0, 2 / 184756, eps=1e-12)

    def test_ties_asymptotic(self):
        # By hand: pooled 1 2 2 2 3 3 3 4 has midranks 1, 3, 3, 3, 6, 6, 6, 8;
        # x takes 1 + 3 + 3 + 6 = 13, so U = 13 - 10 = 3 and max(U, 16 - U) = 13.
        # Tie term (27 - 3) * 2 = 48, variance 16/12 * (9 - 48/56) = 10.857143,
        # z = (13 - 8 - 0.5) / 3.295018 = 1.365698, p = erfc(z / sqrt 2) = 0.172034.
        self.assert_result(mann_whitney([1, 2, 2, 3], [2, 3, 3, 4]), 3.0, 0.172034)

    def test_identical_samples(self):
        self.assert_result(mann_whitney([5, 5, 5], [5, 5, 5]), 4.5, 1.0)

    def test_null_distribution_sums_to_all_arrangements(self):
        for n1, n2 in [(1, 1), (3, 4), (10, 10)]:
            counts = u_counts(n1, n2)
            self.assertEqual(sum(counts), math.comb(n1 + n2, n1))
            self.assertEqual(counts, counts[::-1])

    def test_midranks(self):
        self.assertEqual(midranks([3.0, 1.0, 3.0, 2.0]), [3.5, 1.0, 3.5, 2.0])


if __name__ == "__main__":
    unittest.main()
