#!/usr/bin/env python3
"""Unit test of the verdict rule in tools/bench/paired.py (CTest label: unit).

Canned pairs, no benchmark runs: one commit against itself is
unresolved, a clear gain is met, a clear loss is regressed, and the two
halves of the rule (9 in 10 pairs won, a median gap above the parent's
IQR) each block a verdict alone.

Run directly or via ctest; exit 0 iff every case behaves.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "paired", ROOT / "tools" / "bench" / "paired.py")
paired = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)

# Ten set-up times of one commit, with the ±10% drift pairs show.
BASE = [1.31, 1.42, 1.38, 1.54, 1.35, 1.47, 1.33, 1.40, 1.51, 1.36]


class VerdictRule(unittest.TestCase):
    def test_a_a_is_unresolved(self):
        # The same commit on both sides: the runs interleave, so head's
        # values are base's shifted by one pair.
        head = BASE[1:] + BASE[:1]
        s = paired.summarize(BASE, head, "lower")
        self.assertEqual(s["verdict"], "unresolved")
        self.assertEqual(paired.summarize(BASE, list(BASE), "lower")["wins"], 0)

    def test_clear_gain_is_met(self):
        head = [v * 0.5 for v in BASE]
        s = paired.summarize(BASE, head, "lower")
        self.assertEqual(s["verdict"], "met")
        self.assertEqual(s["wins"], 10)
        self.assertAlmostEqual(s["median_change"], -0.5)

    def test_clear_loss_is_regressed(self):
        head = [v * 1.5 for v in BASE]
        self.assertEqual(paired.summarize(BASE, head, "lower")["verdict"],
                         "regressed")
        # "higher is better" metrics flip the sense.
        self.assertEqual(paired.summarize(BASE, head, "higher")["verdict"],
                         "met")

    def test_eight_of_ten_wins_is_unresolved(self):
        head = [v * 0.5 for v in BASE]
        head[3] = BASE[3] * 1.01
        head[7] = BASE[7] * 1.01
        s = paired.summarize(BASE, head, "lower")
        self.assertEqual(s["wins"], 8)
        self.assertEqual(s["verdict"], "unresolved")

    def test_gap_within_parent_iqr_is_unresolved(self):
        # Every pair won, by 1%: far less than the parent's spread.
        head = [v * 0.99 for v in BASE]
        s = paired.summarize(BASE, head, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertLess(-s["median_change"] * s["base"]["median"],
                        s["base"]["iqr"])
        self.assertEqual(s["verdict"], "unresolved")

    def test_five_pairs_need_all_five(self):
        base = BASE[:5]
        head = [v * 0.5 for v in base]
        self.assertEqual(paired.summarize(base, head, "lower")["verdict"],
                         "met")
        head[2] = base[2]
        self.assertEqual(paired.summarize(base, head, "lower")["verdict"],
                         "unresolved")

    def test_quartiles_interpolate(self):
        q1, med, q3 = paired.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((q1, med, q3), (2.0, 3.0, 4.0))


if __name__ == "__main__":
    result = unittest.main(exit=False, verbosity=1).result
    sys.exit(0 if result.wasSuccessful() else 1)
