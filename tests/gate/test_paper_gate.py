#!/usr/bin/env python3
"""The paper gate's rule (regressions() in scripts/paper_gate.py) on
hand-written per-seed summaries: equal values pass, a headline mean
below the lowest committed seed fails, and a better mean passes.

Usage: test_paper_gate.py PATH/TO/paper_gate.py
"""

import copy
import importlib.util
import sys
import unittest

gate = None


def record(*rows):
    """A {"seeds": ...} record, one seed per (overall, PARSEC,
    OMP2012, spin-win gain) row."""
    return {"seeds": {
        str(i + 1): {
            "programs": {"dedup": overall},
            "parsec_mean": parsec,
            "omp_mean": omp,
            "overall_mean": overall,
            "spin_win_gain_mean_pts": gain,
        } for i, (overall, parsec, omp, gain) in enumerate(rows)}}


COMMITTED = record((44.2, 54.7, 35.9, 16.5), (30.6, 39.0, 23.9, 8.3),
                   (39.7, 48.3, 32.9, 14.7))


def shifted(key, delta):
    """COMMITTED with @key moved by @delta on every seed."""
    measured = copy.deepcopy(COMMITTED)
    for s in measured["seeds"].values():
        s[key] += delta
    return measured


class Rule(unittest.TestCase):
    def test_equal_values_pass(self):
        self.assertEqual(
            gate.regressions(COMMITTED, copy.deepcopy(COMMITTED)), [])

    def test_each_headline_mean_below_the_lowest_seed_fails(self):
        for key, label in gate.HEADLINE.items():
            with self.subTest(key=key):
                values = [s[key] for s in COMMITTED["seeds"].values()]
                # Every seed moves down until the mean sits just below
                # the lowest committed seed.
                delta = min(values) - sum(values) / len(values) - 0.01
                failed = gate.regressions(COMMITTED,
                                          shifted(key, delta))
                self.assertEqual(len(failed), 1)
                self.assertTrue(failed[0].startswith(label + ":"))

    def test_better_mean_passes(self):
        for key in gate.HEADLINE:
            with self.subTest(key=key):
                self.assertEqual(
                    gate.regressions(COMMITTED, shifted(key, 10.0)), [])

    def test_the_mean_is_gated_not_each_seed(self):
        measured = copy.deepcopy(COMMITTED)
        measured["seeds"]["2"]["overall_mean"] = 25.0  # mean 36.3
        self.assertEqual(gate.regressions(COMMITTED, measured), [])

    def test_per_program_values_are_not_gated(self):
        measured = copy.deepcopy(COMMITTED)
        for s in measured["seeds"].values():
            s["programs"]["dedup"] = -50.0
        self.assertEqual(gate.regressions(COMMITTED, measured), [])


if __name__ == "__main__":
    spec = importlib.util.spec_from_file_location("paper_gate",
                                                  sys.argv[1])
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    unittest.main(argv=sys.argv[:1])
