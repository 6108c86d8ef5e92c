#!/usr/bin/env python3
"""Tests of the benchmark's reduction helpers.

    python3 perfbench/test_metrics.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def span(sid, parent, t0, t1, layer="x"):
    return {"id": sid, "parent": parent, "t0": t0, "t1": t1, "layer": layer}


class TailPercentile(unittest.TestCase):
    def beyond(self, samples, q):
        value, _ = metrics.tail(samples, q)
        ordered = sorted(samples)
        return len(ordered) - 1 - ordered.index(value)

    def test_p95_kept_with_ten_samples_beyond(self):
        samples = list(range(1000))
        value, used = metrics.tail(samples, 0.95)
        self.assertEqual(used, 0.95)
        self.assertEqual(value, 949)
        self.assertGreaterEqual(self.beyond(samples, 0.95), 10)

    def test_lowered_until_ten_samples_beyond(self):
        for n in (20, 21, 57, 145, 199):
            samples = list(range(n))
            _, used = metrics.tail(samples, 0.95)
            self.assertLess(used, 0.95)
            self.assertEqual(self.beyond(samples, 0.95), 10, n)

    def test_exactly_enough_samples_keeps_p95(self):
        samples = list(range(200))
        _, used = metrics.tail(samples, 0.95)
        self.assertEqual(used, 0.95)
        self.assertEqual(self.beyond(samples, 0.95), 10)

    def test_too_few_samples_report_the_maximum(self):
        value, used = metrics.tail([5.0, 1.0, 3.0, 4.0], 0.95)
        self.assertEqual((value, used), (5.0, 1.0))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.tail([], 0.95)


class SelfTime(unittest.TestCase):
    def test_children_subtracted_once_and_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 40),
                 span(4, 1, 90, 120), span(5, 2, 12, 14)]
        own = metrics.self_times(spans)
        # [10, 40] and [90, 100] are covered: 40 of the parent's 100.
        self.assertEqual(own[1], 60)
        self.assertEqual(own[2], 18)
        self.assertEqual(own[3], 20)
        self.assertEqual(own[4], 30)
        self.assertEqual(own[5], 2)

    def test_leaf_keeps_its_duration(self):
        self.assertEqual(metrics.self_times([span(7, 0, 5, 9)]), {7: 4})

    def test_layer_totals_in_ms(self):
        spans = [span(1, 0, 0, 3_000_000, "api"),
                 span(2, 1, 1_000_000, 3_000_000, "sim")]
        ms = metrics.layer_self_ms(spans)
        self.assertAlmostEqual(ms["api"], 1.0)
        self.assertAlmostEqual(ms["sim"], 2.0)


class Tally(unittest.TestCase):
    def test_refused_requests_count_as_failures(self):
        attempts = [{"status": 202, "ok": True},
                    {"status": 429, "ok": False},
                    {"status": 0, "ok": False},
                    {"status": 202, "ok": True}]
        self.assertEqual(metrics.tally(attempts), (4, 2))

    def test_a_429_is_a_failure_even_if_marked_done(self):
        self.assertEqual(metrics.tally([{"status": 429, "ok": True}]), (1, 1))


class StatsDigest(unittest.TestCase):
    ROW = {
        "key": "PR-RAJ@SGR x100000", "cycles": 10, "kernels": 2,
        "events": 99,
        "mem": {f: i for i, f in enumerate(metrics.MEM_FIELDS)},
        "breakdown": {f: 0.25 * i for i, f in enumerate(metrics.STALL_FIELDS)},
        "output": {"kind": "PR", "elements": 5, "hash": 12345},
    }

    def test_digest_ignores_counters_added_later(self):
        extended = dict(self.ROW, mem=dict(self.ROW["mem"], new_counter=7))
        self.assertEqual(metrics.stats_digest(extended),
                         metrics.stats_digest(self.ROW))

    def test_any_counter_changes_the_digest(self):
        changed = dict(self.ROW, mem=dict(self.ROW["mem"], dram_reads=1000))
        self.assertNotEqual(metrics.stats_digest(changed),
                            metrics.stats_digest(self.ROW))

    def test_match_needs_every_row(self):
        golden = {self.ROW["key"]: metrics.stats_digest(self.ROW)}
        self.assertEqual(metrics.stats_match([self.ROW], golden), 1)
        other = dict(self.ROW, key="PR-DCT@SGR x100000")
        self.assertEqual(metrics.stats_match([self.ROW, other], golden), 0)
        self.assertEqual(metrics.stats_match([], golden), 0)


if __name__ == "__main__":
    unittest.main()
