"""Tests of the benchmark's own arithmetic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import metrics as m


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(m.percentile(values, 50), 50)
        self.assertEqual(m.percentile(values, 99), 99)
        self.assertEqual(m.percentile(values, 100), 100)
        self.assertEqual(m.percentile(values, 0), 1)

    def test_exact_samples_not_buckets(self):
        # Neighbouring samples 1% apart stay distinct (a 16-per-decade
        # histogram would put them in one 15.5%-wide bucket).
        values = [1.00, 1.01, 1.02, 1.03, 1.04]
        self.assertEqual(m.percentile(values, 50), 1.02)
        self.assertEqual(m.percentile(values, 60), 1.02)
        self.assertEqual(m.percentile(values, 61), 1.03)

    def test_unsorted_and_single(self):
        self.assertEqual(m.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(m.percentile([7.5], 99), 7.5)

    def test_failures_sort_last(self):
        values = [1.0, 2.0, 3.0, math.inf]
        self.assertEqual(m.percentile(values, 50), 2.0)
        self.assertEqual(m.percentile(values, 99), math.inf)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            m.percentile([], 50)

    def test_beyond(self):
        self.assertEqual(m.beyond(1000, 99), 10)
        self.assertEqual(m.beyond(999, 99), 9)
        self.assertEqual(m.beyond(360, 95), 18)
        self.assertEqual(m.beyond(100, 90), 10)
        self.assertEqual(m.beyond(1, 50), 0)


class FailureClassifierTest(unittest.TestCase):
    def test_correct_outcomes(self):
        self.assertFalse(m.is_failure("OK"))
        self.assertFalse(m.is_failure("ABORTED:unused item number"))

    def test_failures(self):
        for key in ("OVERLOADED:request queue full",
                    "SHUTTING_DOWN:server draining",
                    "DEADLINE_EXCEEDED:lock wait deadline",
                    "DEADLINE_EXCEEDED:deadline expired in queue",
                    "INTERNAL:bad type",
                    "UNANSWERED:",
                    "TRANSPORT:connection lost",
                    "ABORTED:deadlock victim",
                    "ABORTED:orders (1, 8, 35)",
                    "ABORTED:no customer with last name BARBARBAR"):
            self.assertTrue(m.is_failure(key), key)

    def test_count_outcomes(self):
        outcomes = {"OK": 97, "ABORTED:unused item number": 1,
                    "OVERLOADED:request queue full": 2}
        self.assertEqual(m.count_outcomes(outcomes), (100, 2, 97))
        self.assertEqual(m.count_outcomes({"OK": 0}), (0, 0, 0))


class SliceTest(unittest.TestCase):
    def test_cut_by_issue_time(self):
        samples = [(0.1, "a"), (2.9, "b"), (3.0, "c"), (8.99, "d")]
        cut, length = m.cut_slices(samples, 9.0, 3.0)
        self.assertEqual(length, 3.0)
        self.assertEqual(cut, [["a", "b"], ["c"], ["d"]])

    def test_edges_clamped_not_dropped(self):
        cut, _ = m.cut_slices([(9.0, "edge"), (-1e-6, "early")], 9.0, 3.0)
        self.assertEqual(cut, [["early"], [], ["edge"]])

    def test_rounds_to_whole_slices(self):
        cut, length = m.cut_slices([(4.0, "x")], 10.0, 3.0)
        self.assertEqual(len(cut), 3)
        self.assertAlmostEqual(length, 10.0 / 3)
        self.assertEqual(cut[1], ["x"])

    def test_whole_window(self):
        cut, length = m.cut_slices([(0.0, 1), (4.9, 2), (5.0, 3)], 5.0, None)
        self.assertEqual((cut, length), ([[1, 2, 3]], 5.0))
        cut, _ = m.cut_slices([], 1.0, 5.0)
        self.assertEqual(cut, [[]])


def span(name, start, end, parent=-1, ident=1):
    return [ident, name, start, end, parent]


class SpanArithmeticTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(m.union_length([], 0, 10), 0)
        self.assertEqual(m.union_length([(1, 3), (2, 5)], 0, 10), 4)
        self.assertEqual(m.union_length([(1, 2), (4, 5)], 0, 10), 2)
        self.assertEqual(m.union_length([(-5, 2), (8, 15)], 0, 10), 4)
        self.assertEqual(m.union_length([(3, 3)], 0, 10), 0)

    def test_self_time_and_full_coverage(self):
        spans = [span("txn", 0.0, 10.0),
                 span("lock_wait", 1.0, 3.0, 0),
                 span("server_sleep", 5.0, 9.0, 0),
                 span("txn", 20.0, 24.0, ident=2)]
        s = m.SpanSummary(spans, "txn")
        self.assertEqual(s.roots, 2)
        self.assertAlmostEqual(s.span_s, 14.0)
        self.assertAlmostEqual(s.self_s, 4.0 + 4.0)
        self.assertAlmostEqual(s.coverage(), 1.0)
        self.assertAlmostEqual(s.coverage(6.0), 1.0)
        self.assertAlmostEqual(s.child_frac("lock_wait"), 2.0 / 14.0)
        self.assertAlmostEqual(s.child_frac("server_sleep", "lock_wait"),
                               6.0 / 14.0)

    def test_overlapping_children_raise_coverage(self):
        spans = [span("txn", 0.0, 10.0),
                 span("lock_wait", 1.0, 5.0, 0),
                 span("lock_wait", 3.0, 7.0, 0)]
        s = m.SpanSummary(spans, "txn")
        self.assertAlmostEqual(s.self_s, 4.0)
        self.assertAlmostEqual(s.coverage(), 1.2)

    def test_child_outside_parent_raises_coverage(self):
        spans = [span("txn", 0.0, 10.0), span("lock_wait", 8.0, 12.0, 0)]
        s = m.SpanSummary(spans, "txn")
        self.assertAlmostEqual(s.self_s, 8.0)
        self.assertAlmostEqual(s.coverage(), 1.2)

    def test_coverage_against_counted_child_time(self):
        # The layers counted 4 s of child time; the spans caught only the
        # 2 s lock wait, so the missed 2 s shows in self time and coverage
        # rises. Spans that record more than was counted lower it.
        spans = [span("txn", 0.0, 10.0), span("lock_wait", 1.0, 3.0, 0)]
        s = m.SpanSummary(spans, "txn")
        self.assertAlmostEqual(s.coverage(4.0), 1.2)
        self.assertAlmostEqual(s.coverage(1.0), 0.9)
        self.assertAlmostEqual(s.coverage(2.0), 1.0)

    def test_other_roots_ignored(self):
        spans = [span("recovery", 0.0, 2.0), span("load", 0.0, 1.0, 0),
                 span("request", 5.0, 6.0, ident=7)]
        s = m.SpanSummary(spans, "request")
        self.assertEqual(s.roots, 1)
        self.assertAlmostEqual(s.self_s, 1.0)
        self.assertEqual(m.SpanSummary([], "txn").coverage(), 0.0)

    def test_durations_and_ratio(self):
        spans = [span("txn", 0.0, 10.0), span("lock_wait", 1.0, 3.5, 0)]
        self.assertEqual(m.durations(spans, "lock_wait"), [2.5])
        self.assertEqual(m.ratio(1, 4), 0.25)
        self.assertEqual(m.ratio(5, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
