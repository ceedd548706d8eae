"""Tests of run.py's parsing and result composition.

Run with `python3 -m unittest discover -s perfbench`.
"""

import unittest

import run


class MetricLines(unittest.TestCase):
    def test_parses_name_value_unit_and_samples(self):
        self.assertEqual(
            run.parse_metric("metric latency_p90_ms 241.593125 ms n=120"),
            {"name": "latency_p90_ms", "value": 241.593125, "unit": "ms", "samples": 120},
        )
        m = run.parse_metric("metric outputs_per_s 0.3333333333333333 1/s")
        self.assertEqual((m["unit"], m["samples"]), ("1/s", None))
        self.assertEqual(m["value"], 1 / 3, "every digit survives")

    def test_rejects_malformed_lines(self):
        for line in ["metric x 1.0", "metric x abc ms", "metric x 1.0 ms n=z",
                     "metric x nan ms", "metric x inf ms", "# self_ms x 1.0",
                     "metric x 1.0 ms n=3 extra"]:
            self.assertIsNone(run.parse_metric(line), line)

    def test_result_line(self):
        self.assertEqual(run.parse_result("result correct=true attempted=120 failed=0"),
                         {"correct": True, "attempted": 120, "failed": 0})
        self.assertIsNone(run.parse_result("result correct=true"))


class Compose(unittest.TestCase):
    LINES = [
        "metric setup_s 0.0192 s",
        "metric latency_p50_ms 112.2 ms n=120",
        "metric error_ratio 0.0 ratio",
        "result correct=false attempted=120 failed=2",
    ]

    def test_keeps_only_the_wanted_metrics_with_their_units(self):
        out = run.compose(self.LINES, {"setup_s": "s", "latency_p50_ms": "ms"})
        self.assertEqual(out, {
            "correct": False, "attempted": 120, "failed": 2,
            "metrics": {"setup_s": {"value": 0.0192, "unit": "s"},
                        "latency_p50_ms": {"value": 112.2, "unit": "ms"}},
        })

    def test_a_missing_metric_or_unit_mismatch_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.compose(self.LINES, {"outputs_per_s": "1/s"})
        with self.assertRaises(run.BenchError):
            run.compose(self.LINES, {"setup_s": "ms"})
        with self.assertRaises(run.BenchError):
            run.compose(self.LINES[:-1], {"setup_s": "s"})

    def test_quartiles_match_the_statistics_module(self):
        q1, q2, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, q2, q3), (1.5, 3.0, 4.5))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))


if __name__ == "__main__":
    unittest.main()
