#!/usr/bin/env python3
"""Unit tests for the benchmark's statistics (stats.py).

    python3 perfbench/test_stats.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

MS = 1_000_000  # ns per ms


def run_of(*rounds, setup_ns=(2_000_000_000,), rss_kb=2048,
           reference_ms=stats.REFERENCE_MS):
    """A timed run; by default its reference ran at the reference host's
    speed, so no time is scaled."""
    samples = sum(len(ops) for ops in rounds)
    return {"rounds": [list(ops) for ops in rounds],
            "reference_ns": [reference_ms * MS] * samples,
            "setup_ns": list(setup_ns), "peak_rss_kb": rss_kb}


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        value, percentile, samples, beyond = stats.tail(range(1, 101))
        self.assertEqual((value, percentile, samples, beyond),
                         (90, 90.0, 100, 10))

    def test_input_order_does_not_matter(self):
        self.assertEqual(stats.tail([5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12]),
                         stats.tail(list(range(1, 13))))

    def test_eleven_samples_is_the_smallest_qualifying_run(self):
        value, percentile, samples, beyond = stats.tail(range(11))
        self.assertEqual((value, samples, beyond), (0, 11, 10))
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_too_few_samples_report_the_maximum_and_true_count(self):
        self.assertEqual(stats.tail([3, 1, 2]), (3, 100.0, 3, 0))

    def test_ties_count_as_samples_beyond(self):
        self.assertEqual(stats.tail([7] * 20), (7, 50.0, 20, 10))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class ClassSplit(unittest.TestCase):
    def test_split_by_class_with_error_codes(self):
        split = stats.split_classes([
            ["heavy", 200 * MS, ""],
            ["light", 10 * MS, ""],
            ["heavy", 300 * MS, "compute_failed"],
            ["light", 20 * MS, ""],
            ["light", 1 * MS, "unknown_session"],
        ])
        self.assertEqual(split["heavy"],
                         {"ok_ms": [200.0], "attempted": 2,
                          "errors": ["compute_failed"]})
        self.assertEqual(split["light"],
                         {"ok_ms": [10.0, 20.0], "attempted": 3,
                          "errors": ["unknown_session"]})

    def test_p50_per_class(self):
        ops = []
        for i in range(5):
            ops.append(["heavy", (100 + i) * MS, ""])
            ops.append(["light", (10 + i) * MS, ""])
        metrics, _, _ = stats.end_to_end(run_of(ops))
        self.assertEqual(metrics["heavy_p50_ms"], (102.0, "ms"))
        self.assertEqual(metrics["light_p50_ms"], (12.0, "ms"))


class Rounds(unittest.TestCase):
    def test_each_op_takes_its_fastest_round(self):
        best = stats.best_of_rounds([
            [["heavy", 100, ""], ["light", 9, ""]],
            [["heavy", 80, ""], ["light", 12, ""]],
            [["heavy", 90, ""], ["light", 10, ""]],
        ])
        self.assertEqual(best, [["heavy", 80, ""], ["light", 9, ""]])

    def test_a_failed_round_is_skipped_and_an_op_failing_every_round_fails(self):
        best = stats.best_of_rounds([
            [["heavy", 5, "compute_failed"], ["light", 7, "unknown_session"]],
            [["heavy", 50, ""], ["light", 6, "unknown_session"]],
        ])
        self.assertEqual(best, [["heavy", 50, ""],
                                ["light", 6, "unknown_session"]])

    def test_latencies_and_throughput_take_each_ops_fastest_round(self):
        slow = [["heavy", 200 * MS, ""], ["light", 20 * MS, ""]]
        fast = [["heavy", 100 * MS, ""], ["light", 30 * MS, ""]]
        metrics, split, _ = stats.end_to_end(run_of(slow, fast))
        self.assertEqual(metrics["heavy_p50_ms"][0], 100.0)
        self.assertEqual(metrics["light_p50_ms"][0], 20.0)
        self.assertAlmostEqual(metrics["throughput_per_s"][0], 2 / 0.12)
        self.assertEqual([split[c]["attempted"] for c in stats.CLASSES],
                         [2, 2])

    def test_reference_is_each_positions_fastest_round_then_the_median(self):
        run = run_of([["heavy", MS, ""]] * 3, [["heavy", MS, ""]] * 3)
        run["reference_ns"] = [4 * MS, 1 * MS, 9 * MS, 2 * MS, 5 * MS, 3 * MS]
        self.assertEqual(stats.reference_ms(run), 2.0)

    def test_a_slow_reference_scales_times_down_and_throughput_up(self):
        ops = [["heavy", 100 * MS, ""], ["light", 10 * MS, ""]]
        metrics, _, info = stats.end_to_end(run_of(
            ops, setup_ns=(3e9,), rss_kb=1024,
            reference_ms=2 * stats.REFERENCE_MS))
        self.assertEqual(info["scale"], 0.5)
        self.assertEqual(metrics["heavy_p50_ms"][0], 50.0)
        self.assertEqual(metrics["light_p50_ms"][0], 5.0)
        self.assertEqual(metrics["tail_ms"][0], 50.0)
        self.assertEqual(metrics["setup_s"][0], 1.5)
        self.assertAlmostEqual(metrics["throughput_per_s"][0], 2 / 0.055)
        self.assertEqual(metrics["peak_rss_mb"][0], 1.0)

    def test_rounds_of_different_lengths_are_an_error(self):
        with self.assertRaises(ValueError):
            stats.end_to_end(run_of([["heavy", MS, ""], ["light", MS, ""]],
                                    [["heavy", MS, ""]]))


class FailedOps(unittest.TestCase):
    OPS = [
        ["heavy", 100 * MS, ""],
        ["light", 10 * MS, ""],
        ["heavy", 100 * MS, ""],
        ["light", 10 * MS, ""],
        # Slow failures: excluded from every latency, but the client
        # still waited for them.
        ["heavy", 5000 * MS, "compute_failed"],
        ["light", 4000 * MS, "unknown_session"],
    ]

    def test_failures_are_left_out_of_latency(self):
        metrics, split, tail = stats.end_to_end(run_of(self.OPS, self.OPS))
        self.assertEqual(metrics["heavy_p50_ms"][0], 100.0)
        self.assertEqual(metrics["light_p50_ms"][0], 10.0)
        self.assertEqual(metrics["tail_ms"][0], 100.0)
        self.assertEqual(tail["samples"], 4)
        self.assertEqual([len(split[c]["errors"]) for c in stats.CLASSES],
                         [2, 2])
        self.assertEqual([split[c]["attempted"] for c in stats.CLASSES],
                         [6, 6])

    def test_failures_count_time_but_not_throughput(self):
        metrics, _, _ = stats.end_to_end(run_of(self.OPS))
        timed_s = (2 * 100 + 2 * 10 + 5000 + 4000) / 1000.0
        self.assertAlmostEqual(metrics["throughput_per_s"][0], 4 / timed_s)

    def test_a_class_without_success_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.end_to_end(run_of([["heavy", MS, ""],
                                     ["light", MS, "compute_failed"]]))

    def test_setup_is_the_median_sample_and_memory_in_mib(self):
        metrics, _, _ = stats.end_to_end(run_of(
            self.OPS, setup_ns=(3e9, 1e9, 2e9), rss_kb=3072))
        self.assertEqual(metrics["setup_s"], (2.0, "s"))
        self.assertEqual(metrics["peak_rss_mb"], (3.0, "MB"))


class TracedOp(unittest.TestCase):
    def test_residual_skips_the_op_span_and_probe_spans(self):
        spans = [
            {"span": 0, "parent": -1, "name": "certify_cold.heavy",
             "start": 0, "end": 2000},
            {"span": 1, "parent": 0, "name": "serve.request",
             "start": 0, "end": 1000},
            {"span": 2, "parent": 0, "name": "gen.materialize",
             "start": 1000, "end": 1600},
            {"span": 3, "parent": 0, "name": "deadlock.remove",
             "start": 1600, "end": 1900, "iterations": 4},
            {"span": 4, "parent": 3, "name": "cycle_search",
             "start": 1600, "end": 1890, "busy": 250},
            {"span": 5, "parent": 0, "name": "synth.validate_table",
             "start": 1900, "end": 2000},
        ]
        children, stages, residual = stats._op_layers(spans, "serve.request")
        self.assertEqual(residual, 1000 - 600 - 300)
        self.assertEqual(stages, {"cycle_search": 250})
        self.assertEqual(children["deadlock.remove"]["iterations"], 4)


class BenchmarkJson(unittest.TestCase):
    def test_per_layer_list_matches_the_metrics_the_traced_run_reports(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            listed = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
        self.assertEqual(listed, stats.per_layer_names())


if __name__ == "__main__":
    unittest.main()
