#!/usr/bin/env python3
"""Unit tests for the perf-regression gate (tools/bench_compare.py).

Run directly (python3 tools/test_bench_compare.py) or through CTest,
which registers this file as the `bench_compare_unit` test.
"""

import argparse
import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def write_rows(path: Path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


class GateHarness(unittest.TestCase):
    """Creates a baseline/fresh directory pair per test."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.baseline_dir = root / "baselines"
        self.fresh_dir = root / "fresh"
        self.baseline_dir.mkdir()
        self.fresh_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def run_gate(self, extra_args=()):
        argv = [
            "--baseline-dir",
            str(self.baseline_dir),
            "--fresh-dir",
            str(self.fresh_dir),
            *extra_args,
        ]
        return bench_compare.main(argv)

    def row(self, **fields):
        base = {"section": "point", "design": "d1"}
        base.update(fields)
        return base


class CleanAndRegressedRuns(GateHarness):
    def test_identical_rows_pass(self):
        rows = [self.row(vcs=3, speedup=2.0, run_ms=12.0)]
        write_rows(self.baseline_dir / "BENCH_a.json", rows)
        write_rows(self.fresh_dir / "BENCH_a.json", rows)
        self.assertEqual(self.run_gate(), 0)

    def test_integer_drift_fails(self):
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=3)])
        write_rows(self.fresh_dir / "BENCH_a.json", [self.row(vcs=4)])
        self.assertEqual(self.run_gate(), 1)

    def test_collapsed_speedup_fails_and_noise_passes(self):
        write_rows(
            self.baseline_dir / "BENCH_a.json", [self.row(speedup=4.0)]
        )
        write_rows(self.fresh_dir / "BENCH_a.json", [self.row(speedup=1.0)])
        self.assertEqual(self.run_gate(), 1)
        write_rows(self.fresh_dir / "BENCH_a.json", [self.row(speedup=2.0)])
        self.assertEqual(self.run_gate(), 0)  # within the 40% floor

    def test_event_engine_speedup_holds_40_percent_floor(self):
        # The sim_latency_curve gate: event_engine_speedup is a *speedup*
        # metric, so a fresh value below 40% of baseline is a regression
        # while anything at or above the floor is treated as noise.
        write_rows(
            self.baseline_dir / "BENCH_sim_latency_curve.json",
            [self.row(event_engine_speedup=30.0)],
        )
        write_rows(
            self.fresh_dir / "BENCH_sim_latency_curve.json",
            [self.row(event_engine_speedup=11.9)],
        )
        self.assertEqual(self.run_gate(), 1)  # 11.9 < 30.0 * 0.4
        write_rows(
            self.fresh_dir / "BENCH_sim_latency_curve.json",
            [self.row(event_engine_speedup=13.0)],
        )
        self.assertEqual(self.run_gate(), 0)  # above the floor

    def test_latency_gate_is_one_sided(self):
        # serve_load's p99 SLO gate: *_latency_us metrics are integers,
        # but they are virtual-time measurements, not seed-exact counts.
        # Growth past baseline*(1+0.25) fails; shrinking never does.
        write_rows(
            self.baseline_dir / "BENCH_serve_load.json",
            [self.row(p99_latency_us=1000, mean_wait_us=400)],
        )
        write_rows(
            self.fresh_dir / "BENCH_serve_load.json",
            [self.row(p99_latency_us=1300, mean_wait_us=400)],
        )
        self.assertEqual(self.run_gate(), 1)  # 1300 > 1000 * 1.25
        write_rows(
            self.fresh_dir / "BENCH_serve_load.json",
            [self.row(p99_latency_us=1200, mean_wait_us=400)],
        )
        self.assertEqual(self.run_gate(), 0)  # within tolerance
        write_rows(
            self.fresh_dir / "BENCH_serve_load.json",
            [self.row(p99_latency_us=500, mean_wait_us=100)],
        )
        self.assertEqual(self.run_gate(), 0)  # improvements pass
        write_rows(
            self.fresh_dir / "BENCH_serve_load.json",
            [self.row(p99_latency_us=1000, mean_wait_us=600)],
        )
        self.assertEqual(self.run_gate(), 1)  # *_wait_us gated the same way
        self.assertEqual(
            self.run_gate(["--latency-tolerance", "0.6"]), 0
        )  # knob widens the gate

    def test_missing_fresh_row_fails(self):
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(
            self.fresh_dir / "BENCH_a.json",
            [self.row(design="other", vcs=1)],
        )
        self.assertEqual(self.run_gate(), 1)

    def test_metric_missing_from_fresh_row_fails(self):
        # Baseline-present, fresh-missing stays a hard failure: the
        # asymmetric twin of the informational fresh-only case below.
        write_rows(
            self.baseline_dir / "BENCH_a.json", [self.row(vcs=1, iters=2)]
        )
        write_rows(self.fresh_dir / "BENCH_a.json", [self.row(vcs=1)])
        self.assertEqual(self.run_gate(), 1)


class FreshOnlyAdditionsAreInformational(GateHarness):
    def test_new_metric_in_fresh_row_passes(self):
        # A bench that grew a column must not hard-fail the gate.
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(
            self.fresh_dir / "BENCH_a.json",
            [self.row(vcs=1, brand_new_metric=7.5)],
        )
        self.assertEqual(self.run_gate(), 0)

    def test_new_metric_is_reported_as_note(self):
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(
            self.fresh_dir / "BENCH_a.json",
            [self.row(vcs=1, brand_new_metric=7.5)],
        )
        comparison = bench_compare.Comparison(
            argparse.Namespace(
                overrides={},
                time_tolerance=None,
                speedup_tolerance=0.6,
                float_tolerance=0.25,
            )
        )
        comparison.compare_bench(
            "BENCH_a",
            self.baseline_dir / "BENCH_a.json",
            self.fresh_dir / "BENCH_a.json",
        )
        self.assertEqual(comparison.regressions, [])
        self.assertTrue(
            any("brand_new_metric" in note for note in comparison.notes),
            comparison.notes,
        )

    def test_new_bench_file_passes_with_note(self):
        # A fresh BENCH file with no baseline at all: informational.
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(self.fresh_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(
            self.fresh_dir / "BENCH_newbench.json", [self.row(metric=1)]
        )
        self.assertEqual(self.run_gate(), 0)

    def test_new_fresh_rows_pass(self):
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(
            self.fresh_dir / "BENCH_a.json",
            [self.row(vcs=1), self.row(design="extra", vcs=9)],
        )
        self.assertEqual(self.run_gate(), 0)


class ProvenanceHeaderRows(GateHarness):
    def test_provenance_rows_are_skipped(self):
        # BenchJsonWriter stamps a build-provenance header row into
        # every BENCH file; it describes the build, not a measurement,
        # so differing shas/compilers must not fail the gate.
        provenance_base = {
            "git_sha": "aaaa",
            "compiler": "GNU 12",
            "provenance": True,
            "bench": "a",
        }
        provenance_fresh = dict(provenance_base, git_sha="bbbb")
        write_rows(
            self.baseline_dir / "BENCH_a.json",
            [provenance_base, self.row(vcs=1)],
        )
        write_rows(
            self.fresh_dir / "BENCH_a.json",
            [provenance_fresh, self.row(vcs=1)],
        )
        self.assertEqual(self.run_gate(), 0)

    def test_provenance_only_in_fresh_is_fine(self):
        # Baselines predating the provenance stamp still gate cleanly.
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(vcs=1)])
        write_rows(
            self.fresh_dir / "BENCH_a.json",
            [{"provenance": True, "git_sha": "cccc"}, self.row(vcs=1)],
        )
        self.assertEqual(self.run_gate(), 0)


class OverheadGateIsOneSided(GateHarness):
    def test_overhead_growth_fails_and_shrink_passes(self):
        # bench_serve's trace_overhead: instrumentation getting more
        # expensive than baseline*(1+0.5) fails; cheaper always passes.
        write_rows(
            self.baseline_dir / "BENCH_serve.json",
            [self.row(trace_overhead=1.2)],
        )
        write_rows(
            self.fresh_dir / "BENCH_serve.json",
            [self.row(trace_overhead=2.0)],
        )
        self.assertEqual(self.run_gate(), 1)  # 2.0 > 1.2 * 1.5
        write_rows(
            self.fresh_dir / "BENCH_serve.json",
            [self.row(trace_overhead=1.7)],
        )
        self.assertEqual(self.run_gate(), 0)  # within the 50% headroom
        write_rows(
            self.fresh_dir / "BENCH_serve.json",
            [self.row(trace_overhead=0.9)],
        )
        self.assertEqual(self.run_gate(), 0)  # improvements pass
        write_rows(
            self.fresh_dir / "BENCH_serve.json",
            [self.row(trace_overhead=2.0)],
        )
        self.assertEqual(
            self.run_gate(["--overhead-tolerance", "0.8"]), 0
        )  # knob widens the gate


class PerUnitWallClockRates(GateHarness):
    def test_ms_per_unit_rates_are_wall_clock(self):
        # serve_sessions' session_ms_per_burst is session_ms / bursts: a
        # wall-clock rate, informational by default in either direction
        # and gated one-sided only under --time-tolerance.
        write_rows(
            self.baseline_dir / "BENCH_serve_sessions.json",
            [self.row(session_ms_per_burst=17.8, bursts=30)],
        )
        write_rows(
            self.fresh_dir / "BENCH_serve_sessions.json",
            [self.row(session_ms_per_burst=9.45, bursts=30)],
        )
        self.assertEqual(self.run_gate(), 0)  # faster passes
        self.assertEqual(self.run_gate(["--time-tolerance", "0.25"]), 0)
        write_rows(
            self.fresh_dir / "BENCH_serve_sessions.json",
            [self.row(session_ms_per_burst=40.0, bursts=30)],
        )
        self.assertEqual(self.run_gate(), 0)  # slower passes by default
        self.assertEqual(
            self.run_gate(["--time-tolerance", "0.25"]), 1
        )  # 40.0 > 17.8 * 1.25

    def test_burst_count_stays_exact(self):
        write_rows(
            self.baseline_dir / "BENCH_serve_sessions.json",
            [self.row(session_ms_per_burst=17.8, bursts=30)],
        )
        write_rows(
            self.fresh_dir / "BENCH_serve_sessions.json",
            [self.row(session_ms_per_burst=17.8, bursts=29)],
        )
        self.assertEqual(self.run_gate(), 1)


class ToleranceClasses(GateHarness):
    def test_wall_clock_ignored_by_default(self):
        write_rows(
            self.baseline_dir / "BENCH_a.json", [self.row(run_ms=10.0)]
        )
        write_rows(
            self.fresh_dir / "BENCH_a.json", [self.row(run_ms=9000.0)]
        )
        self.assertEqual(self.run_gate(), 0)
        self.assertEqual(self.run_gate(["--time-tolerance", "0.5"]), 1)

    def test_per_metric_override(self):
        write_rows(
            self.baseline_dir / "BENCH_a.json", [self.row(latency=10.0)]
        )
        write_rows(
            self.fresh_dir / "BENCH_a.json", [self.row(latency=14.0)]
        )
        self.assertEqual(self.run_gate(), 1)  # 40% > default 25%
        self.assertEqual(self.run_gate(["--tolerance", "latency=0.5"]), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
