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
        # The validation campaign's engine ladder: a key with "speedup"
        # in it (that ladder's speedup_vs_fullscan) is a *speedup*
        # metric, so a fresh value below 40% of baseline is a regression
        # while anything at or above the floor is treated as noise.
        write_rows(
            self.baseline_dir / "BENCH_validation_campaign.json",
            [self.row(event_engine_speedup=30.0)],
        )
        write_rows(
            self.fresh_dir / "BENCH_validation_campaign.json",
            [self.row(event_engine_speedup=11.9)],
        )
        self.assertEqual(self.run_gate(), 1)  # 11.9 < 30.0 * 0.4
        write_rows(
            self.fresh_dir / "BENCH_validation_campaign.json",
            [self.row(event_engine_speedup=13.0)],
        )
        self.assertEqual(self.run_gate(), 0)  # above the floor

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


class PerTrialRows(GateHarness):
    def trial_rows(self, outcomes):
        return [
            {"section": "trial", "arm": "removal", "trial": i, "ok": ok}
            for i, ok in enumerate(outcomes)
        ]

    def test_trial_index_tells_per_trial_rows_apart(self):
        # A campaign's per-trial rows share every string field; keyed by
        # those alone they would collapse into one row.
        rows = self.trial_rows([True, True, True])
        keys = {bench_compare.row_key(row) for row in rows}
        self.assertEqual(len(keys), 3)
        write_rows(self.baseline_dir / "BENCH_a.json", rows)
        write_rows(self.fresh_dir / "BENCH_a.json", rows)
        self.assertEqual(self.run_gate(), 0)

    def test_a_changed_early_trial_fails(self):
        # Keyed by string fields alone, both files would keep only their
        # last row, which agrees, and trial 0's change would pass.
        write_rows(
            self.baseline_dir / "BENCH_a.json", self.trial_rows([False, True])
        )
        write_rows(
            self.fresh_dir / "BENCH_a.json", self.trial_rows([True, True])
        )
        self.assertEqual(self.run_gate(), 1)

    def test_other_sections_keep_string_keys(self):
        row = self.row(trial=4, vcs=1)
        self.assertNotIn(("trial", 4), bench_compare.row_key(row))


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

    def test_override_limits_a_wall_clock_metric_at_twice_its_baseline(self):
        # The CI gate on what a cache hit costs: --tolerance warm_ms=1.0
        # arms one wall-clock metric while --time-tolerance is off.
        def write(warm_ms, cold_ms=100.0):
            write_rows(
                self.baseline_dir / "BENCH_a.json",
                [self.row(warm_ms=10.0, cold_ms=100.0)],
            )
            write_rows(
                self.fresh_dir / "BENCH_a.json",
                [self.row(warm_ms=warm_ms, cold_ms=cold_ms)],
            )

        limit = ["--tolerance", "warm_ms=1.0"]
        write(warm_ms=21.0)
        self.assertEqual(self.run_gate(), 0)  # wall clock off by default
        self.assertEqual(self.run_gate(limit), 1)  # 21 > 10 * 2
        write(warm_ms=19.0)
        self.assertEqual(self.run_gate(limit), 0)
        write(warm_ms=0.5)
        self.assertEqual(self.run_gate(limit), 0)  # getting faster passes
        write(warm_ms=10.0, cold_ms=900.0)
        self.assertEqual(self.run_gate(limit), 0)  # only warm_ms is gated

    def test_override_naming_no_metric_is_a_usage_error(self):
        write_rows(self.baseline_dir / "BENCH_a.json", [self.row(warm_ms=1.0)])
        write_rows(self.fresh_dir / "BENCH_a.json", [self.row(warm_ms=1.0)])
        self.assertEqual(self.run_gate(["--tolerance", "wram_ms=1.0"]), 2)
        # A row's string fields identify it; they are not metrics.
        self.assertEqual(self.run_gate(["--tolerance", "design=1.0"]), 2)
        self.assertEqual(self.run_gate(["--tolerance", "warm_ms=1.0"]), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
