#!/usr/bin/env python3
"""Perf-regression gate: diff fresh BENCH_*.json rows against baselines.

Every bench harness appends JSON-Lines rows to BENCH_<name>.json.
This tool compares a fresh run against the checked-in baselines under
bench/baselines/ with per-metric tolerance classes:

  * string/bool fields            -> exact match (they are deterministic
                                     functions of the code; a change is a
                                     behavioural diff, not noise)
  * integer count fields          -> exact match (same reason: VC counts,
                                     iterations, switch/link/flow counts
                                     and digests are seed-deterministic)
  * wall-clock fields (*_ms and    -> ignored by default; opt in with
    *_ms_per_<unit> rates)           --time-tolerance R to fail when
                                     fresh > baseline * (1 + R)
  * speedup fields (speedup*)     -> ratio gate: fail when
                                     fresh < baseline * (1 - R), default
                                     R = 0.6 (machine noise tolerant;
                                     catches a collapsed optimization)
  * overhead fields (*_overhead)  -> one-sided upper gate: fail when
                                     fresh > baseline * (1 + R), default
                                     R = 0.5; getting cheaper passes
                                     (the instrumentation-cost gate)
  * other float fields            -> relative tolerance, default 0.25
                                     in either direction (throughput,
                                     latency, inflation)

Every BENCH file starts with a provenance header row ({"provenance":
true, "git_sha": ...}) stamped by BenchJsonWriter; it describes the
build, not a measurement, and is skipped on both sides of the diff.

Per-metric overrides: --tolerance metric=R (repeatable; R is a relative
tolerance in either direction, e.g. --tolerance avg_packet_latency=0.5).
An override takes precedence over the metric's class, so it also gates
a wall-clock metric while --time-tolerance is off: with R = 1.0 the
window is [0, 2 * baseline], a one-sided limit at twice the baseline
(the CI gate sets it on bench_serve's warm_ms and restart_ms, what a
cache hit costs); an R below 1.0 would fail a faster run too. An
override that names no metric of the baselines is a usage error, so a
typo cannot leave a gate silently unarmed.

Rows are keyed by their string-valued fields (section, design, arm,
family, ...), which the benches emit deterministically. A campaign's
per-trial rows (section "trial") share those, so their integer "trial"
index is part of their key as well. A baseline row
with no fresh counterpart is a regression (a bench silently dropped
coverage); extra fresh rows are reported but pass (new coverage).
Likewise asymmetric: a metric present in the baseline but missing from
the fresh row is a regression, while a metric that only exists in the
fresh output (a bench just grew a column) is reported as an
informational note — new measurements must not hard-fail the gate
before their baseline is refreshed. Fresh BENCH files without any
baseline counterpart get the same informational treatment.

Exit codes: 0 clean, 1 regression found, 2 usage/IO error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

IGNORED_KEYS = {"bench"}  # writer metadata, not a metric


def is_time_metric(key: str) -> bool:
    """Wall clock: a *_ms total or a *_ms_per_<unit> rate derived from one
    (serve_sessions' session_ms_per_burst is session_ms / bursts)."""
    return key.endswith("_ms") or "_ms_per_" in key


def is_speedup_metric(key: str) -> bool:
    return "speedup" in key


def is_overhead_metric(key: str) -> bool:
    """Instrumentation-cost ratios (bench_serve's trace_overhead).

    Gated one-sided: instrumentation getting *more* expensive than
    baseline*(1+R) fails, getting cheaper silently passes.
    """
    return key.endswith("_overhead")


def row_key(row: dict) -> tuple:
    """Identity of a row: its string fields, in sorted key order, plus
    the trial index of a per-trial row."""
    per_trial = row.get("section") == "trial"
    return tuple(
        (k, v)
        for k, v in sorted(row.items())
        if k not in IGNORED_KEYS
        and (isinstance(v, str) or (per_trial and k == "trial"))
    )


def load_rows(path: Path) -> list:
    rows = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{line_no}: malformed JSON: {err}")
            if "provenance" in row:
                continue  # build-provenance header, not a measurement
            rows.append(row)
    return rows


def index_rows(rows: list, path: Path) -> dict:
    indexed = {}
    for row in rows:
        key = row_key(row)
        if key in indexed:
            # Duplicate identity: keep the last row (benches append one
            # row per point, so this should not happen; flag it loudly).
            print(f"warning: {path}: duplicate row identity {key}")
        indexed[key] = row
    return indexed


class Comparison:
    def __init__(self, args):
        self.args = args
        self.regressions = []
        self.notes = []

    def add_regression(self, bench, key, message):
        self.regressions.append(
            {"bench": bench, "row": dict(key), "problem": message}
        )

    def compare_metric(self, bench, key, metric, base, fresh):
        overrides = self.args.overrides
        if isinstance(base, bool) or isinstance(fresh, bool):
            if base != fresh:
                self.add_regression(
                    bench, key, f"{metric}: expected {base}, got {fresh}"
                )
            return
        if not isinstance(base, (int, float)):
            if base != fresh:
                self.add_regression(
                    bench, key, f"{metric}: expected {base!r}, got {fresh!r}"
                )
            return
        if not isinstance(fresh, (int, float)):
            self.add_regression(
                bench, key, f"{metric}: expected a number, got {fresh!r}"
            )
            return
        if metric in overrides:
            tol = overrides[metric]
            if not within_relative(base, fresh, tol):
                self.add_regression(
                    bench,
                    key,
                    f"{metric}: {fresh} outside +/-{tol:.0%} of baseline "
                    f"{base}",
                )
            return
        if is_time_metric(metric):
            if self.args.time_tolerance is None:
                return  # wall clock ignored by default
            limit = base * (1.0 + self.args.time_tolerance)
            if fresh > limit:
                self.add_regression(
                    bench,
                    key,
                    f"{metric}: {fresh:.2f} ms > baseline {base:.2f} ms "
                    f"* {1.0 + self.args.time_tolerance:.2f}",
                )
            return
        if is_speedup_metric(metric):
            floor = base * (1.0 - self.args.speedup_tolerance)
            if fresh < floor:
                self.add_regression(
                    bench,
                    key,
                    f"{metric}: {fresh:.2f}x fell below "
                    f"{floor:.2f}x ({1.0 - self.args.speedup_tolerance:.0%} "
                    f"of baseline {base:.2f}x)",
                )
            return
        if is_overhead_metric(metric):
            limit = base * (1.0 + self.args.overhead_tolerance)
            if fresh > limit:
                self.add_regression(
                    bench,
                    key,
                    f"{metric}: {fresh:.3f}x exceeds "
                    f"{limit:.3f}x ({1.0 + self.args.overhead_tolerance:.0%} "
                    f"of baseline {base:.3f}x)",
                )
            return
        if isinstance(base, int) and isinstance(fresh, int):
            if base != fresh:
                self.add_regression(
                    bench, key, f"{metric}: expected {base}, got {fresh}"
                )
            return
        if not within_relative(base, fresh, self.args.float_tolerance):
            self.add_regression(
                bench,
                key,
                f"{metric}: {fresh} outside "
                f"+/-{self.args.float_tolerance:.0%} of baseline {base}",
            )

    def compare_bench(self, bench, baseline_path, fresh_path):
        baseline = index_rows(load_rows(baseline_path), baseline_path)
        fresh = index_rows(load_rows(fresh_path), fresh_path)
        new_metrics = set()
        for key, base_row in baseline.items():
            fresh_row = fresh.get(key)
            if fresh_row is None:
                self.add_regression(
                    bench, key, "row missing from the fresh run"
                )
                continue
            for metric, base_value in base_row.items():
                if metric in IGNORED_KEYS or isinstance(base_value, str):
                    continue
                if metric not in fresh_row:
                    self.add_regression(
                        bench, key, f"{metric}: missing from the fresh row"
                    )
                    continue
                self.compare_metric(
                    bench, key, metric, base_value, fresh_row[metric]
                )
            # Metrics only the fresh row has are informational: a bench
            # that grew a column must not hard-fail the gate before the
            # baseline is refreshed.
            for metric, value in fresh_row.items():
                if (
                    metric in IGNORED_KEYS
                    or isinstance(value, str)
                    or metric in base_row
                ):
                    continue
                new_metrics.add(metric)
        if new_metrics:
            names = ", ".join(sorted(new_metrics))
            self.notes.append(
                f"{bench}: new metric(s) not in the baseline: {names} "
                "(informational; refresh the baseline to gate them)"
            )
        extra = len(fresh) - sum(1 for key in baseline if key in fresh)
        if extra > 0:
            self.notes.append(
                f"{bench}: {extra} fresh row(s) not in the baseline "
                "(new coverage; refresh the baseline to gate them)"
            )


def within_relative(base, fresh, tolerance):
    if base == fresh:
        return True
    if base == 0:
        return math.isclose(fresh, 0.0, abs_tol=tolerance)
    return abs(fresh - base) <= abs(base) * tolerance


def parse_override(text):
    metric, _, value = text.partition("=")
    if not metric or not value:
        raise argparse.ArgumentTypeError(
            f"expected metric=tolerance, got {text!r}"
        )
    try:
        return metric, float(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("bench/baselines"),
        help="directory with the checked-in BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("build"),
        help="directory with the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the machine-readable diff to this JSON file",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help="gate *_ms and *_ms_per_<unit> metrics at baseline*(1+R); "
        "off by default",
    )
    parser.add_argument(
        "--speedup-tolerance",
        type=float,
        default=0.6,
        help="speedup metrics may drop to baseline*(1-R) (default 0.6)",
    )
    parser.add_argument(
        "--overhead-tolerance",
        type=float,
        default=0.5,
        help="*_overhead metrics may grow to baseline*(1+R), one-sided "
        "(default 0.5)",
    )
    parser.add_argument(
        "--float-tolerance",
        type=float,
        default=0.25,
        help="relative tolerance for other float metrics (default 0.25)",
    )
    parser.add_argument(
        "--tolerance",
        dest="overrides",
        type=parse_override,
        action="append",
        default=[],
        metavar="METRIC=R",
        help="per-metric relative tolerance override (repeatable)",
    )
    args = parser.parse_args(argv)
    args.overrides = dict(args.overrides)

    if not args.baseline_dir.is_dir():
        print(f"baseline directory {args.baseline_dir} does not exist")
        return 2
    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline_dir}")
        return 2
    metrics = {
        metric
        for path in baselines
        for row in load_rows(path)
        for metric, value in row.items()
        if not isinstance(value, str)
    }
    unknown = sorted(set(args.overrides) - metrics)
    if unknown:
        print(
            "--tolerance names no metric of the baselines: "
            + ", ".join(unknown)
        )
        return 2

    comparison = Comparison(args)
    compared = []
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        bench = baseline_path.stem
        if not fresh_path.is_file():
            comparison.add_regression(
                bench, (), f"fresh file {fresh_path} missing"
            )
            continue
        compared.append(bench)
        comparison.compare_bench(bench, baseline_path, fresh_path)

    # Fresh BENCH files with no baseline at all: a brand-new bench.
    # Informational — it starts gating once a baseline is committed.
    if args.fresh_dir.is_dir():
        baseline_names = {path.name for path in baselines}
        for fresh_path in sorted(args.fresh_dir.glob("BENCH_*.json")):
            if fresh_path.name not in baseline_names:
                comparison.notes.append(
                    f"{fresh_path.stem}: no baseline for this bench "
                    "(informational; commit one to gate it)"
                )

    for note in comparison.notes:
        print(f"note: {note}")
    if comparison.regressions:
        print(f"\n{len(comparison.regressions)} regression(s):")
        for reg in comparison.regressions:
            ident = ", ".join(f"{k}={v}" for k, v in reg["row"].items())
            print(f"  [{reg['bench']}] {ident}: {reg['problem']}")
    else:
        print(
            f"perf gate clean: {len(compared)} bench file(s) within "
            "tolerance of the baselines"
        )

    if args.output is not None:
        args.output.write_text(
            json.dumps(
                {
                    "compared": compared,
                    "regressions": comparison.regressions,
                    "notes": comparison.notes,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"diff written to {args.output}")
    return 1 if comparison.regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
