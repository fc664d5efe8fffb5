"""Statistics of the repo benchmark: end-to-end metrics from a timed run's
per-op records, and per-layer metrics from a traced run's trace file.

An op record is [class, nanoseconds, error] (plus the trace id in a
traced run); an empty error means the op succeeded. A timed run repeats
one round of ops on the same inputs; an op's latency is its fastest
successful round, the one the host disturbed least. Failed ops count as
attempted and failed, are left out of every latency, and their time
still counts against throughput: a closed-loop client waited for them.

The end-to-end times are scaled to a host of fixed speed: the driver
times a fixed reference kernel before every op, and a run whose kernel
took twice REFERENCE_MS reports half its measured times.
"""

import json
import statistics

CLASSES = ("heavy", "light")
TAIL_BEYOND = 10

# The reference kernel's time on the host the figures are scaled to. A
# round figure: the 4-vCPU Sapphire Rapids VM the benchmark was written
# on measured 2.4-2.7 ms.
REFERENCE_MS = 2.0

# Removal-loop stage spans (deadlock/removal.cpp) that nest under the
# benchmark's deadlock.remove span.
REMOVAL_STAGES = ("cycle_search", "score", "apply", "invalidate")

# The span around each workload's op, and the breakdown spans that only
# repeat part of another sibling (left out of the residual).
OP_SPANS = {
    "certify_cold": "serve.request",
    "fault_session": "session.burst",
    "sim_traffic": "sim.simulate",
}
PROBE_SPANS = {"synth.validate_table", "synth.table_routes"}

# Per-layer metrics of each workload and class: (metric, unit, source).
# A source is ("span", name) for a breakdown span's median duration,
# ("stage", name) for a removal stage's median busy time, ("attr", span,
# key) for a per-op mean of a span attribute, ("residual",), or
# ("per", span, key, scale) for the span's time per unit of an attribute.
_REMOVAL = [
    ("deadlock.remove_ms", "ms", ("span", "deadlock.remove")),
] + [
    ("deadlock.remove.%s_ms" % stage, "ms", ("stage", stage))
    for stage in REMOVAL_STAGES
] + [
    ("deadlock.iterations", "count", ("attr", "deadlock.remove", "iterations")),
    ("deadlock.vcs_added", "count", ("attr", "deadlock.remove", "vcs_added")),
    ("deadlock.cycle_bfs_runs", "count",
     ("attr", "deadlock.remove", "cycle_bfs_runs")),
    ("deadlock.certify_ms", "ms", ("span", "deadlock.certify")),
    ("deadlock.serialize_ms", "ms", ("span", "deadlock.serialize")),
    ("serve.payload_bytes", "bytes",
     ("attr", "deadlock.serialize", "payload_bytes")),
    ("serve.residual_ms", "ms", ("residual",)),
]
_FAULT = [
    ("fault.reconfigure_ms", "ms", ("span", "fault.reconfigure")),
    ("fault.affected_flows", "count",
     ("attr", "fault.reconfigure", "affected_flows")),
    ("fault.table_detours", "count",
     ("attr", "fault.reconfigure", "table_detours")),
    ("fault.ripup_reroutes", "count",
     ("attr", "fault.reconfigure", "ripup_reroutes")),
    ("fault.removal_iterations", "count",
     ("attr", "fault.reconfigure", "removal_iterations")),
    ("deadlock.certify_from_cdg_ms", "ms",
     ("span", "deadlock.certify_from_cdg")),
    ("canonical.canonicalize_ms", "ms", ("span", "canonical.canonicalize")),
    ("serve.republish_ms", "ms", ("span", "serve.republish")),
    ("session.residual_ms", "ms", ("residual",)),
]
_SIM = [
    ("sim.schedule_ms", "ms", ("span", "sim.schedule")),
    ("sim.step_ms", "ms", ("span", "sim.step")),
    ("sim.cycles", "count", ("attr", "sim.step", "cycles")),
    ("sim.flit_hops", "count", ("attr", "sim.step", "flit_hops")),
    ("sim.packets_delivered", "count",
     ("attr", "sim.step", "packets_delivered")),
    ("sim.residual_ms", "ms", ("residual",)),
]
LAYER_METRICS = {
    ("certify_cold", "heavy"): [
        ("gen.materialize_ms", "ms", ("span", "gen.materialize")),
        ("synth.validate_table_ms", "ms", ("span", "synth.validate_table")),
        ("synth.table_routes_ms", "ms", ("span", "synth.table_routes")),
        ("canonical.canonicalize_ms", "ms", ("span", "canonical.canonicalize")),
    ] + _REMOVAL,
    ("certify_cold", "light"): [
        ("noc.parse_ms", "ms", ("span", "noc.parse")),
        ("canonical.canonicalize_ms", "ms", ("span", "canonical.canonicalize")),
    ] + _REMOVAL,
    ("fault_session", "heavy"): _FAULT,
    ("fault_session", "light"): _FAULT,
    ("sim_traffic", "heavy"): _SIM + [
        ("sim.ns_per_flit_hop", "ns", ("per", "sim.step", "flit_hops", 1e3)),
    ],
    ("sim_traffic", "light"): _SIM + [
        ("sim.ns_per_cycle", "ns", ("per", "sim.step", "cycles", 1e3)),
    ],
}


def split_classes(ops):
    """Per class: successful latencies (ms), attempted count, and the
    ErrorCode name of every failed op."""
    split = {cls: {"ok_ms": [], "attempted": 0, "errors": []}
             for cls in CLASSES}
    for record in ops:
        entry = split[record[0]]
        entry["attempted"] += 1
        if record[2]:
            entry["errors"].append(record[2])
        else:
            entry["ok_ms"].append(record[1] / 1e6)
    return split


def best_of_rounds(rounds):
    """Per op of a round: [class, fastest successful latency (ns), ""],
    or, when no round succeeded, [class, fastest latency, the first
    round's error]."""
    best = []
    for records in zip(*rounds):
        ok = [record[1] for record in records if not record[2]]
        if ok:
            best.append([records[0][0], min(ok), ""])
        else:
            best.append([records[0][0], min(record[1] for record in records),
                         records[0][2]])
    return best


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples, beyond). With fewer than
    TAIL_BEYOND + 1 samples no percentile qualifies; the maximum is
    returned with the true (smaller) number of samples beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n, n - 1 - index


def reference_ms(run):
    """The run's reference time, reduced like an op's latency: per op
    position, the fastest round's reference sample (the driver takes one
    just before each op), then the median over positions."""
    per_round = len(run["rounds"][0])
    samples = run["reference_ns"]
    rounds = [samples[i:i + per_round]
              for i in range(0, len(samples), per_round)]
    return statistics.median(min(column) for column in zip(*rounds)) / 1e6


def end_to_end(run):
    """The six end-to-end metrics of one timed run, scaled to the
    reference host, plus the per-class accounting over every round and
    the tail and scale descriptions the report prints."""
    rounds = run["rounds"]
    if len({len(ops) for ops in rounds}) != 1:
        raise ValueError("rounds of different lengths")
    split = split_classes([record for ops in rounds for record in ops])
    fastest = best_of_rounds(rounds)
    best = split_classes(fastest)
    for cls in CLASSES:
        if not best[cls]["ok_ms"]:
            raise ValueError("no successful %s op" % cls)
    ok_ms = [ms for cls in CLASSES for ms in best[cls]["ok_ms"]]
    # A round's timed wall clock with each op at its fastest; failed ops'
    # time counts too, since the client waited for them.
    timed_s = sum(record[1] for record in fastest) / 1e9
    tail_ms, percentile, samples, beyond = tail(ok_ms)
    measured = reference_ms(run)
    scale = REFERENCE_MS / measured
    metrics = {
        "setup_s": (statistics.median(run["setup_ns"]) / 1e9 * scale, "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "throughput_per_s": (len(ok_ms) / timed_s / scale, "1/s"),
        "heavy_p50_ms": (
            statistics.median(best["heavy"]["ok_ms"]) * scale, "ms"),
        "light_p50_ms": (
            statistics.median(best["light"]["ok_ms"]) * scale, "ms"),
        "tail_ms": (tail_ms * scale, "ms"),
    }
    return metrics, split, {"percentile": percentile, "samples": samples,
                            "beyond": beyond, "reference_ms": measured,
                            "scale": scale}


def parse_trace(lines):
    """Trace-file lines -> {trace id: [span dict, ...]} (header skipped)."""
    traces = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        span = json.loads(line)
        if "trace_schema" in span:
            continue
        traces.setdefault(span["trace"], []).append(span)
    return traces


def _op_layers(spans, op_span):
    """One traced op: its root's child spans by name, the removal stages'
    busy times, and the op span minus its pipeline siblings (all in us)."""
    children = {}
    for span in spans:
        if span["parent"] == 0:
            children[span["name"]] = span
    stages = {}
    remove = children.get("deadlock.remove")
    if remove is not None:
        for span in spans:
            if span["parent"] == remove["span"] and span["name"] in REMOVAL_STAGES:
                stages[span["name"]] = span.get("busy", span["end"] - span["start"])
    pipeline = sum(span["end"] - span["start"] for name, span in children.items()
                   if name != op_span and name not in PROBE_SPANS)
    op = children[op_span]
    residual = (op["end"] - op["start"]) - pipeline
    return children, stages, residual


def per_layer(traced_run, traces):
    """Every per-layer metric of a traced run: {name: (value, unit)}."""
    metrics = {}
    for (workload, cls), specs in LAYER_METRICS.items():
        result = traced_run["workloads"][workload]
        ids = [record[3] for record in result["traced"]
               if record[0] == cls and not record[2]]
        ops = [_op_layers(traces[i], OP_SPANS[workload]) for i in ids]
        if not ops:
            raise ValueError("no successful traced %s %s op" % (workload, cls))
        for name, unit, source in specs:
            values = []
            for children, stages, residual in ops:
                kind = source[0]
                if kind == "span":
                    span = children[source[1]]
                    values.append((span["end"] - span["start"]) / 1e3)
                elif kind == "stage":
                    values.append(stages.get(source[1], 0) / 1e3)
                elif kind == "attr":
                    values.append(children[source[1]][source[2]])
                elif kind == "residual":
                    values.append(residual / 1e3)
                else:  # per
                    span = children[source[1]]
                    units = span[source[2]]
                    values.append((span["end"] - span["start"]) * source[3] /
                                  units if units else 0.0)
            value = (statistics.fmean(values) if source[0] == "attr"
                     else statistics.median(values))
            metrics["%s.%s.%s" % (workload, cls, name)] = (value, unit)
        untraced = [record[1] for record in result["untraced"]
                    if record[0] == cls and not record[2]]
        traced = [record[1] for record in result["traced"]
                  if record[0] == cls and not record[2]]
        metrics["%s.%s.trace.overhead" % (workload, cls)] = (
            statistics.median(traced) / statistics.median(untraced), "ratio")
    cold = traced_run["workloads"]["certify_cold"]["report"]
    metrics["certify_cold.serve.cache_hits"] = (cold["cache_hits"], "count")
    metrics["certify_cold.serve.computations"] = (cold["computations"], "count")
    metrics["host.ref_ms"] = (
        statistics.median(traced_run["reference_ns"]) / 1e6, "ms")
    return metrics


def per_layer_names():
    """Names and units of every per-layer metric, in report order."""
    names = []
    for (workload, cls), specs in LAYER_METRICS.items():
        for name, unit, _ in specs:
            names.append(("%s.%s.%s" % (workload, cls, name), unit))
        names.append(("%s.%s.trace.overhead" % (workload, cls), "ratio"))
    names += [("certify_cold.serve.cache_hits", "count"),
              ("certify_cold.serve.computations", "count"),
              ("host.ref_ms", "ms")]
    return names
