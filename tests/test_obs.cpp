// Tests for the observability layer (src/obs): histogram bucket
// boundaries (protocol surface, pinned), cross-thread merge
// determinism, registry snapshots, trace byte-determinism, the span
// schema checker and the v2 metrics JSONL round trip through the real
// codec.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr::obs {
namespace {

// ---------------------------------------------------------- histograms

TEST(HistogramBuckets, BoundariesArePinned) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds
  // [2^(i-1), 2^i - 1]; the last bucket absorbs the tail. These
  // boundaries are part of the metrics protocol surface
  // (docs/OBSERVABILITY.md) — changing them breaks remote consumers.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<std::uint64_t>::max()),
            kHistogramBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(kHistogramBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HistogramBuckets, IndexAndUpperBoundAgreeOnEveryEdge) {
  for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    const std::uint64_t upper = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(upper), i) << "upper bound of " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper + 1), i + 1)
        << "first value past bucket " << i;
  }
}

TEST(HistogramSnapshotTest, QuantileWalksCumulativeCounts) {
  Histogram histogram;
  for (int i = 0; i < 90; ++i) {
    histogram.Record(10);  // bucket 4, upper bound 15
  }
  for (int i = 0; i < 10; ++i) {
    histogram.Record(1000);  // bucket 10, upper bound 1023
  }
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_EQ(snapshot.Quantile(0.5), 15u);
  EXPECT_EQ(snapshot.Quantile(0.90), 15u);
  EXPECT_EQ(snapshot.Quantile(0.99), 1023u);
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.99), 0u);
}

TEST(HistogramSnapshotTest, MergeIsOrderIndependent) {
  // Record the same multiset of samples (a) serially into one
  // histogram and (b) partitioned across threads, then merge the
  // per-thread snapshots in two different orders. All three must be
  // identical — the property that makes per-shard metrics reporting
  // sound.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 5000;
  const auto sample = [](std::size_t t, std::size_t i) {
    return static_cast<std::uint64_t>((t * 7919 + i * 104729) % 100000);
  };

  Histogram serial;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      serial.Record(sample(t, i));
    }
  }

  std::vector<Histogram> shards(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shards, t, sample] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        shards[t].Record(sample(t, i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  HistogramSnapshot forward;
  for (std::size_t t = 0; t < kThreads; ++t) {
    forward.Merge(shards[t].Snapshot());
  }
  HistogramSnapshot backward;
  for (std::size_t t = kThreads; t-- > 0;) {
    backward.Merge(shards[t].Snapshot());
  }
  EXPECT_EQ(forward, serial.Snapshot());
  EXPECT_EQ(forward, backward);
}

TEST(HistogramSnapshotTest, ConcurrentRecordsIntoOneHistogramAllLand) {
  Histogram shared;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        shared.Record(i % 257);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const HistogramSnapshot snapshot = shared.Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t bucket : snapshot.buckets) {
    bucket_total += bucket;
  }
  EXPECT_EQ(bucket_total, snapshot.count);
}

// ------------------------------------------------------------ registry

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndResetKeepsReferences) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("b.count");
  registry.GetCounter("a.count");
  registry.GetHistogram("lat_us").Record(5);
  counter.Add(2);
  EXPECT_EQ(&counter, &registry.GetCounter("b.count"));

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.count");
  EXPECT_EQ(snapshot.counters[1].first, "b.count");
  EXPECT_EQ(snapshot.counters[1].second, 2u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1u);

  registry.ResetAll();
  EXPECT_EQ(counter.Value(), 0u);  // same instrument, zeroed
  counter.Add(1);
  EXPECT_EQ(registry.Snapshot().counters[1].second, 1u);
}

// -------------------------------------------------------------- traces

/// Builds one deterministic trace into \p sink under id \p trace_id.
void BuildTrace(TraceSink& sink, const std::string& trace_id) {
  ScopedTrace trace(&sink, trace_id, "request");
  trace.Attr("status", std::string("ok"));
  {
    ScopedSpan child("materialize");
    child.Attr("channels", std::uint64_t{16});
  }
  ScopedSpan certify("certify");
}

std::string Render(const TraceSink& sink) {
  std::ostringstream out;
  sink.WriteTo(out);
  return out.str();
}

TEST(TraceTest, SameSpansSameBytesRegardlessOfFinishOrder) {
  // The sink sorts by trace id at write time, so the bytes are a pure
  // function of the *set* of finished traces — the property
  // tests/test_serve_cli.cpp pins across client thread counts.
  TraceSink forward;
  BuildTrace(forward, "q0");
  BuildTrace(forward, "q1");
  BuildTrace(forward, "q2");
  TraceSink backward;
  BuildTrace(backward, "q2");
  BuildTrace(backward, "q0");
  BuildTrace(backward, "q1");
  EXPECT_EQ(forward.TraceCount(), 3u);
  const std::string bytes = Render(forward);
  EXPECT_EQ(bytes, Render(backward));
  EXPECT_FALSE(bytes.empty());

  // Every line survives the schema checker.
  std::istringstream lines(bytes);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NO_THROW(ParseTraceHeaderLine(line));
  std::size_t spans = 0;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW(ParseSpanLine(line)) << line;
    ++spans;
  }
  EXPECT_EQ(spans, forward.SpanCount());
}

TEST(TraceTest, LogicalClockAssignsDeterministicIdsAndTicks) {
  TraceSink sink;
  BuildTrace(sink, "q7");
  const std::string bytes = Render(sink);
  std::istringstream lines(bytes);
  std::string line;
  std::getline(lines, line);  // header
  std::vector<ParsedSpan> spans;
  while (std::getline(lines, line)) {
    spans.push_back(ParseSpanLine(line));
  }
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].string_attrs.at("status"), "ok");
  EXPECT_EQ(spans[1].name, "materialize");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].uint_attrs.at("channels"), 16u);
  EXPECT_EQ(spans[2].name, "certify");
  EXPECT_EQ(spans[2].parent, 0);
  // Children are contained in the root's tick interval.
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[1].end, spans[2].start);
  EXPECT_LE(spans[2].end, spans[0].end);
}

TEST(TraceTest, ScopedSpanWithoutCurrentTraceIsANoOp) {
  ScopedSpan orphan("nothing");
  EXPECT_FALSE(orphan.active());
  ScopedTrace inactive(nullptr, "q0", "request");
  EXPECT_FALSE(inactive.active());
  TraceSink sink;
  ScopedTrace unsampled(&sink, "", "request");  // empty id = untraced
  EXPECT_FALSE(unsampled.active());
  EXPECT_EQ(sink.TraceCount(), 0u);
}

TEST(TraceTest, DetachedScopeKeepsSpansOutOfTheEnclosingTrace) {
  // A coalescing leader computes inside its request's trace context;
  // the computation's spans go to its own trace, or nowhere.
  TraceSink sink;
  {
    ScopedTrace request(&sink, "q0", "request");
    {
      DetachedScope detached;
      ScopedSpan dropped("treat");
      EXPECT_FALSE(dropped.active());
      ScopedTrace compute(&sink, "k0", "compute");
      ScopedSpan kept("certify");
      EXPECT_TRUE(kept.active());
    }
    ScopedSpan after("serialize");
    EXPECT_TRUE(after.active());
  }
  EXPECT_EQ(sink.TraceCount(), 2u);
  // request + serialize, compute + certify.
  EXPECT_EQ(sink.SpanCount(), 4u);
}

TEST(StageTimerTest, EmitsOneSpanPerTouchedStageWithBusyAndCalls) {
  TraceSink sink;
  {
    ScopedTrace trace(&sink, "k0", "compute");
    const StageSet stage_set("test_obs_stage", {"search", "apply"});
    StageTimer stages(stage_set);
    { StageTimer::Section section(stages, 0); }
    { StageTimer::Section section(stages, 0); }
    { StageTimer::Section section(stages, 1); }
    stages.Count(1, "vcs_added", 3);
    // Stage timers record metrics regardless of tracing.
  }
  std::istringstream lines(Render(sink));
  std::string line;
  std::getline(lines, line);  // header
  std::vector<ParsedSpan> spans;
  while (std::getline(lines, line)) {
    spans.push_back(ParseSpanLine(line));
  }
  ASSERT_EQ(spans.size(), 3u);  // root + two touched stages
  EXPECT_EQ(spans[1].name, "search");
  EXPECT_EQ(spans[1].uint_attrs.at("calls"), 2u);
  EXPECT_TRUE(spans[1].uint_attrs.count("busy"));
  EXPECT_EQ(spans[2].name, "apply");
  EXPECT_EQ(spans[2].uint_attrs.at("calls"), 1u);
  EXPECT_EQ(spans[2].uint_attrs.at("vcs_added"), 3u);
}

// ------------------------------------------------------- span schema

TEST(ParseSpanLineTest, RejectsSchemaViolations) {
  const std::string good =
      R"({"trace":"q0","span":0,"parent":-1,"name":"request",)"
      R"("start":0,"end":3})";
  EXPECT_NO_THROW(ParseSpanLine(good));
  // Missing name.
  EXPECT_THROW(
      ParseSpanLine(
          R"({"trace":"q0","span":0,"parent":-1,"start":0,"end":3})"),
      InvalidModelError);
  // Empty trace id.
  EXPECT_THROW(
      ParseSpanLine(
          R"({"trace":"","span":0,"parent":-1,"name":"r","start":0,"end":3})"),
      InvalidModelError);
  // start > end.
  EXPECT_THROW(ParseSpanLine(R"({"trace":"q0","span":0,"parent":-1,)"
                             R"("name":"r","start":4,"end":3})"),
               InvalidModelError);
  // Root must have parent -1; non-roots an earlier span id.
  EXPECT_THROW(
      ParseSpanLine(
          R"({"trace":"q0","span":0,"parent":0,"name":"r","start":0,"end":3})"),
      InvalidModelError);
  EXPECT_THROW(
      ParseSpanLine(
          R"({"trace":"q0","span":1,"parent":2,"name":"r","start":0,"end":3})"),
      InvalidModelError);
  // Attribute values must be strings or unsigned integers.
  EXPECT_THROW(ParseSpanLine(R"({"trace":"q0","span":0,"parent":-1,)"
                             R"("name":"r","start":0,"end":3,"x":1.5})"),
               InvalidModelError);
  EXPECT_THROW(ParseSpanLine(R"({"trace":"q0","span":0,"parent":-1,)"
                             R"("name":"r","start":0,"end":3,"x":[1]})"),
               InvalidModelError);
}

TEST(ParseTraceHeaderLineTest, ValidatesVersionAndClock) {
  EXPECT_TRUE(IsTraceHeaderLine(R"({"trace_schema":1,"clock":"logical"})"));
  EXPECT_FALSE(IsTraceHeaderLine(
      R"({"trace":"q0","span":0,"parent":-1,"name":"r","start":0,"end":0})"));
  EXPECT_EQ(ParseTraceHeaderLine(R"({"trace_schema":1,"clock":"wall"})"),
            TraceClockMode::kWall);
  EXPECT_THROW(ParseTraceHeaderLine(R"({"trace_schema":99,"clock":"wall"})"),
               InvalidModelError);
  EXPECT_THROW(ParseTraceHeaderLine(R"({"trace_schema":1,"clock":"sun"})"),
               InvalidModelError);
}

// ------------------------------------- metrics JSONL through the codec

TEST(MetricsProtocolTest, RequestRoundTripsThroughParseMessageLine) {
  serve::MetricsRequest request;
  request.id = "m1";
  const std::string line = serve::MetricsRequestToJsonLine(request);
  const serve::ServeMessage message = serve::ParseMessageLine(line);
  EXPECT_TRUE(message.is_metrics);
  EXPECT_FALSE(message.is_stats);
  EXPECT_FALSE(message.is_session);
  EXPECT_EQ(message.metrics.id, "m1");
  EXPECT_EQ(message.metrics.protocol_version, serve::kProtocolV2);
}

TEST(MetricsProtocolTest, ResponseCarriesRegistrySnapshotAndProvenance) {
  MetricsRegistry registry;
  registry.GetCounter("hits").Add(7);
  Histogram& histogram = registry.GetHistogram("req_us");
  histogram.Record(0);
  histogram.Record(5);
  histogram.Record(5);

  serve::MetricsRequest request;
  request.id = "m2";
  const std::string line =
      serve::MetricsResponseToJsonLine(request, registry.Snapshot());
  const JsonValue json = JsonValue::Parse(line);
  EXPECT_EQ(json.At("type").AsString(), "metrics");
  EXPECT_EQ(json.At("id").AsString(), "m2");
  EXPECT_EQ(json.At("status").AsString(), "ok");
  EXPECT_EQ(json.At("provenance").kind(), JsonValue::Kind::kObject);
  EXPECT_FALSE(json.At("provenance").At("git_sha").AsString().empty());
  EXPECT_EQ(json.At("counters").At("hits").AsUint(), 7u);
  EXPECT_EQ(json.Find("gauges"), nullptr);
  const JsonValue& req_us = json.At("histograms").At("req_us");
  EXPECT_EQ(req_us.At("count").AsUint(), 3u);
  EXPECT_EQ(req_us.At("sum").AsUint(), 10u);
  // Zero-count buckets are omitted: value 0 lands in [0,0], the two
  // 5s in [4,7].
  const std::vector<JsonValue>& buckets = req_us.At("buckets").Items();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].Items().at(0).AsUint(), 0u);
  EXPECT_EQ(buckets[0].Items().at(1).AsUint(), 1u);
  EXPECT_EQ(buckets[1].Items().at(0).AsUint(), 7u);
  EXPECT_EQ(buckets[1].Items().at(1).AsUint(), 2u);

  // The operator text renders from the same line.
  const std::string text = serve::MetricsTextFromJson(line, "serve: ");
  EXPECT_NE(text.find("serve: counter hits = 7"), std::string::npos);
  EXPECT_NE(text.find("req_us: 3 samples, sum 10"), std::string::npos);
  EXPECT_NE(text.find("p99 <= 7"), std::string::npos);

  // And the dispatcher recognizes the parsed request as metrics; a
  // non-metrics line is rejected by the text renderer.
  EXPECT_THROW(
      serve::MetricsTextFromJson(R"({"type":"stats","status":"ok"})", ""),
      serve::ProtocolError);
}

}  // namespace
}  // namespace nocdr::obs
