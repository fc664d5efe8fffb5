// src/serve/load_gen: seeded arrival traces, virtual-time replay and
// the open-loop determinism contract (identical combined digest at any
// client thread count).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "noc/io.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "serve/session.h"
#include "test_helpers.h"
#include "util/canonical.h"

namespace nocdr {
namespace {

using serve::CertRequest;
using serve::CertificationService;
using serve::RequestKind;
using serve::ServiceConfig;
using serve::SessionService;
using serve::load::ArrivalConfig;
using serve::load::ArrivalKind;
using serve::load::EventOutcome;
using serve::load::GenerateTrace;
using serve::load::LoadReport;
using serve::load::ReplayConfig;
using serve::load::ReplayTrace;
using serve::load::RunOpenLoop;
using serve::load::TraceClassMix;
using serve::load::TraceItem;
using serve::load::Verdict;
using serve::load::WorkItem;
using serve::sched::Discipline;
using testing::MakeRandomDesign;

// ---------------------------------------------------------------- traces

TEST(LoadGenTest, TraceIsSeedDeterministicAndMonotone) {
  ArrivalConfig arrival;
  arrival.rate_per_sec = 1000.0;
  const std::vector<TraceClassMix> mix = {{"interactive", 0, 3.0},
                                          {"batch", 2, 1.0}};
  const std::vector<TraceItem> a = GenerateTrace(arrival, 200, 10, mix, 99);
  const std::vector<TraceItem> b = GenerateTrace(arrival, 200, 10, mix, 99);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].work_index, b[i].work_index);
    EXPECT_EQ(a[i].class_name, b[i].class_name);
    EXPECT_LT(a[i].work_index, 10u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
    }
  }
  // Both classes actually appear, the 3:1 mix dominant one more often.
  std::size_t interactive = 0;
  for (const TraceItem& item : a) {
    interactive += item.class_name == "interactive" ? 1 : 0;
  }
  EXPECT_GT(interactive, 100u);
  EXPECT_LT(interactive, 200u);
  // A different seed draws a different timeline.
  const std::vector<TraceItem> c = GenerateTrace(arrival, 200, 10, mix, 100);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].arrival_us != c[i].arrival_us;
  }
  EXPECT_TRUE(any_different);
}

TEST(LoadGenTest, BurstyTraceClustersArrivals) {
  ArrivalConfig poisson;
  poisson.rate_per_sec = 500.0;
  ArrivalConfig bursty = poisson;
  bursty.kind = ArrivalKind::kBursty;
  const std::vector<TraceItem> smooth = GenerateTrace(poisson, 500, 4, {}, 7);
  const std::vector<TraceItem> clumped = GenerateTrace(bursty, 500, 4, {}, 7);
  // Dispersion test: the burstier process has a higher variance of
  // inter-arrival gaps relative to its mean (index of dispersion).
  const auto dispersion = [](const std::vector<TraceItem>& trace) {
    double mean = 0.0;
    std::vector<double> gaps;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      gaps.push_back(static_cast<double>(trace[i].arrival_us -
                                         trace[i - 1].arrival_us));
      mean += gaps.back();
    }
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (const double g : gaps) {
      var += (g - mean) * (g - mean);
    }
    var /= static_cast<double>(gaps.size());
    return var / mean;
  };
  EXPECT_GT(dispersion(clumped), 2.0 * dispersion(smooth));
}

// ---------------------------------------------------------------- replay

/// A hand trace: arrival times and per-item costs chosen so the exact
/// timeline is checkable on paper.
std::vector<TraceItem> HandTrace(
    const std::vector<std::uint64_t>& arrivals) {
  std::vector<TraceItem> trace;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    TraceItem item;
    item.arrival_us = arrivals[i];
    item.work_index = i;
    trace.push_back(item);
  }
  return trace;
}

TEST(LoadGenTest, ReplayTimelineIsExactWithOneServer) {
  // One server, cost == service time in us. Arrivals at 0, 10, 200:
  // the first runs [0,100), the second waits [10,100) and runs
  // [100,150), the third finds the server *idle* again (empty-queue
  // wakeup) and starts at its own arrival.
  ReplayConfig config;
  config.servers = 1;
  const LoadReport report = ReplayTrace(
      HandTrace({0, 10, 200}), {100, 50, 30}, config);
  ASSERT_EQ(report.events.size(), 3u);
  EXPECT_EQ(report.events[0].start_us, 0u);
  EXPECT_EQ(report.events[0].done_us, 100u);
  EXPECT_EQ(report.events[1].start_us, 100u);
  EXPECT_EQ(report.events[1].done_us, 150u);
  EXPECT_EQ(report.events[2].start_us, 200u);
  EXPECT_EQ(report.events[2].done_us, 230u);
  EXPECT_EQ(report.served, 3u);
  EXPECT_EQ(report.makespan_us, 230u);
  EXPECT_EQ(report.latency.max, 140u);  // the queued job: 150 - 10
}

TEST(LoadGenTest, ReplayQueueBoundRejectsOverflow) {
  // One server busy [0,1000), queue capacity 1: the third concurrent
  // arrival has nowhere to go and is rejected "overloaded".
  ReplayConfig config;
  config.servers = 1;
  config.queue_capacity = 1;
  const LoadReport report = ReplayTrace(
      HandTrace({0, 1, 2, 3}), {1000, 10, 10, 10}, config);
  EXPECT_EQ(report.events[0].verdict, Verdict::kServed);
  EXPECT_EQ(report.events[1].verdict, Verdict::kServed);
  EXPECT_EQ(report.events[2].verdict, Verdict::kRejectedQueue);
  EXPECT_EQ(report.events[3].verdict, Verdict::kRejectedQueue);
  EXPECT_EQ(report.rejected_queue, 2u);
  // Rejected events take zero time on the timeline.
  EXPECT_EQ(report.events[2].done_us, report.events[2].arrival_us);
}

TEST(LoadGenTest, ReplayTokenBudgetRejectsAndTracksClasses) {
  ReplayConfig config;
  config.servers = 4;
  config.admission.enabled = true;
  config.admission.tokens_per_sec = 1.0;  // ~0 refill over a short trace
  config.admission.burst = 2.0;
  std::vector<TraceItem> trace = HandTrace({0, 1, 2, 3});
  for (TraceItem& item : trace) {
    item.class_name = "batch";
    item.rank = 1;
  }
  const LoadReport report =
      ReplayTrace(trace, {10, 10, 10, 10}, config);
  EXPECT_EQ(report.served, 2u);  // burst capacity
  EXPECT_EQ(report.rejected_tokens, 2u);
  bool found = false;
  for (const auto& c : report.classes) {
    if (c.name == "batch") {
      found = true;
      EXPECT_EQ(c.arrivals, 4u);
      EXPECT_EQ(c.served, 2u);
      EXPECT_EQ(c.rejected_tokens, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(LoadGenTest, SjfOvertakesFifoUnderBacklog) {
  // Server busy [0,1000); a costly and a cheap job queue behind it.
  // FIFO serves them in arrival order; SJF lets the cheap one overtake.
  const std::vector<TraceItem> trace = HandTrace({0, 1, 2});
  const std::vector<std::uint64_t> costs = {1000, 500, 10};
  ReplayConfig fifo;
  fifo.servers = 1;
  ReplayConfig sjf = fifo;
  sjf.discipline = Discipline::kSjf;
  const LoadReport f = ReplayTrace(trace, costs, fifo);
  const LoadReport s = ReplayTrace(trace, costs, sjf);
  EXPECT_LT(f.events[1].start_us, f.events[2].start_us);
  EXPECT_LT(s.events[2].start_us, s.events[1].start_us);
  EXPECT_NE(f.digest, s.digest);
  EXPECT_LT(s.latency.p50, f.latency.p50);  // SJF shrinks the median
}

TEST(LoadGenTest, ReplayDigestIsReproducible) {
  // Overload on purpose (mean service ~400 us x 2 servers vs a 50 us
  // inter-arrival): the ready queue stays deep, so the discipline
  // actually decides the timeline and the digests can differ.
  ArrivalConfig arrival;
  arrival.rate_per_sec = 20000.0;
  arrival.kind = ArrivalKind::kBursty;
  const std::vector<TraceClassMix> mix = {{"interactive", 0, 2.0},
                                          {"batch", 3, 1.0}};
  const std::vector<TraceItem> trace =
      GenerateTrace(arrival, 400, 16, mix, 1234);
  std::vector<std::uint64_t> costs;
  for (std::size_t i = 0; i < 16; ++i) {
    costs.push_back(100 + 40 * i);
  }
  ReplayConfig config;
  config.discipline = Discipline::kPriority;
  config.servers = 2;
  config.admission.enabled = true;
  config.admission.tokens_per_sec = 15000.0;
  const LoadReport a = ReplayTrace(trace, costs, config);
  const LoadReport b = ReplayTrace(trace, costs, config);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  // The digest is sensitive to the policy...
  ReplayConfig fifo = config;
  fifo.discipline = Discipline::kFifo;
  EXPECT_NE(ReplayTrace(trace, costs, fifo).digest, a.digest);
  // ...and to the trace seed.
  const std::vector<TraceItem> other =
      GenerateTrace(arrival, 400, 16, mix, 1235);
  EXPECT_NE(ReplayTrace(other, costs, config).digest, a.digest);
}

// ------------------------------------------------- open-loop, real serve

TEST(LoadGenTest, OpenLoopCombinedDigestIsThreadCountStable) {
  // The acceptance bar: same (trace seed, arrival, discipline) -> the
  // same combined digest when the real serving pass runs on 1 and on 4
  // client threads. Fresh service + session per run: session bursts
  // mutate state, so each run replays from scratch.
  const auto run_once = [](std::size_t client_threads) {
    ServiceConfig service_config;
    service_config.threads = 2;
    CertificationService service(service_config);
    SessionService sessions(service);

    std::vector<WorkItem> corpus;
    for (std::size_t i = 0; i < 4; ++i) {
      WorkItem item;
      const NocDesign design = MakeRandomDesign(1000 + i);
      item.certify.id = "w" + std::to_string(i);
      item.certify.kind = RequestKind::kDesignText;
      item.certify.design_text = DesignText(design);
      item.cost = serve::sched::EstimateCost(design);
      corpus.push_back(std::move(item));
    }
    // One session work item: a burst failing a ring link (idempotent
    // when the trace replays it more than once).
    serve::SessionRequest open;
    open.op = serve::SessionOp::kOpen;
    open.spec.kind = RequestKind::kDesignText;
    open.spec.design_text = DesignText(MakeRandomDesign(77));
    const serve::SessionResponse opened = sessions.Handle(open);
    EXPECT_EQ(opened.status, serve::ServeStatus::kOk);
    WorkItem burst;
    burst.is_session = true;
    burst.burst.op = serve::SessionOp::kBurst;
    burst.burst.session_id = opened.session_id;
    serve::SessionEventSpec event;
    event.kind = fault::FaultKind::kLink;
    event.src = "SW0";
    event.dst = "SW1";
    burst.burst.events.push_back(event);
    burst.cost = 25;
    corpus.push_back(std::move(burst));

    ArrivalConfig arrival;
    arrival.rate_per_sec = 5000.0;
    const std::vector<TraceItem> trace =
        GenerateTrace(arrival, 60, corpus.size(), {}, 42);
    ReplayConfig config;
    config.discipline = Discipline::kSjf;
    config.servers = 2;
    return RunOpenLoop(service, &sessions, corpus, trace, config,
                       client_threads);
  };

  const serve::load::OpenLoopOutcome one = run_once(1);
  const serve::load::OpenLoopOutcome four = run_once(4);
  EXPECT_EQ(one.bad_responses, 0u);
  EXPECT_EQ(four.bad_responses, 0u);
  EXPECT_EQ(one.report.digest, four.report.digest);
  EXPECT_EQ(one.response_digest, four.response_digest);
  EXPECT_EQ(one.session_digest, four.session_digest);
  EXPECT_EQ(one.combined_digest, four.combined_digest);
  EXPECT_GT(one.report.served, 0u);
}

}  // namespace
}  // namespace nocdr
