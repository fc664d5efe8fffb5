// src/serve: sharded certificate cache, request coalescing and the
// certification service's determinism / backpressure contracts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deadlock/verify.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "serve/cert_cache.h"
#include "serve/coalescer.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "test_helpers.h"
#include "util/canonical.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr {
namespace {

using gen::UnidirectionalRing;
using serve::CachedCertification;
using serve::CacheConfig;
using serve::CacheOutcome;
using serve::CertificationService;
using serve::CertRequest;
using serve::CertResponse;
using serve::CoalescerConfig;
using serve::RequestCoalescer;
using serve::RequestKind;
using serve::ServeStatus;
using serve::ServiceConfig;
using serve::ShardedCertCache;
using testing::MakePaperExample;
using testing::MakeRandomDesign;

CachedCertification MakeValue(const std::string& tag,
                              std::size_t padding = 0) {
  CachedCertification value;
  value.certificate_json = "{\"tag\":\"" + tag + "\"}";
  value.treated_design_text = std::string(padding, 'x');
  value.deadlock_free = true;
  return value;
}

CertRequest TextRequest(const std::string& id, const NocDesign& design) {
  CertRequest request;
  request.id = id;
  request.kind = RequestKind::kDesignText;
  request.design_text = DesignText(design);
  return request;
}

/// Spins until \p predicate holds or ~10 s elapse.
template <typename Predicate>
bool SpinUntil(const Predicate& predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// ---------------------------------------------------------------- cache

TEST(CertCacheTest, InsertLookupRoundTripAndCounters) {
  ShardedCertCache cache(CacheConfig{4, 64, 1 << 20});
  EXPECT_FALSE(cache.Lookup(1, "k1"));
  cache.Insert(1, "k1", MakeValue("a"));
  const auto hit = cache.Lookup(1, "k1");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"a\"}");

  const serve::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CertCacheTest, DigestCollisionDegradesToMissNeverWrongValue) {
  ShardedCertCache cache(CacheConfig{1, 8, 1 << 20});
  cache.Insert(42, "key_a", MakeValue("a"));
  // Same digest, different key text: must miss, not serve "a".
  EXPECT_FALSE(cache.Lookup(42, "key_b"));
  // The collision insert replaces; the old key then misses.
  cache.Insert(42, "key_b", MakeValue("b"));
  EXPECT_FALSE(cache.Lookup(42, "key_a"));
  const auto hit = cache.Lookup(42, "key_b");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"b\"}");
}

TEST(CertCacheTest, LruEvictionRespectsEntryBoundAndRecency) {
  ShardedCertCache cache(CacheConfig{1, 3, 1 << 20});
  cache.Insert(1, "k1", MakeValue("a"));
  cache.Insert(2, "k2", MakeValue("b"));
  cache.Insert(3, "k3", MakeValue("c"));
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(1, "k1") != nullptr);
  cache.Insert(4, "k4", MakeValue("d"));

  EXPECT_TRUE(cache.Lookup(1, "k1") != nullptr);
  EXPECT_FALSE(cache.Lookup(2, "k2"));
  EXPECT_TRUE(cache.Lookup(3, "k3") != nullptr);
  EXPECT_TRUE(cache.Lookup(4, "k4") != nullptr);

  const serve::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(CertCacheTest, ByteBoundEvictsAndRejectsOversize) {
  // Each padded value is ~1 KiB; the shard budget fits about two.
  ShardedCertCache cache(CacheConfig{1, 100, 2600});
  cache.Insert(1, "k1", MakeValue("a", 1000));
  cache.Insert(2, "k2", MakeValue("b", 1000));
  cache.Insert(3, "k3", MakeValue("c", 1000));
  serve::CacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 2600u);
  EXPECT_LE(stats.entries, 2u);

  // An entry that alone exceeds the budget is rejected outright and
  // does not wipe the resident entries.
  const std::size_t entries_before = stats.entries;
  cache.Insert(9, "huge", MakeValue("h", 100000));
  stats = cache.Stats();
  EXPECT_EQ(stats.oversize_rejections, 1u);
  EXPECT_EQ(stats.entries, entries_before);
}

TEST(CertCacheTest, RevalidateCountsHitsOnly) {
  ShardedCertCache cache(CacheConfig{1, 8, 1 << 20});
  EXPECT_FALSE(cache.Revalidate(5, "k"));
  serve::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 0u);
  cache.Insert(5, "k", MakeValue("v"));
  EXPECT_TRUE(cache.Revalidate(5, "k") != nullptr);
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

// ------------------------------------------------------------ coalescer

TEST(CoalescerTest, ConcurrentDuplicatesShareExactlyOneComputation) {
  constexpr std::size_t kClients = 4;
  RequestCoalescer coalescer(CoalescerConfig{8});
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> computes{0};

  // The leader computes inside its own Submit, and the computation
  // refuses to finish until every other client has submitted, so all of
  // them are provably in flight together — none can be served by a
  // cache or by a fresh leader after the fact.
  const auto compute = [&]() -> CachedCertification {
    ++computes;
    EXPECT_TRUE(SpinUntil([&] { return submitted.load() == kClients - 1; }));
    return MakeValue("shared");
  };
  const auto probe = []() -> std::optional<CachedCertification> {
    return std::nullopt;
  };

  std::vector<RequestCoalescer::Outcome> outcomes(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      outcomes[i] = coalescer.Submit(99, "same-key", probe, compute);
      ++submitted;
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  std::size_t leaders = 0;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.kind == RequestCoalescer::Outcome::Kind::kLeader ||
                outcome.kind == RequestCoalescer::Outcome::Kind::kFollower);
    leaders += outcome.kind == RequestCoalescer::Outcome::Kind::kLeader;
    const CachedCertification value = outcome.future.get();
    EXPECT_EQ(value.certificate_json, "{\"tag\":\"shared\"}");
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(computes.load(), 1u);
}

TEST(CoalescerTest, ComputeExceptionReachesEveryWaiter) {
  constexpr std::size_t kClients = 3;
  RequestCoalescer coalescer(CoalescerConfig{8});
  std::atomic<std::size_t> submitted{0};
  const auto compute = [&]() -> CachedCertification {
    if (!SpinUntil([&] { return submitted.load() == kClients - 1; })) {
      ADD_FAILURE() << "clients never all submitted";
    }
    throw AlgorithmLimitError("deliberate failure");
  };
  const auto probe = []() -> std::optional<CachedCertification> {
    return std::nullopt;
  };

  std::vector<RequestCoalescer::Outcome> outcomes(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      outcomes[i] = coalescer.Submit(7, "poisoned", probe, compute);
      ++submitted;
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (const auto& outcome : outcomes) {
    EXPECT_THROW((void)outcome.future.get(), AlgorithmLimitError);
  }
  EXPECT_EQ(coalescer.Pending(), 0u);
}

TEST(CoalescerTest, AdmissionBoundRejectsNovelWorkNotFollowers) {
  RequestCoalescer coalescer(CoalescerConfig{1});
  std::atomic<bool> release{false};
  std::atomic<std::size_t> computes{0};
  const auto slow_compute = [&]() -> CachedCertification {
    ++computes;
    EXPECT_TRUE(SpinUntil([&] { return release.load(); }));
    return MakeValue("slow");
  };
  const auto probe = []() -> std::optional<CachedCertification> {
    return std::nullopt;
  };

  // The leader computes inside its Submit, on its own thread.
  RequestCoalescer::Outcome leader;
  std::thread leader_thread(
      [&] { leader = coalescer.Submit(1, "busy", probe, slow_compute); });
  ASSERT_TRUE(SpinUntil([&] { return computes.load() == 1; }));

  // A duplicate joins for free while a novel key is turned away.
  const auto follower = coalescer.Submit(1, "busy", probe, slow_compute);
  EXPECT_EQ(follower.kind, RequestCoalescer::Outcome::Kind::kFollower);
  const auto rejected = coalescer.Submit(2, "novel", probe, slow_compute);
  EXPECT_EQ(rejected.kind, RequestCoalescer::Outcome::Kind::kRejected);

  release = true;
  leader_thread.join();
  ASSERT_EQ(leader.kind, RequestCoalescer::Outcome::Kind::kLeader);
  (void)leader.future.get();
  (void)follower.future.get();
  // The leader's Submit retired its slot before returning.
  EXPECT_EQ(coalescer.Pending(), 0u);

  // Capacity freed: the novel key is admitted now.
  const auto retry = coalescer.Submit(2, "novel", probe, slow_compute);
  EXPECT_EQ(retry.kind, RequestCoalescer::Outcome::Kind::kLeader);
  (void)retry.future.get();
  EXPECT_EQ(computes.load(), 2u);
}

TEST(CoalescerTest, LeaderComputesOnItsCallersThread) {
  RequestCoalescer coalescer;
  std::optional<CachedCertification> cache;
  std::thread::id computed_on;
  const auto compute = [&]() -> CachedCertification {
    computed_on = std::this_thread::get_id();
    EXPECT_EQ(coalescer.Pending(), 1u);
    cache = MakeValue("inline");
    return *cache;
  };
  const auto probe = [&]() { return cache; };

  const auto leader = coalescer.Submit(5, "inline", probe, compute);
  ASSERT_EQ(leader.kind, RequestCoalescer::Outcome::Kind::kLeader);
  EXPECT_EQ(computed_on, std::this_thread::get_id());
  // Submit returned with the result in hand and the slot retired.
  EXPECT_EQ(leader.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(leader.future.get().certificate_json, "{\"tag\":\"inline\"}");
  EXPECT_EQ(coalescer.Pending(), 0u);

  // The computation published before the slot retired, so a repeat
  // resolves from the probe and computes nothing.
  computed_on = std::thread::id();
  const auto repeat = coalescer.Submit(5, "inline", probe, compute);
  EXPECT_EQ(repeat.kind, RequestCoalescer::Outcome::Kind::kResolved);
  EXPECT_EQ(computed_on, std::thread::id());
}

// -------------------------------------------------------------- service

TEST(ServiceTest, FlowOrderDoesNotSplitTheCache) {
  CertificationService service;
  const NocDesign design = MakeRandomDesign(3);

  // Reverse the flow declaration order (routes follow).
  NocDesign reversed;
  reversed.name = design.name;
  reversed.topology = design.topology;
  reversed.attachment = design.attachment;
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    reversed.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
  }
  reversed.routes.Resize(design.traffic.FlowCount());
  for (std::size_t f = design.traffic.FlowCount(); f-- > 0;) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    const FlowId nf =
        reversed.traffic.AddFlow(flow.src, flow.dst, flow.bandwidth_mbps);
    reversed.routes.SetRoute(nf, design.routes.RouteOf(FlowId(f)));
  }

  const CertResponse first = service.Serve(TextRequest("a", design));
  const CertResponse second = service.Serve(TextRequest("a", reversed));
  ASSERT_EQ(first.status, ServeStatus::kOk);
  ASSERT_EQ(second.status, ServeStatus::kOk);
  EXPECT_EQ(first.key, second.key);
  EXPECT_EQ(second.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(serve::ResponseDigest({first}), serve::ResponseDigest({second}));
}

TEST(ServiceTest, GeneratorSpecAndRenderedTextConverge) {
  CertificationService service;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 4;
  spec.height = 4;
  spec.seed = 11;

  CertRequest by_spec;
  by_spec.id = "g";
  by_spec.kind = RequestKind::kGeneratorSpec;
  by_spec.generator = spec;
  const CertResponse first = service.Serve(by_spec);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_EQ(first.cache_outcome, CacheOutcome::kComputed);

  const CertResponse second =
      service.Serve(TextRequest("g", gen::GenerateStandardDesign(spec)));
  ASSERT_EQ(second.status, ServeStatus::kOk);
  EXPECT_EQ(second.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(first.key, second.key);
  EXPECT_EQ(serve::ResponseDigest({first}), serve::ResponseDigest({second}));

  // The torus under removal must have been repaired.
  EXPECT_TRUE(first.deadlock_free);
}

TEST(ServiceTest, UntreatedNegativeCertificateIsServedAndCached) {
  CertificationService service;
  CertRequest request = TextRequest("ring", UnidirectionalRing(6, 2));
  request.treat = false;

  const CertResponse first = service.Serve(request);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_FALSE(first.deadlock_free);
  EXPECT_EQ(first.vcs_added, 0u);
  const JsonValue certificate = JsonValue::Parse(first.certificate_json);
  EXPECT_FALSE(certificate.At("deadlock_free").AsBool());
  EXPECT_GE(certificate.At("counterexample").Items().size(), 2u);

  const CertResponse second = service.Serve(request);
  EXPECT_EQ(second.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(serve::ResponseDigest({first}), serve::ResponseDigest({second}));
}

TEST(ServiceTest, ReturnDesignServesTheRepairedDesign) {
  CertificationService service;
  CertRequest request = TextRequest("ring", UnidirectionalRing(6, 2));
  request.return_design = true;
  const CertResponse response = service.Serve(request);
  ASSERT_EQ(response.status, ServeStatus::kOk);
  EXPECT_TRUE(response.deadlock_free);
  EXPECT_GT(response.vcs_added, 0u);
  ASSERT_FALSE(response.treated_design_text.empty());
  // The returned text parses back to a deadlock-free design.
  std::istringstream in(response.treated_design_text);
  const NocDesign repaired = ReadDesign(in);
  EXPECT_TRUE(IsDeadlockFree(repaired));
  EXPECT_EQ(repaired.topology.ChannelCount(), response.channels_after);
}

TEST(ServiceTest, ConcurrentDuplicateRequestsShareOneCertifyRun) {
  constexpr std::size_t kClients = 4;
  std::atomic<std::size_t> responded{0};
  std::atomic<std::size_t> certifier_runs{0};
  ServiceConfig config;
  config.threads = 2;
  CertificationService service(
      config, [&](const NocDesign& canonical, const CertRequest& request) {
        ++certifier_runs;
        // Hold the computation open until every client has *submitted*
        // (the coalescer replies to followers without waiting for
        // completion, so all four must be in flight together).
        EXPECT_TRUE(SpinUntil([&] { return responded.load() == kClients; }));
        return serve::ComputeCertification(canonical, request);
      });

  const CertRequest request = TextRequest("dup", MakeRandomDesign(8));
  std::vector<CertResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      // Count this client as soon as its request is guaranteed to be
      // registered: Serve blocks, so count from a sibling thread is
      // impossible — instead count *before* serving and let the
      // certifier wait for all counts plus the registration race to
      // settle via the coalescer's own registry.
      ++responded;
      responses[i] = service.Serve(request);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  EXPECT_EQ(certifier_runs.load(), 1u);
  std::size_t computed = 0, coalesced = 0, hits = 0;
  for (const CertResponse& response : responses) {
    ASSERT_EQ(response.status, ServeStatus::kOk);
    computed += response.cache_outcome == CacheOutcome::kComputed;
    coalesced += response.cache_outcome == CacheOutcome::kCoalesced;
    hits += response.cache_outcome == CacheOutcome::kHit;
    EXPECT_EQ(serve::ResponseDigest({response}),
              serve::ResponseDigest({responses[0]}));
  }
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(computed + coalesced + hits, kClients);
  EXPECT_EQ(service.Stats().computations, 1u);
}

TEST(ServiceTest, BackpressureReturnsOverloadedImmediately) {
  std::atomic<bool> release{false};
  std::atomic<bool> computing{false};
  ServiceConfig config;
  config.threads = 1;
  config.max_pending = 1;
  CertificationService service(
      config, [&](const NocDesign& canonical, const CertRequest& request) {
        computing = true;
        EXPECT_TRUE(SpinUntil([&] { return release.load(); }));
        return serve::ComputeCertification(canonical, request);
      });

  const CertRequest busy = TextRequest("busy", MakeRandomDesign(1));
  const CertRequest novel = TextRequest("novel", MakeRandomDesign(2));

  std::thread blocked([&] {
    const CertResponse response = service.Serve(busy);
    EXPECT_EQ(response.status, ServeStatus::kOk);
  });
  ASSERT_TRUE(SpinUntil([&] { return computing.load(); }));

  const CertResponse overloaded = service.Serve(novel);
  EXPECT_EQ(overloaded.status, ServeStatus::kOverloaded);
  EXPECT_EQ(overloaded.cache_outcome, CacheOutcome::kNone);

  release = true;
  blocked.join();
  ASSERT_TRUE(SpinUntil([&] { return service.Stats().pool_backlog == 0; }));

  const CertResponse retry = service.Serve(novel);
  EXPECT_EQ(retry.status, ServeStatus::kOk);
  EXPECT_EQ(service.Stats().rejected, 1u);
}

TEST(ServiceTest, ResponseDigestIsClientThreadCountStable) {
  // Duplicate-heavy batch across all request kinds.
  std::vector<CertRequest> batch;
  const NocDesign a = MakeRandomDesign(4);
  const NocDesign b = UnidirectionalRing(8, 2);
  for (int round = 0; round < 6; ++round) {
    batch.push_back(TextRequest("a" + std::to_string(round), a));
    batch.push_back(TextRequest("b" + std::to_string(round), b));
    CertRequest source;
    source.id = "s" + std::to_string(round);
    source.kind = RequestKind::kSourceSeed;
    source.source = valid::DesignSource::kMesh;
    source.seed = 21;
    batch.push_back(source);
  }

  std::optional<std::vector<std::uint64_t>> reference;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{3}}) {
    ServiceConfig config;
    config.threads = 2;
    CertificationService service(config);
    const std::vector<CertResponse> responses =
        service.ServeBatch(batch, clients);
    const serve::ServiceStats stats = service.Stats();
    // Exactly one computation per distinct problem, at any concurrency.
    EXPECT_EQ(stats.computations, 3u) << clients << " clients";
    EXPECT_EQ(stats.requests, batch.size());
    EXPECT_EQ(stats.hits + stats.coalesced + stats.computations,
              batch.size());

    // A session then streams through the same service: it opens on the
    // mesh the batch computed, and its burst publishes an epoch that a
    // second pass of the batch reads back on the same client threads.
    serve::SessionService sessions(service);
    serve::SessionRequest open;
    open.op = serve::SessionOp::kOpen;
    open.spec.kind = RequestKind::kSourceSeed;
    open.spec.source = valid::DesignSource::kMesh;
    open.spec.seed = 21;
    open.return_design = true;
    std::vector<serve::SessionResponse> stream = {sessions.Handle(open)};
    ASSERT_EQ(stream[0].status, ServeStatus::kOk);
    std::istringstream text(stream[0].design_text);
    const NocDesign mesh = ReadDesign(text);
    const Link& link = mesh.topology.LinkAt(LinkId(0));
    serve::SessionRequest burst;
    burst.op = serve::SessionOp::kBurst;
    burst.session_id = stream[0].session_id;
    burst.return_design = true;
    burst.events.push_back({fault::FaultKind::kLink,
                            mesh.topology.SwitchName(link.src),
                            mesh.topology.SwitchName(link.dst), ""});
    stream.push_back(sessions.Handle(burst));
    ASSERT_EQ(stream[1].status, ServeStatus::kOk);
    ASSERT_TRUE(stream[1].feasible);
    std::vector<CertRequest> second = batch;
    CertRequest epoch;
    epoch.id = "epoch1";
    epoch.kind = RequestKind::kDesignText;
    epoch.design_text = stream[1].design_text;
    second.push_back(epoch);
    const std::vector<CertResponse> reread =
        service.ServeBatch(second, clients);
    EXPECT_EQ(reread.back().cache_outcome, CacheOutcome::kHit);
    EXPECT_EQ(reread.back().certificate_json, stream[1].certificate_json);

    const std::vector<std::uint64_t> digests = {
        serve::ResponseDigest(responses), serve::SessionResponseDigest(stream),
        serve::ResponseDigest(reread)};
    if (reference.has_value()) {
      EXPECT_EQ(digests, *reference) << clients << " clients";
    }
    reference = digests;
  }
}

TEST(ServiceTest, MalformedRequestsAreErrorsAndNeverCached) {
  CertificationService service;
  CertRequest request;
  request.id = "bad";
  request.kind = RequestKind::kDesignText;
  request.design_text = "this is not a design";
  const CertResponse first = service.Serve(request);
  EXPECT_EQ(first.status, ServeStatus::kError);
  EXPECT_EQ(first.error.code, serve::ErrorCode::kInvalidRequest);
  EXPECT_FALSE(first.error.message.empty());
  const CertResponse second = service.Serve(request);
  EXPECT_EQ(second.status, ServeStatus::kError);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.computations, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

TEST(ServiceTest, NegativeVcCountIsAPromptInvalidRequest) {
  // Read as 2^64-1 VCs before the numeric grammar, this link allocated
  // channels until memory ran out.
  CertificationService service;
  CertRequest request;
  request.id = "vcs";
  request.kind = RequestKind::kDesignText;
  request.design_text = "noc t\nswitch A\nswitch B\nlink A B -1\n";
  const auto start = std::chrono::steady_clock::now();
  const CertResponse response = service.Serve(request);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(response.status, ServeStatus::kError);
  EXPECT_EQ(response.error.code, serve::ErrorCode::kInvalidRequest);
  EXPECT_NE(response.error.message.find("line 4"), std::string::npos)
      << response.error.message;
}

/// The five outcomes ServiceStats splits its requests into.
constexpr std::array<std::uint64_t serve::ServiceStats::*, 5> kOutcomes = {
    &serve::ServiceStats::hits, &serve::ServiceStats::computations,
    &serve::ServiceStats::coalesced, &serve::ServiceStats::rejected,
    &serve::ServiceStats::errors};

// Every way a request ends moves exactly one outcome counter, so
// requests == hits + computations + coalesced + rejected + errors after
// each response. The failures keep what their exit writes: a compute
// failure its key, the exception boundary nothing but the echo, an
// admission rejection no cache outcome.
TEST(ServiceTest, EveryOutcomeMovesExactlyOneCounter) {
  enum class Certify { kCompute, kThrowModelError, kThrowNonStandard };
  Certify certify = Certify::kCompute;
  ServiceConfig config;
  // No refill: the budget admits three misses, then rejects.
  config.admission.enabled = true;
  config.admission.tokens_per_sec = 0.0;
  config.admission.burst = 3.0;
  CertificationService service(
      config, [&](const NocDesign& canonical, const CertRequest& request) {
        if (certify == Certify::kThrowModelError) {
          throw InvalidModelError("injected model error");
        }
        if (certify == Certify::kThrowNonStandard) {
          throw 7;
        }
        return serve::ComputeCertification(canonical, request);
      });

  serve::ServiceStats before = service.Stats();
  const auto moved_only = [&](std::uint64_t serve::ServiceStats::*moved) {
    const serve::ServiceStats after = service.Stats();
    EXPECT_EQ(after.requests, before.requests + 1);
    std::uint64_t outcomes = 0;
    for (const auto counter : kOutcomes) {
      EXPECT_EQ(after.*counter, before.*counter + (counter == moved ? 1 : 0));
      outcomes += after.*counter;
    }
    EXPECT_EQ(after.requests, outcomes);
    before = after;
  };

  const CertRequest ring = TextRequest("ring", UnidirectionalRing(6, 2));
  const CertResponse computed = service.Serve(ring);
  ASSERT_EQ(computed.status, ServeStatus::kOk);
  EXPECT_EQ(computed.cache_outcome, CacheOutcome::kComputed);
  moved_only(&serve::ServiceStats::computations);

  const CertResponse hit = service.Serve(ring);
  ASSERT_EQ(hit.status, ServeStatus::kOk);
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kHit);
  moved_only(&serve::ServiceStats::hits);

  CertRequest garbage;
  garbage.id = "garbage";
  garbage.kind = RequestKind::kDesignText;
  garbage.design_text = "this is not a design";
  const CertResponse unparsed = service.Serve(garbage);
  EXPECT_EQ(unparsed.status, ServeStatus::kError);
  EXPECT_EQ(unparsed.error.code, serve::ErrorCode::kInvalidRequest);
  EXPECT_EQ(unparsed.id, "garbage");
  moved_only(&serve::ServiceStats::errors);

  // A switch name with a space has no text form, so the design cannot
  // canonicalize; only an in-memory design can carry one.
  NocDesign spaced;
  spaced.name = "spaced";
  const SwitchId a = spaced.topology.AddSwitch("switch a");
  const SwitchId b = spaced.topology.AddSwitch("b");
  const LinkId ab = spaced.topology.AddLink(a, b);
  spaced.attachment = {a, b};
  const FlowId flow = spaced.traffic.AddFlow(
      spaced.traffic.AddCore("src"), spaced.traffic.AddCore("dst"), 10.0);
  spaced.routes.Resize(1);
  spaced.routes.SetRoute(flow, {*spaced.topology.FindChannel(ab, 0)});
  CertRequest in_memory;
  in_memory.id = "spaced";
  const CertResponse uncanonical =
      service.ServeDesign(std::move(spaced), in_memory);
  EXPECT_EQ(uncanonical.status, ServeStatus::kError);
  EXPECT_EQ(uncanonical.error.code, serve::ErrorCode::kInvalidRequest);
  EXPECT_NE(uncanonical.error.message.find("switch a"), std::string::npos)
      << uncanonical.error.message;
  EXPECT_EQ(uncanonical.id, "spaced");
  moved_only(&serve::ServiceStats::errors);

  certify = Certify::kThrowModelError;
  const CertResponse failed =
      service.Serve(TextRequest("model", UnidirectionalRing(7, 2)));
  EXPECT_EQ(failed.status, ServeStatus::kError);
  EXPECT_EQ(failed.error.code, serve::ErrorCode::kComputeFailed);
  EXPECT_EQ(failed.error.message, "injected model error");
  EXPECT_NE(failed.key, 0u);
  EXPECT_EQ(failed.cache_outcome, CacheOutcome::kNone);
  moved_only(&serve::ServiceStats::errors);

  certify = Certify::kThrowNonStandard;
  const CertResponse internal =
      service.Serve(TextRequest("odd", UnidirectionalRing(8, 2)));
  EXPECT_EQ(internal.status, ServeStatus::kError);
  EXPECT_EQ(internal.error.code, serve::ErrorCode::kInternal);
  EXPECT_EQ(internal.error.message, "unknown non-standard exception");
  EXPECT_EQ(internal.id, "odd");
  EXPECT_EQ(internal.key, 0u);
  moved_only(&serve::ServiceStats::errors);

  // The three misses above spent the budget.
  certify = Certify::kCompute;
  const CertResponse rejected =
      service.Serve(TextRequest("late", UnidirectionalRing(9, 2)));
  EXPECT_EQ(rejected.status, ServeStatus::kOverloaded);
  EXPECT_EQ(rejected.error.code, serve::ErrorCode::kOverloaded);
  EXPECT_NE(rejected.key, 0u);
  EXPECT_EQ(rejected.cache_outcome, CacheOutcome::kNone);
  moved_only(&serve::ServiceStats::rejected);
  EXPECT_EQ(service.Stats().pool_backlog, 0u);
}

// max_iterations caps the breaks removal may make, so a cap of 0 serves
// only designs that need none: the torus needs breaks and is answered
// compute_failed; the mesh's dimension-order routes are deadlock-free.
TEST(ServiceTest, ZeroMaxIterationsServesOnlyDesignsThatNeedNoBreak) {
  CertificationService service;
  const CertResponse torus = service.Serve(serve::ParseRequestLine(
      R"({"id":"t","generator":{"family":"torus","width":6,"height":6},)"
      R"("options":{"max_iterations":0}})"));
  EXPECT_EQ(torus.status, ServeStatus::kError);
  EXPECT_EQ(torus.error.code, serve::ErrorCode::kComputeFailed);
  EXPECT_EQ(torus.error.message,
            "RemoveDeadlocks: iteration cap exceeded (0)");

  const CertResponse mesh = service.Serve(serve::ParseRequestLine(
      R"({"id":"m","generator":{"family":"mesh","width":4,"height":4},)"
      R"("options":{"max_iterations":0}})"));
  ASSERT_EQ(mesh.status, ServeStatus::kOk) << mesh.error.message;
  EXPECT_EQ(mesh.iterations, 0u);
  EXPECT_TRUE(mesh.deadlock_free);
}

// Each recomputed response comes from a fresh service, which is what a
// first-time request costs; the warm service then computes once and hits.
TEST(ServiceTest, CachedAndRecomputedResponsesAreBitIdentical) {
  const CertRequest request = TextRequest("x", MakeRandomDesign(9));

  const CertResponse recomputed_a = CertificationService().Serve(request);
  const CertResponse recomputed_b = CertificationService().Serve(request);
  EXPECT_EQ(recomputed_a.cache_outcome, CacheOutcome::kComputed);
  EXPECT_EQ(recomputed_b.cache_outcome, CacheOutcome::kComputed);

  CertificationService warm;
  const CertResponse computed = warm.Serve(request);
  const CertResponse hit = warm.Serve(request);
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kHit);

  const std::uint64_t reference = serve::ResponseDigest({recomputed_a});
  EXPECT_EQ(serve::ResponseDigest({recomputed_b}), reference);
  EXPECT_EQ(serve::ResponseDigest({computed}), reference);
  EXPECT_EQ(serve::ResponseDigest({hit}), reference);
}

// ComputeCertification builds one CDG per computation and certifies from
// the graph removal kept in sync. It must equal the three-call reference
// byte for byte, treated and untreated (where a cyclic design's
// certificate is a counterexample). The reference treats with
// RemoveDeadlocksRebuild, which shares no graph upkeep with the served
// computation.
TEST(ServiceTest, ComputeCertificationEqualsTheThreeCallReference) {
  gen::GeneratorSpec torus;
  torus.family = gen::TopologyFamily::kTorus2D;
  torus.width = torus.height = 6;
  const std::vector<NocDesign> designs = {
      gen::GenerateStandardDesign(torus), UnidirectionalRing(8, 3),
      MakePaperExample().design, MakeRandomDesign(3, 10, 14, 30)};
  std::size_t counterexamples = 0;
  for (const NocDesign& input : designs) {
    const NocDesign canonical = CanonicalizeDesign(input).design;
    for (const bool treat : {true, false}) {
      SCOPED_TRACE(input.name + (treat ? " treated" : " untreated"));
      CertRequest request;
      request.treat = treat;
      const CachedCertification served =
          serve::ComputeCertification(canonical, request);

      NocDesign treated = canonical;
      RemovalReport report;
      if (treat) {
        report = RemoveDeadlocksRebuild(treated, request.options);
      }
      const DeadlockCertificate certificate = CertifyDeadlockFreedom(treated);
      EXPECT_EQ(served.certificate_json, CertificateToJson(certificate));
      EXPECT_EQ(served.treated_design_text, DesignText(treated));
      EXPECT_EQ(served.deadlock_free, certificate.deadlock_free);
      EXPECT_EQ(served.iterations, report.iterations);
      EXPECT_EQ(served.vcs_added, report.vcs_added);
      EXPECT_EQ(served.flows_rerouted, report.flows_rerouted);
      EXPECT_EQ(served.channels_before, canonical.topology.ChannelCount());
      EXPECT_EQ(served.channels_after, treated.topology.ChannelCount());
      if (!certificate.deadlock_free) {
        EXPECT_FALSE(treat);
        EXPECT_FALSE(certificate.counterexample.empty());
        ++counterexamples;
      }
    }
  }
  EXPECT_GT(counterexamples, 0u) << "no untreated design was cyclic";
}

// The retired "engine" option is an unknown key now: a request that still
// sends it, with any value, parses and is answered byte for byte as the
// same request without it. Each request runs on a fresh service, so every
// answer is computed.
TEST(ServiceTest, RetiredEngineOptionIsIgnored) {
  const std::string v2 = R"("protocol_version":2,"type":"certify",)";
  const std::string problem =
      R"("id":"e","generator":{"family":"torus","width":6,"height":6},)"
      R"("return_design":true,"options":{"direction":"both")";
  for (const auto& [head, engine] :
       std::vector<std::pair<std::string, std::string>>{
           {"", "rebuild"}, {v2, "rebuild"}, {"", "warp"}}) {
    const std::string plain = "{" + head + problem + "}}";
    const std::string with_engine =
        "{" + head + problem + R"(,"engine":")" + engine + R"("}})";
    SCOPED_TRACE(with_engine);
    const CertRequest request = serve::ParseRequestLine(with_engine);
    EXPECT_EQ(serve::RequestToJsonLine(request),
              serve::RequestToJsonLine(serve::ParseRequestLine(plain)));
    const CertResponse response = CertificationService().Serve(request);
    const CertResponse reference =
        CertificationService().Serve(serve::ParseRequestLine(plain));
    ASSERT_EQ(reference.status, ServeStatus::kOk);
    EXPECT_GT(reference.vcs_added, 0u);
    EXPECT_EQ(serve::ResponseDigest({response}),
              serve::ResponseDigest({reference}));
  }
}

// ------------------------------------------------------------- protocol

TEST(ProtocolTest, DesignRequestRoundTrips) {
  CertRequest request = TextRequest("r1", MakePaperExample().design);
  request.treat = false;
  request.return_design = true;
  request.options.cycle_policy = CyclePolicy::kFirstFound;
  request.options.max_iterations = 12;

  const CertRequest parsed =
      serve::ParseRequestLine(serve::RequestToJsonLine(request));
  EXPECT_EQ(parsed.id, "r1");
  EXPECT_EQ(parsed.kind, RequestKind::kDesignText);
  EXPECT_EQ(parsed.design_text, request.design_text);
  EXPECT_FALSE(parsed.treat);
  EXPECT_TRUE(parsed.return_design);
  EXPECT_EQ(parsed.options.cycle_policy, CyclePolicy::kFirstFound);
  EXPECT_EQ(parsed.options.max_iterations, 12u);
}

TEST(ProtocolTest, GeneratorAndSourceRequestsRoundTrip) {
  CertRequest generator;
  generator.id = "g1";
  generator.kind = RequestKind::kGeneratorSpec;
  generator.generator.family = gen::TopologyFamily::kFatTree;
  generator.generator.tree_arity = 3;
  generator.generator.pattern = gen::TrafficPattern::kHotspot;
  generator.generator.hotspot_fraction = 0.5;
  generator.generator.seed = 99;
  CertRequest parsed =
      serve::ParseRequestLine(serve::RequestToJsonLine(generator));
  EXPECT_EQ(parsed.kind, RequestKind::kGeneratorSpec);
  EXPECT_EQ(parsed.generator.family, gen::TopologyFamily::kFatTree);
  EXPECT_EQ(parsed.generator.tree_arity, 3u);
  EXPECT_EQ(parsed.generator.pattern, gen::TrafficPattern::kHotspot);
  EXPECT_DOUBLE_EQ(parsed.generator.hotspot_fraction, 0.5);
  EXPECT_EQ(parsed.generator.seed, 99u);

  CertRequest source;
  source.id = "s1";
  source.kind = RequestKind::kSourceSeed;
  source.source = valid::DesignSource::kTorus;
  source.seed = 1234567890123456789ull;
  parsed = serve::ParseRequestLine(serve::RequestToJsonLine(source));
  EXPECT_EQ(parsed.kind, RequestKind::kSourceSeed);
  EXPECT_EQ(parsed.source, valid::DesignSource::kTorus);
  EXPECT_EQ(parsed.seed, 1234567890123456789ull);
}

TEST(ProtocolTest, RejectsAmbiguousEmptyAndUnknown) {
  EXPECT_THROW((void)serve::ParseRequestLine("{}"), InvalidModelError);
  EXPECT_THROW((void)serve::ParseRequestLine(
                   R"({"design":"noc x","source":"mesh","seed":1})"),
               InvalidModelError);
  EXPECT_THROW((void)serve::ParseRequestLine(R"({"source":"nope","seed":1})"),
               InvalidModelError);
  EXPECT_THROW(
      (void)serve::ParseRequestLine(
          R"({"source":"mesh","seed":1,"options":{"direction":"sideways"}})"),
      InvalidModelError);
  EXPECT_THROW((void)serve::ParseRequestLine("not json"), InvalidModelError);
}

TEST(ProtocolTest, ResponseLineEmbedsTheCertificate) {
  CertificationService service;
  CertRequest request = TextRequest("r", UnidirectionalRing(5, 2));
  request.return_design = true;
  const CertResponse response = service.Serve(request);
  ASSERT_EQ(response.status, ServeStatus::kOk);

  const JsonValue line =
      JsonValue::Parse(serve::ResponseToJsonLine(response));
  EXPECT_EQ(line.At("id").AsString(), "r");
  EXPECT_EQ(line.At("status").AsString(), "ok");
  EXPECT_EQ(line.At("cache").AsString(), "computed");
  EXPECT_EQ(line.At("key").AsUint(), response.key);
  EXPECT_TRUE(line.At("deadlock_free").AsBool());
  EXPECT_EQ(line.At("vcs_added").AsUint(), response.vcs_added);
  // The certificate is a real nested object, parseable on its own.
  EXPECT_EQ(line.At("certificate").kind(), JsonValue::Kind::kObject);
  const DeadlockCertificate certificate = CertificateFromJson(
      response.certificate_json);
  EXPECT_TRUE(certificate.deadlock_free);
  // The embedded treated design parses.
  std::istringstream in(line.At("design").AsString());
  (void)ReadDesign(in);
}

TEST(ProtocolTest, StatsRequestRoundTripsThroughTheCodec) {
  serve::StatsRequest request;
  request.id = "s1";
  const std::string line = serve::StatsRequestToJsonLine(request);
  const serve::ServeMessage message = serve::ParseMessageLine(line);
  EXPECT_TRUE(message.is_stats);
  EXPECT_FALSE(message.is_session);
  EXPECT_EQ(message.stats.id, "s1");
  EXPECT_EQ(message.stats.protocol_version, serve::kProtocolV2);
  // v1 must not grow a stats type silently.
  EXPECT_THROW((void)serve::ParseMessageLine(R"({"type":"stats"})"),
               InvalidModelError);
}

TEST(ProtocolTest, StatsResponseReportsEveryTierThroughTheRealDispatcher) {
  CertificationService service;
  serve::SessionService sessions(service);
  serve::ServeDispatcher dispatcher(service, sessions);
  // Work the service so the counters are nonzero: one computation, one
  // warm hit.
  const std::string certify =
      serve::RequestToJsonLine(TextRequest("r1", UnidirectionalRing(5, 2)));
  (void)dispatcher.HandleLine(certify);
  (void)dispatcher.HandleLine(certify);

  const std::string response = dispatcher.HandleLine(
      R"({"protocol_version":2,"type":"stats","id":"s1"})");
  const JsonValue json = JsonValue::Parse(response);
  EXPECT_EQ(json.At("type").AsString(), "stats");
  EXPECT_EQ(json.At("id").AsString(), "s1");
  EXPECT_EQ(json.At("status").AsString(), "ok");

  // The JSON must agree with the in-process stats structs exactly.
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(json.At("requests").AsUint(), stats.requests);
  EXPECT_EQ(json.At("hits").AsUint(), stats.hits);
  EXPECT_EQ(json.At("computations").AsUint(), stats.computations);
  EXPECT_EQ(json.At("cache").At("entries").AsUint(), stats.cache.entries);
  EXPECT_EQ(json.At("cache").At("insertions").AsUint(),
            stats.cache.insertions);
  EXPECT_EQ(json.At("front").At("hits").AsUint(), stats.front.hits);
  // Memory-only service: the disk tier reports, as all-zero.
  EXPECT_EQ(json.At("disk").At("entries").AsUint(), 0u);
  EXPECT_EQ(json.At("sessions").At("opened").AsUint(), 0u);
  EXPECT_EQ(json.At("admission_classes").kind(), JsonValue::Kind::kArray);

  // The operator text renders from this same JSON (drift-proof by
  // construction) and carries the load-bearing numbers.
  const std::string text = serve::StatsTextFromJson(response, "serve: ");
  EXPECT_NE(text.find(std::to_string(stats.requests) + " requests"),
            std::string::npos);
  EXPECT_NE(text.find(std::to_string(stats.hits) + " hits"),
            std::string::npos);
  EXPECT_NE(text.find("serve: sessions:"), std::string::npos);
  // A certify response is not a stats line.
  EXPECT_THROW((void)serve::StatsTextFromJson(certify, ""),
               serve::ProtocolError);
}

}  // namespace
}  // namespace nocdr
