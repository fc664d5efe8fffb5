// serve/disk_cache: persistence across reopen, corruption tolerance
// (torn tails, bit flips, stale locks, garbage directories), the
// multi-reader/single-appender lock and the tiered composite.
//
// The invariant every corruption test pins: a damaged store opens
// cleanly, counts what it skips, and never serves wrong bytes — a bad
// record degrades to a miss (and a recompute), exactly like a digest
// collision.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "noc/io.h"
#include "serve/disk_cache.h"
#include "serve/service.h"
#include "test_helpers.h"
#include "util/canonical.h"

namespace nocdr {
namespace {

namespace fs = std::filesystem;

using serve::CacheConfig;
using serve::CachedCertification;
using serve::CacheStats;
using serve::CertRequest;
using serve::ComputeCertification;
using serve::DiskCache;
using serve::DiskCacheConfig;
using serve::TieredCertCache;
using testing::MakePaperExample;

/// A unique empty directory, removed (with contents) on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "nocdr_disk_cache_XXXXXX").string();
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DiskCacheConfig SmallConfig(const std::string& dir) {
  DiskCacheConfig config;
  config.directory = dir;
  config.max_bytes = 1 << 20;
  config.segment_bytes = 1 << 16;
  return config;
}

CachedCertification MakeValue(const std::string& tag,
                              std::size_t padding = 0) {
  CachedCertification value;
  value.certificate_json = "{\"tag\":\"" + tag + "\"}";
  value.treated_design_text = std::string(padding, 'x');
  value.deadlock_free = true;
  value.iterations = 2;
  value.vcs_added = 3;
  value.channels_before = 10;
  value.channels_after = 13;
  return value;
}

/// Path of the single segment file the store is expected to hold.
std::string OnlySegment(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cache-", 0) == 0) {
      EXPECT_TRUE(found.empty()) << "more than one segment";
      found = entry.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

TEST(DiskCacheTest, WarmthSurvivesReopenWithFullFidelity) {
  TempDir dir;
  {
    DiskCache cache(SmallConfig(dir.path()));
    EXPECT_FALSE(cache.read_only());
    cache.Insert(1, "key-one", MakeValue("one", 100));
    cache.Insert(2, "key-two", MakeValue("two"));
    EXPECT_FALSE(cache.Lookup(3, "absent"));
  }  // destroy: the process boundary
  DiskCache reopened(SmallConfig(dir.path()));
  const auto hit = reopened.Lookup(1, "key-one");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"one\"}");
  EXPECT_EQ(hit->treated_design_text, std::string(100, 'x'));
  EXPECT_EQ(hit->iterations, 2u);
  EXPECT_EQ(hit->vcs_added, 3u);
  EXPECT_EQ(hit->channels_before, 10u);
  EXPECT_EQ(hit->channels_after, 13u);
  EXPECT_TRUE(hit->deadlock_free);
  ASSERT_TRUE(reopened.Lookup(2, "key-two") != nullptr);
  const CacheStats stats = reopened.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
}

TEST(DiskCacheTest, DigestCollisionDegradesToMissNeverWrongValue) {
  TempDir dir;
  DiskCache cache(SmallConfig(dir.path()));
  cache.Insert(42, "key_a", MakeValue("a"));
  EXPECT_FALSE(cache.Lookup(42, "key_b"));
  cache.Insert(42, "key_b", MakeValue("b"));
  EXPECT_FALSE(cache.Lookup(42, "key_a"));
  const auto hit = cache.Lookup(42, "key_b");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"b\"}");
}

TEST(DiskCacheTest, TruncatedFinalRecordIsSkippedAndCounted) {
  TempDir dir;
  {
    DiskCache cache(SmallConfig(dir.path()));
    cache.Insert(1, "intact", MakeValue("good", 50));
    cache.Insert(2, "torn", MakeValue("casualty", 50));
  }
  // A crash mid-append: the final record loses its tail.
  const std::string segment = OnlySegment(dir.path());
  fs::resize_file(segment, fs::file_size(segment) - 10);

  DiskCache reopened(SmallConfig(dir.path()));
  const CacheStats stats = reopened.Stats();
  EXPECT_EQ(stats.corrupt_skipped, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Everything before the tear serves, byte-identical.
  const auto hit = reopened.Lookup(1, "intact");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"good\"}");
  // The torn entry is a miss — recompute territory, never garbage.
  EXPECT_FALSE(reopened.Lookup(2, "torn"));
}

TEST(DiskCacheTest, BitFlippedRecordAtOpenScanIsSkippedAndCounted) {
  TempDir dir;
  std::uint64_t flip_offset = 0;
  {
    DiskCache cache(SmallConfig(dir.path()));
    cache.Insert(1, "flipped", MakeValue("poisoned", 80));
    flip_offset = fs::file_size(OnlySegment(dir.path())) - 30;
    cache.Insert(2, "clean", MakeValue("after", 20));
  }
  {
    // Flip one payload byte inside the *first* record.
    std::fstream f(OnlySegment(dir.path()),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(flip_offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(flip_offset));
    f.write(&byte, 1);
  }
  DiskCache reopened(SmallConfig(dir.path()));
  EXPECT_EQ(reopened.Stats().corrupt_skipped, 1u);
  EXPECT_EQ(reopened.Stats().entries, 1u);
  EXPECT_FALSE(reopened.Lookup(1, "flipped"));
  // The scanner resynced by the declared length: the record *after*
  // the damage still serves.
  const auto hit = reopened.Lookup(2, "clean");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"after\"}");
}

TEST(DiskCacheTest, BitFlipAfterOpenIsCaughtAtServeTime) {
  TempDir dir;
  DiskCache cache(SmallConfig(dir.path()));
  cache.Insert(1, "rotting", MakeValue("fresh", 60));
  // Rot the byte *after* the index was built: the open scan saw a good
  // record, so only the serve-time re-verify can catch this.
  const std::string segment = OnlySegment(dir.path());
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff offset =
        static_cast<std::streamoff>(fs::file_size(segment)) - 20;
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(offset);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(cache.Lookup(1, "rotting"));
  EXPECT_EQ(cache.Stats().corrupt_skipped, 1u);
  EXPECT_EQ(cache.Stats().entries, 0u);  // the unservable hint is dropped
  // The slot is free for a clean re-publish.
  cache.Insert(1, "rotting", MakeValue("recomputed", 60));
  const auto hit = cache.Lookup(1, "rotting");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"recomputed\"}");
}

TEST(DiskCacheTest, DamagedStoreMatchesFreshRecomputeByteForByte) {
  TempDir dir;
  // Real payloads: the paper example through the real computation.
  const NocDesign design = MakePaperExample().design;
  CertRequest request;
  request.treat = true;
  const CanonicalDesign canonical = CanonicalizeDesign(design);
  const CachedCertification fresh =
      ComputeCertification(canonical.design, request);
  {
    DiskCache cache(SmallConfig(dir.path()));
    cache.Insert(7, "paper-example", fresh);
    cache.Insert(8, "sacrifice", MakeValue("doomed", 40));
  }
  // Damage the *other* record's tail; the survivor must re-serve bytes
  // equal to a fresh recompute.
  const std::string segment = OnlySegment(dir.path());
  fs::resize_file(segment, fs::file_size(segment) - 5);

  DiskCache reopened(SmallConfig(dir.path()));
  EXPECT_EQ(reopened.Stats().corrupt_skipped, 1u);
  const auto hit = reopened.Lookup(7, "paper-example");
  ASSERT_TRUE(hit != nullptr);
  const CachedCertification recompute =
      ComputeCertification(canonical.design, request);
  EXPECT_EQ(hit->certificate_json, recompute.certificate_json);
  EXPECT_EQ(hit->treated_design_text, recompute.treated_design_text);
  EXPECT_EQ(hit->deadlock_free, recompute.deadlock_free);
  EXPECT_EQ(hit->vcs_added, recompute.vcs_added);
  EXPECT_FALSE(reopened.Lookup(8, "sacrifice"));
}

TEST(DiskCacheTest, StaleLockFromDeadProcessIsTakenOver) {
  TempDir dir;
  // A real dead pid: fork a child that exits immediately.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  {
    std::ofstream lock(fs::path(dir.path()) / "LOCK");
    lock << child << "\n";
  }
  DiskCache cache(SmallConfig(dir.path()));
  EXPECT_FALSE(cache.read_only());  // the crashed appender's lock fell
  cache.Insert(1, "k", MakeValue("v"));
  EXPECT_TRUE(cache.Lookup(1, "k") != nullptr);
}

TEST(DiskCacheTest, LiveAppenderForcesReadOnlyReaders) {
  TempDir dir;
  DiskCache writer(SmallConfig(dir.path()));
  ASSERT_FALSE(writer.read_only());
  writer.Insert(1, "shared", MakeValue("fleet", 30));

  // A second process mounting the directory (same-process here, but
  // the lock protocol only sees the pid in the LOCK file).
  DiskCache reader(SmallConfig(dir.path()));
  EXPECT_TRUE(reader.read_only());
  const auto hit = reader.Lookup(1, "shared");
  ASSERT_TRUE(hit != nullptr);  // read-through serving works
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"fleet\"}");
  reader.Insert(2, "dropped", MakeValue("never"));
  EXPECT_FALSE(reader.Lookup(2, "dropped"));
  EXPECT_EQ(reader.Stats().insertions, 0u);
}

TEST(DiskCacheTest, EmptyAndGarbageDirectoriesOpenCleanly) {
  TempDir empty;
  {
    DiskCache cache(SmallConfig(empty.path()));
    EXPECT_EQ(cache.Stats().entries, 0u);
    EXPECT_FALSE(cache.Lookup(1, "nothing"));
  }
  TempDir garbage;
  {
    std::ofstream(fs::path(garbage.path()) / "cache-00000001.seg")
        << "this is not a segment file";
    std::ofstream(fs::path(garbage.path()) / "cache-junk.seg")
        << "not even a valid id";
    std::ofstream(fs::path(garbage.path()) / "README.txt") << "hello";
  }
  DiskCache cache(SmallConfig(garbage.path()));
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().corrupt_skipped, 1u);  // the fake segment
  // The store still works as a cache.
  cache.Insert(5, "k", MakeValue("works"));
  EXPECT_TRUE(cache.Lookup(5, "k") != nullptr);
}

TEST(DiskCacheTest, SupersededRecordsDieInCompaction) {
  TempDir dir;
  DiskCacheConfig config = SmallConfig(dir.path());
  DiskCache cache(config);
  for (int round = 0; round < 20; ++round) {
    cache.Insert(1, "rewritten", MakeValue("v" + std::to_string(round), 200));
  }
  cache.Insert(2, "stable", MakeValue("keep", 50));
  const std::size_t reclaimed = cache.Compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(cache.Stats().entries, 2u);
  const auto hit = cache.Lookup(1, "rewritten");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"v19\"}");  // newest wins
  EXPECT_TRUE(cache.Lookup(2, "stable") != nullptr);
}

TEST(DiskCacheTest, ByteBoundRetiresOldestSegmentsWhole) {
  TempDir dir;
  DiskCacheConfig config;
  config.directory = dir.path();
  config.segment_bytes = 4 << 10;
  config.max_bytes = 16 << 10;
  DiskCache cache(config);
  for (int i = 0; i < 40; ++i) {
    cache.Insert(static_cast<std::uint64_t>(i), "key" + std::to_string(i),
                 MakeValue("v" + std::to_string(i), 1024));
  }
  const CacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 40u);
  // The newest entry always survives; retired keys miss cleanly.
  EXPECT_TRUE(cache.Lookup(39, "key39") != nullptr);
  EXPECT_FALSE(cache.Lookup(0, "key0"));
}

TEST(TieredCertCacheTest, PromotesDiskHitsAndWritesThroughInserts) {
  TempDir dir;
  {
    TieredCertCache warm(CacheConfig{4, 64, 1 << 20},
                         std::make_unique<DiskCache>(SmallConfig(dir.path())));
    ASSERT_TRUE(warm.has_disk());
    warm.Insert(1, "k1", MakeValue("persisted", 30));
    EXPECT_EQ(warm.Stats().demotions, 1u);  // write-through happened
    EXPECT_EQ(warm.DiskStats().insertions, 1u);
  }
  // Fresh memory tier over the same directory: the restart shape.
  TieredCertCache restarted(
      CacheConfig{4, 64, 1 << 20},
      std::make_unique<DiskCache>(SmallConfig(dir.path())));
  const auto hit = restarted.Lookup(1, "k1");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->certificate_json, "{\"tag\":\"persisted\"}");
  EXPECT_EQ(restarted.Stats().promotions, 1u);
  // The repeat is memory-speed: no second disk hit.
  ASSERT_TRUE(restarted.Lookup(1, "k1") != nullptr);
  EXPECT_EQ(restarted.DiskStats().hits, 1u);
  EXPECT_EQ(restarted.Stats().hits, 1u);  // memory tier's own hit
}

TEST(TieredCertCacheTest, MemoryOnlyCompositeKeepsBareCacheSemantics) {
  TieredCertCache cache(CacheConfig{4, 64, 1 << 20});
  EXPECT_FALSE(cache.has_disk());
  EXPECT_FALSE(cache.Lookup(1, "k1"));
  cache.Insert(1, "k1", MakeValue("a"));
  ASSERT_TRUE(cache.Lookup(1, "k1") != nullptr);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(cache.DiskStats().entries, 0u);
}

TEST(DiskCacheTest, ServiceWarmRestartServesBitIdenticalPayloads) {
  TempDir dir;
  serve::ServiceConfig config;
  config.threads = 2;
  config.cache_dir = dir.path();
  const NocDesign design = MakePaperExample().design;
  std::vector<CertRequest> requests;
  for (int i = 0; i < 4; ++i) {
    CertRequest request;
    request.id = "r" + std::to_string(i);
    request.kind = serve::RequestKind::kDesignText;
    request.design_text = DesignText(design);
    requests.push_back(request);
  }
  std::uint64_t cold_digest = 0;
  {
    serve::CertificationService service(config);
    cold_digest = ResponseDigest(service.ServeBatch(requests));
    EXPECT_GT(service.Stats().disk.insertions, 0u);
  }
  // Restart: same directory, fresh process state.
  serve::CertificationService service(config);
  const auto responses = service.ServeBatch(requests);
  EXPECT_EQ(ResponseDigest(responses), cold_digest);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.computations, 0u);  // every request warm
  EXPECT_EQ(stats.hits, requests.size());
  EXPECT_GT(stats.disk.hits, 0u);
  EXPECT_GT(stats.cache.promotions, 0u);
}

}  // namespace
}  // namespace nocdr
