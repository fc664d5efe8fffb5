// Sharded in-memory LRU tier of the certification cache.
//
// The serving layer's core bet (and the kv-cache literature's): real
// design-loop traffic is repeat-heavy — the same design is re-certified
// after every unrelated edit, the same generator spec is swept by many
// clients — so memoizing (canonical design + removal options) ->
// (certificate, VC-insertion result) turns the common request into a
// hash lookup. Entries are immutable once inserted: the computation is
// a deterministic function of the key (RemoveDeadlocks and
// CertifyDeadlockFreedom are seed-free), so a cached response is
// bit-identical to a recomputed one, which tests/test_serve.cpp pins.
//
// ShardedLruCache is the bounded in-memory cache tier (the calls every
// tier offers are listed in serve/cache_tier.h); both memory levels of
// the service are instantiations of it:
//
//   * the *certificate cache* — the memory tier of TieredCertCache
//     (serve/disk_cache.h), content-addressed by
//     CanonicalDesignDigest: the store hit by any request naming the
//     same certification problem in any representation;
//   * the *request fingerprint memo* in front of it (serve/service),
//     keyed by the raw request bytes, which lets an exact repeat skip
//     design materialization and canonicalization entirely — that skip,
//     not the memoized removal run alone, is what makes a cache hit
//     orders of magnitude cheaper than a recompute.
//
// Concurrency: the key space is split across shards by digest
// (util::ShardRouter), each shard owning one mutex, one keyed slot map
// and one intrusive LRU list — lookups for different keys rarely
// contend. Capacity is bounded both by entry count and by payload
// bytes; eviction is strict LRU per shard, oldest first.
//
// The 64-bit digest is not trusted alone: every entry stores the full
// key text and lookups compare it (util::KeyedSlotMap owns that
// protocol, shared with the disk tier's index), so a digest collision
// degrades to a miss (or an entry replacement), never to serving the
// wrong value.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache_tier.h"
#include "util/keyed_lookup.h"

namespace nocdr::serve {

/// Bounded sharded LRU map from (digest, key text) to \p Value, which
/// must provide `std::size_t PayloadBytes() const` for the byte bound.
template <typename Value>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(CacheConfig config = {})
      : router_(config.shards), shards_(router_.Count()) {
    max_entries_per_shard_ = config.max_entries / shards_.size();
    if (max_entries_per_shard_ == 0) {
      max_entries_per_shard_ = 1;
    }
    max_bytes_per_shard_ = config.max_bytes / shards_.size();
    if (max_bytes_per_shard_ == 0) {
      max_bytes_per_shard_ = 1;
    }
  }

  /// Looks up \p digest, verifying \p key_text against the stored key.
  /// Counts a hit or a miss and refreshes the entry's LRU position.
  /// Returns a reference to the immutable entry (null = miss): values
  /// are shared, not copied, so a hit moves a refcount under the shard
  /// mutex instead of duplicating multi-KB certificate strings there.
  std::shared_ptr<const Value> Lookup(std::uint64_t digest,
                                      const std::string& key_text) {
    return LookupImpl(digest, key_text, /*count_miss=*/true);
  }

  /// Lookup variant for the coalescer's under-lock re-probe: a request
  /// that already counted its miss on the fast path must not count a
  /// second one, but a hit here (the racing leader completed in
  /// between) is a real served-from-cache outcome. Counts hits only.
  std::shared_ptr<const Value> Revalidate(std::uint64_t digest,
                                          const std::string& key_text) {
    return LookupImpl(digest, key_text, /*count_miss=*/false);
  }

  /// Inserts (or replaces) the entry for (\p digest, \p key_text), then
  /// evicts LRU-last entries until the shard is back under both bounds.
  void Insert(std::uint64_t digest, std::string key_text, Value value) {
    Shard& shard = ShardFor(digest);
    const std::size_t bytes =
        value.PayloadBytes() + key_text.size() + kEntryOverheadBytes;
    auto shared = std::make_shared<const Value>(std::move(value));
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (bytes > max_bytes_per_shard_) {
      ++shard.oversize_rejections;
      return;
    }
    shard.lru.push_front(
        Entry{digest, std::move(key_text), std::move(shared), bytes});
    // Same digest resident: replace (identical key text means a racing
    // duplicate publish; different text is a digest collision and the
    // newcomer wins — either way the old payload goes).
    if (const auto displaced = shard.index.Put(digest, shard.lru.begin())) {
      shard.bytes -= (*displaced)->bytes;
      shard.lru.erase(*displaced);
    }
    shard.bytes += bytes;
    ++shard.insertions;
    while (shard.lru.size() > max_entries_per_shard_ ||
           shard.bytes > max_bytes_per_shard_) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.Erase(victim.digest);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  /// Counters summed over all shards plus current occupancy.
  [[nodiscard]] CacheStats Stats() const {
    CacheStats stats;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      stats.hits += shard.hits;
      stats.misses += shard.misses;
      stats.insertions += shard.insertions;
      stats.evictions += shard.evictions;
      stats.oversize_rejections += shard.oversize_rejections;
      stats.entries += shard.lru.size();
      stats.bytes += shard.bytes;
    }
    return stats;
  }

  /// Drops every entry; the lifetime counters stay (evictions are not
  /// incremented — a Clear is an operator action, not capacity
  /// pressure).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.lru.clear();
      shard.index.Clear();
      shard.bytes = 0;
    }
  }

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::string key_text;
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
  };

  using EntryIter = typename std::list<Entry>::iterator;

  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    /// digest -> entry, with the shared collision protocol: a digest
    /// collision with a different key text replaces the resident entry
    /// on insert and misses on lookup.
    util::KeyedSlotMap<EntryIter> index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t oversize_rejections = 0;
  };

  /// Fixed per-entry overhead charged on top of the payload: list node,
  /// index slot and key text live outside Value.
  static constexpr std::size_t kEntryOverheadBytes = 128;

  Shard& ShardFor(std::uint64_t digest) {
    return shards_[router_.IndexFor(digest)];
  }

  std::shared_ptr<const Value> LookupImpl(std::uint64_t digest,
                                          const std::string& key_text,
                                          bool count_miss) {
    Shard& shard = ShardFor(digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    EntryIter* slot = shard.index.Find(
        digest, key_text,
        [](const EntryIter& entry) { return &entry->key_text; });
    if (slot == nullptr) {
      if (count_miss) {
        ++shard.misses;
      }
      return nullptr;
    }
    ++shard.hits;
    // Refresh recency: splice the entry to the front of the LRU list
    // (iterators stay valid, so the index slot needs no update).
    shard.lru.splice(shard.lru.begin(), shard.lru, *slot);
    return (*slot)->value;
  }

  util::ShardRouter router_;
  std::vector<Shard> shards_;
  std::size_t max_entries_per_shard_ = 0;
  std::size_t max_bytes_per_shard_ = 0;
};

/// The memoized outcome of one certification computation: everything a
/// response needs, pre-serialized. All fields are deterministic
/// functions of the cache key.
struct CachedCertification {
  /// CertificateToJson of the (treated) canonical design's certificate.
  std::string certificate_json;
  /// noc/io text of the design the certificate describes (post-
  /// treatment; equals the canonical input text when treat was false or
  /// no work was needed). Lets a hit serve the repaired design without
  /// recomputing it.
  std::string treated_design_text;
  bool deadlock_free = false;
  bool initially_deadlock_free = false;
  std::size_t iterations = 0;
  std::size_t vcs_added = 0;
  std::size_t flows_rerouted = 0;
  std::size_t channels_before = 0;
  std::size_t channels_after = 0;

  /// Payload bytes this entry holds (for the byte capacity bound).
  [[nodiscard]] std::size_t PayloadBytes() const {
    return certificate_json.size() + treated_design_text.size();
  }

  friend bool operator==(const CachedCertification&,
                         const CachedCertification&) = default;
};

/// The in-memory certificate store, content-addressed by
/// CanonicalDesignDigest (util/canonical) + removal options. The
/// memory tier of TieredCertCache (serve/disk_cache.h).
using ShardedCertCache = ShardedLruCache<CachedCertification>;

}  // namespace nocdr::serve
