// The sizing and the stats shape shared by the certification service's
// cache tiers: ShardedLruCache (serve/cert_cache.h) in memory, DiskCache
// on disk, and TieredCertCache (serve/disk_cache.h), which composes the
// two concrete tiers. Every tier offers the same calls:
//
//   * Lookup(digest, key_text) — counted probe. The stored entry
//     matches only if its *full key text* equals the query's; a 64-bit
//     digest collision degrades to a miss, never to the wrong value
//     (util/keyed_lookup.h owns that protocol).
//   * Revalidate(digest, key_text) — the coalescer's under-lock
//     re-probe: hits count, misses do not (the request already counted
//     its miss on the fast path).
//   * Insert(digest, key_text, value) — publish or replace; the tier
//     may decline (capacity, read-only disk mount) but must never
//     corrupt what it already serves. The memory tiers return the
//     shared value they built, so a publisher can hold it.
//   * Stats() — monotonic counters plus an occupancy snapshot.
//   * Clear() — drop every entry (counters stay; they are lifetime
//     totals).
//
// Entries are immutable once inserted and shared by reference
// (shared_ptr<const Value>), so a hit moves a refcount instead of
// copying multi-KB certificate strings under a shard mutex.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nocdr::serve {

struct CacheConfig {
  /// Shard count; rounded up to a power of two, at least 1.
  std::size_t shards = 16;
  /// Whole-cache entry bound (split evenly across shards, at least one
  /// entry per shard).
  std::size_t max_entries = 4096;
  /// Whole-cache payload-byte bound (split evenly across shards). An
  /// entry bigger than its shard's byte budget is never cached.
  std::size_t max_bytes = 64ull << 20;
};

/// Monotonic counters plus a point-in-time occupancy snapshot. Hit and
/// miss totals depend on request interleaving (a request racing a
/// leader's insert is a coalesced join, not a hit); occupancy and
/// eviction totals are deterministic for single-threaded request
/// streams, which the bench's gated rows rely on.
///
/// One stats shape serves every tier; counters a tier cannot produce
/// stay zero (a bare memory tier never skips a corrupt record, a disk
/// tier never promotes).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Entries rejected outright because they exceed a shard's byte
  /// budget (memory) or the store's byte bound (disk) on their own.
  std::uint64_t oversize_rejections = 0;
  /// Tier-crossing traffic of a composite tier: disk hits copied up
  /// into memory, and inserts written through down to disk.
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  /// Torn or bit-flipped disk records skipped (at open scan or at
  /// serve time) — counted, never served.
  std::uint64_t corrupt_skipped = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

}  // namespace nocdr::serve
