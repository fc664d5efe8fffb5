// Persistent disk tier of the certification cache, and the tiered
// composite the service consumes.
//
// The in-memory certificate cache dies with the process, so every
// restart of nocdr_serve — and every additional worker process on the
// same machine — pays the full cold-recompute cost the warm-hit
// speedup exists to avoid. DiskCache makes cache capacity and warmth
// survive the process boundary: a content-addressed store of
// certification results in append-only, checksummed segment files
// under one directory, with an in-memory digest index rebuilt by
// scanning the segments on open.
//
// On-disk format (all integers little-endian):
//
//   segment file  cache-<id>.seg
//     [8-byte segment header: magic "NDSG" u32, format version u32]
//     [record] [record] ...
//
//   record
//     [48-byte header: magic "NDCR" u32, key_len u32, digest u64,
//      cert_len u32, design_len u32, deadlock_free u8,
//      initially_deadlock_free u8, pad u16, iterations u32,
//      vcs_added u32, flows_rerouted u32, channels_before u32,
//      channels_after u32]
//     [key text] [certificate json] [treated design text]
//     [crc32 u32 over header + payloads]
//
// Trust model: nothing read back is trusted until proven. Every record
// carries a CRC32 over header and payload; the open scan skips (and
// counts) any record that fails it — a torn tail from a crashed
// appender, a bit-flipped payload — resyncing by the declared record
// length when the frame is plausible and abandoning the segment when
// it is not. Lookups re-verify the CRC *and* compare the full key text
// at serve time (the index is a hint, not an authority), so a damaged
// store or a 64-bit digest collision degrades to a miss and a
// recompute, never to serving wrong bytes. Entries are never updated
// in place; a re-publish appends a newer record and the index points
// at the newest, so torn writes cannot damage previously-served data.
//
// Sharing model: multi-reader / single-appender. The appender owns a
// LOCK file (ASCII pid, created O_EXCL); a second process mounting the
// same directory finds the lock held by a live pid and falls back to
// read-only — lookups serve, disk inserts are skipped. A lock whose
// pid is dead (crashed appender) is stale and is silently taken over.
// This lets a fleet of worker processes share one warm directory: one
// writes, the rest read through.
//
// Capacity: the store is bounded by max_bytes; when appends exceed it,
// whole retired (non-active) segments are deleted oldest-first and
// their index entries dropped (counted as evictions). Compact()
// rewrites only the live newest records into fresh segments, dropping
// superseded and corrupt ones — run at open via --cache-compact.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/cache_tier.h"
#include "serve/cert_cache.h"
#include "util/keyed_lookup.h"

namespace nocdr::serve {

struct DiskCacheConfig {
  /// Directory holding the segment files and the LOCK file; created if
  /// absent. The content-addressed keys make the store position- and
  /// process-independent: any service mounting this directory serves
  /// the same entries.
  std::string directory;
  /// Whole-store byte bound (sum of segment file sizes). Exceeding it
  /// retires whole segments oldest-first.
  std::size_t max_bytes = 1ull << 30;
  /// Appender segment rotation threshold: a segment that grows past
  /// this is closed and a new one started. Smaller segments make
  /// retirement finer-grained.
  std::size_t segment_bytes = 8ull << 20;
  /// Index shard count (rounded up to a power of two). Shards the
  /// digest index exactly like the memory tier shards its map.
  std::size_t index_shards = 16;
};

/// The persistent tier. Thread-safe; offers the memory tier's calls
/// (serve/cache_tier.h), which TieredCertCache composes.
class DiskCache {
 public:
  /// Opens (creating if needed) the store at config.directory, scans
  /// every segment to rebuild the digest index (newest record per key
  /// wins; damaged records are skipped and counted), and takes the
  /// appender lock — falling back to read-only if another live process
  /// holds it. Throws std::runtime_error only if the directory cannot
  /// be created or listed at all.
  explicit DiskCache(DiskCacheConfig config);
  ~DiskCache();

  std::shared_ptr<const CachedCertification> Lookup(
      std::uint64_t digest, const std::string& key_text);
  std::shared_ptr<const CachedCertification> Revalidate(
      std::uint64_t digest, const std::string& key_text);

  /// Appends a record and points the index at it. No-op (beyond the
  /// oversize counter) in read-only mode or when the record alone
  /// exceeds max_bytes.
  void Insert(std::uint64_t digest, std::string key_text,
              CachedCertification value);

  [[nodiscard]] CacheStats Stats() const;

  /// Deletes every segment and drops the index (writable mode only;
  /// read-only Clear drops just this process's index). Lifetime
  /// counters stay.
  void Clear();

  /// Rewrites live records into fresh segments and deletes the old
  /// ones, dropping superseded and damaged records. Returns bytes
  /// reclaimed. No-op in read-only mode.
  std::size_t Compact();

  /// True when another live process owns the appender lock: lookups
  /// serve, inserts are skipped.
  [[nodiscard]] bool read_only() const { return read_only_; }

  [[nodiscard]] const std::string& directory() const {
    return config_.directory;
  }

  /// Segment files currently on disk (tests and the compaction bench).
  [[nodiscard]] std::size_t SegmentCount() const;

 private:
  /// Where a live record lives: segment + byte offset + framed length.
  struct RecordLoc {
    std::uint64_t segment_id = 0;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;  // header + payloads + crc
  };

  struct IndexShard {
    mutable std::mutex mutex;
    util::KeyedSlotMap<RecordLoc> slots;
  };

  struct SegmentInfo {
    std::uint64_t bytes = 0;
  };

  /// A record decoded and CRC-verified from disk.
  struct DecodedRecord {
    std::uint64_t digest = 0;
    std::string key_text;
    CachedCertification value;
  };

  std::string SegmentPath(std::uint64_t segment_id) const;
  /// Scans one segment, feeding valid records to the index. Returns
  /// the segment's byte size on disk.
  std::uint64_t ScanSegment(std::uint64_t segment_id);
  /// Reads and verifies the record at \p loc; nullopt (and a
  /// corrupt_skipped count) when the bytes fail the checks.
  std::optional<DecodedRecord> ReadRecord(const RecordLoc& loc) const;
  /// Indexes \p loc under \p digest, adjusting live-byte accounting.
  /// Caller holds the shard mutex.
  void IndexPut(IndexShard& shard, std::uint64_t digest, RecordLoc loc);
  std::shared_ptr<const CachedCertification> LookupImpl(
      std::uint64_t digest, const std::string& key_text, bool count_miss);
  /// Takes or observes the LOCK file; sets read_only_.
  void AcquireLock();
  /// Opens a fresh active segment for appending. Caller holds
  /// append_mutex_. Returns false (leaving the store effectively
  /// insert-dead until the next open) on I/O failure.
  bool OpenActiveSegment();
  /// Appends one encoded record to the active segment (rotating as
  /// needed) and returns its location; nullopt on I/O failure, after
  /// which the half-written tail is abandoned for the next open scan
  /// to skip. Caller holds append_mutex_.
  std::optional<RecordLoc> AppendLocked(const std::string& record);
  /// Deletes oldest retired segments until the store fits max_bytes.
  /// Caller holds append_mutex_.
  void RetireSegmentsLocked();
  /// Drops every index entry pointing into \p segment_id, counting
  /// \p count_as_evictions, and forgets the segment.
  void DropSegment(std::uint64_t segment_id, bool count_as_evictions);

  DiskCacheConfig config_;
  util::ShardRouter router_;
  std::vector<IndexShard> index_;

  /// Guards the appender state: active segment stream, segment table.
  mutable std::mutex append_mutex_;
  std::map<std::uint64_t, SegmentInfo> segments_;  // id -> info, ordered
  std::FILE* active_ = nullptr;
  std::uint64_t active_id_ = 0;
  std::uint64_t active_bytes_ = 0;

  bool read_only_ = false;
  int lock_fd_ = -1;

  mutable std::mutex stats_mutex_;
  CacheStats stats_;  // entries/bytes maintained live, counters monotonic
};

/// The two-level certificate cache CertificationService consumes:
/// memory fronts disk. A memory hit never touches disk; a disk hit is
/// *promoted* (copied up into memory, counted) so its repeats are
/// memory-speed; an insert is *demoted* (written through to disk,
/// counted) so the entry survives the process. With no disk tier
/// configured this is exactly the old bare memory cache — same
/// counters, same behavior, which the serve bench baseline pins.
class TieredCertCache {
 public:
  /// Memory-only (no persistence).
  explicit TieredCertCache(CacheConfig memory_config);
  /// Memory fronting a disk store. \p disk may be null (memory-only).
  TieredCertCache(CacheConfig memory_config, std::unique_ptr<DiskCache> disk);

  std::shared_ptr<const CachedCertification> Lookup(
      std::uint64_t digest, const std::string& key_text);
  std::shared_ptr<const CachedCertification> Revalidate(
      std::uint64_t digest, const std::string& key_text);
  void Insert(std::uint64_t digest, std::string key_text,
              CachedCertification value);

  /// Memory-tier stats plus the composite's promotion/demotion
  /// counters. Deliberately *not* a merge with disk counters: the
  /// memory tier's hit/miss/eviction numbers keep their exact bare-
  /// cache meaning (the serve bench gates them), and the disk tier is
  /// reported separately via DiskStats().
  [[nodiscard]] CacheStats Stats() const;

  /// Disk-tier stats; all-zero when no disk tier is configured.
  [[nodiscard]] CacheStats DiskStats() const;

  /// Clears both tiers (disk: deletes segments when writable).
  void Clear();

  [[nodiscard]] bool has_disk() const { return disk_ != nullptr; }
  /// Null when memory-only.
  [[nodiscard]] DiskCache* disk() { return disk_.get(); }

 private:
  ShardedCertCache memory_;
  std::unique_ptr<DiskCache> disk_;

  mutable std::mutex tier_mutex_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace nocdr::serve
