#include "serve/disk_cache.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace nocdr::serve {

namespace {

namespace fs = std::filesystem;

// "NDSG" / "NDCR" as little-endian u32s.
constexpr std::uint32_t kSegmentMagic = 0x4753444e;
constexpr std::uint32_t kRecordMagic = 0x5243444e;
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 8;
constexpr std::size_t kRecordHeaderBytes = 48;
constexpr std::size_t kCrcBytes = 4;
/// Any single declared payload length past this is treated as frame
/// damage, not data: no real certificate or design text approaches it,
/// and honoring a flipped high bit would make the scanner leap past
/// gigabytes of perfectly good records.
constexpr std::uint32_t kMaxFieldBytes = 1u << 30;

constexpr char kSegmentPrefix[] = "cache-";
constexpr char kSegmentSuffix[] = ".seg";
constexpr char kLockName[] = "LOCK";

/// CRC-32 (reflected, poly 0xEDB88320) — the zlib/ethernet polynomial,
/// table-driven, dependency-free.
const std::array<std::uint32_t, 256>& CrcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t Crc32(const char* data, std::size_t size) {
  const auto& table = CrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// The fixed-size counters and flags a record header carries.
struct RecordHeader {
  std::uint32_t key_len = 0;
  std::uint64_t digest = 0;
  std::uint32_t cert_len = 0;
  std::uint32_t design_len = 0;
  bool deadlock_free = false;
  bool initially_deadlock_free = false;
  std::uint32_t iterations = 0;
  std::uint32_t vcs_added = 0;
  std::uint32_t flows_rerouted = 0;
  std::uint32_t channels_before = 0;
  std::uint32_t channels_after = 0;
};

/// Decodes the 48-byte header at \p p; false iff the magic is wrong.
bool DecodeHeader(const char* p, RecordHeader& h) {
  if (GetU32(p) != kRecordMagic) {
    return false;
  }
  h.key_len = GetU32(p + 4);
  h.digest = GetU64(p + 8);
  h.cert_len = GetU32(p + 16);
  h.design_len = GetU32(p + 20);
  h.deadlock_free = p[24] != 0;
  h.initially_deadlock_free = p[25] != 0;
  // p[26..27]: pad.
  h.iterations = GetU32(p + 28);
  h.vcs_added = GetU32(p + 32);
  h.flows_rerouted = GetU32(p + 36);
  h.channels_before = GetU32(p + 40);
  h.channels_after = GetU32(p + 44);
  return true;
}

[[nodiscard]] bool PlausibleLengths(const RecordHeader& h) {
  return h.key_len <= kMaxFieldBytes && h.cert_len <= kMaxFieldBytes &&
         h.design_len <= kMaxFieldBytes;
}

[[nodiscard]] std::uint64_t FramedLength(const RecordHeader& h) {
  return kRecordHeaderBytes + static_cast<std::uint64_t>(h.key_len) +
         h.cert_len + h.design_len + kCrcBytes;
}

std::string EncodeRecord(std::uint64_t digest, const std::string& key_text,
                         const CachedCertification& value) {
  std::string out;
  out.reserve(kRecordHeaderBytes + key_text.size() +
              value.certificate_json.size() +
              value.treated_design_text.size() + kCrcBytes);
  PutU32(out, kRecordMagic);
  PutU32(out, static_cast<std::uint32_t>(key_text.size()));
  PutU64(out, digest);
  PutU32(out, static_cast<std::uint32_t>(value.certificate_json.size()));
  PutU32(out, static_cast<std::uint32_t>(value.treated_design_text.size()));
  out.push_back(value.deadlock_free ? 1 : 0);
  out.push_back(value.initially_deadlock_free ? 1 : 0);
  PutU16(out, 0);
  PutU32(out, static_cast<std::uint32_t>(value.iterations));
  PutU32(out, static_cast<std::uint32_t>(value.vcs_added));
  PutU32(out, static_cast<std::uint32_t>(value.flows_rerouted));
  PutU32(out, static_cast<std::uint32_t>(value.channels_before));
  PutU32(out, static_cast<std::uint32_t>(value.channels_after));
  out += key_text;
  out += value.certificate_json;
  out += value.treated_design_text;
  PutU32(out, Crc32(out.data(), out.size()));
  return out;
}

}  // namespace

DiskCache::DiskCache(DiskCacheConfig config)
    : config_(std::move(config)),
      router_(config_.index_shards),
      index_(router_.Count()) {
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  if (ec || !fs::is_directory(config_.directory)) {
    throw std::runtime_error("disk cache: cannot create directory '" +
                             config_.directory + "'");
  }
  AcquireLock();
  // Rebuild the index: scan every segment in id order, newest record
  // per digest winning (a later append supersedes an earlier one).
  std::vector<std::uint64_t> ids;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::size_t kPrefixLen = sizeof(kSegmentPrefix) - 1;
    constexpr std::size_t kSuffixLen = sizeof(kSegmentSuffix) - 1;
    if (name.size() <= kPrefixLen + kSuffixLen ||
        name.rfind(kSegmentPrefix, 0) != 0 ||
        name.compare(name.size() - kSuffixLen, kSuffixLen,
                     kSegmentSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(kPrefixLen, name.size() - kPrefixLen - kSuffixLen);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // foreign file; a garbage directory must open cleanly
    }
    ids.push_back(std::stoull(digits));
  }
  if (ec) {
    throw std::runtime_error("disk cache: cannot list directory '" +
                             config_.directory + "'");
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    segments_[id].bytes = ScanSegment(id);
  }
  if (!read_only_) {
    std::lock_guard<std::mutex> lock(append_mutex_);
    RetireSegmentsLocked();  // config may have shrunk since last run
  }
}

DiskCache::~DiskCache() {
  std::lock_guard<std::mutex> lock(append_mutex_);
  if (active_ != nullptr) {
    std::fclose(active_);
    active_ = nullptr;
  }
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);
    std::error_code ec;
    fs::remove(fs::path(config_.directory) / kLockName, ec);
  }
}

void DiskCache::AcquireLock() {
  const std::string lock_path =
      (fs::path(config_.directory) / kLockName).string();
  // Two attempts: the second handles exactly one stale-lock takeover;
  // losing the recreate race to another starter means a live appender
  // exists, which is the read-only case anyway.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd =
        ::open(lock_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const std::string pid = std::to_string(::getpid()) + "\n";
      if (::write(fd, pid.data(), pid.size()) < 0) {
        // The pid is advisory (staleness detection); keep the lock.
      }
      lock_fd_ = fd;
      read_only_ = false;
      return;
    }
    if (errno != EEXIST) {
      read_only_ = true;  // unwritable directory: serve what's there
      return;
    }
    long pid = 0;
    {
      std::ifstream in(lock_path);
      in >> pid;
    }
    if (pid > 0 && !(::kill(static_cast<pid_t>(pid), 0) == -1 &&
                     errno == ESRCH)) {
      read_only_ = true;  // live appender owns the store
      return;
    }
    // Dead pid or unreadable garbage: a crashed appender's leftover.
    std::error_code ec;
    fs::remove(lock_path, ec);
  }
  read_only_ = true;
}

std::string DiskCache::SegmentPath(std::uint64_t segment_id) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(segment_id), kSegmentSuffix);
  return (fs::path(config_.directory) / name).string();
}

std::uint64_t DiskCache::ScanSegment(std::uint64_t segment_id) {
  std::string data;
  {
    std::ifstream in(SegmentPath(segment_id), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    data = buf.str();
  }
  const std::uint64_t size = data.size();
  const auto count_corrupt = [this] {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.corrupt_skipped;
  };
  if (size < kSegmentHeaderBytes || GetU32(data.data()) != kSegmentMagic ||
      GetU32(data.data() + 4) != kFormatVersion) {
    if (size > 0) {
      count_corrupt();  // torn creation or foreign bytes; serve nothing
    }
    return size;
  }
  std::uint64_t pos = kSegmentHeaderBytes;
  while (pos < size) {
    if (size - pos < kRecordHeaderBytes + kCrcBytes) {
      count_corrupt();  // torn tail: a crash mid-header
      break;
    }
    RecordHeader header;
    if (!DecodeHeader(data.data() + pos, header) ||
        !PlausibleLengths(header)) {
      // The frame itself is untrustworthy, so the declared length is
      // too: abandon the rest of the segment rather than resync into
      // garbage. Everything already indexed stays served.
      count_corrupt();
      break;
    }
    const std::uint64_t framed = FramedLength(header);
    if (pos + framed > size) {
      count_corrupt();  // torn tail: a crash mid-payload
      break;
    }
    const std::uint32_t stored_crc =
        GetU32(data.data() + pos + framed - kCrcBytes);
    if (Crc32(data.data() + pos, framed - kCrcBytes) != stored_crc) {
      // Bit rot inside an intact frame: the declared lengths are
      // covered by the (failed) CRC but resyncing by them is safe —
      // worst case the next magic check abandons the segment.
      count_corrupt();
      pos += framed;
      continue;
    }
    IndexShard& shard = index_[router_.IndexFor(header.digest)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    IndexPut(shard, header.digest,
             RecordLoc{segment_id, pos, static_cast<std::uint32_t>(framed)});
    pos += framed;
  }
  return size;
}

void DiskCache::IndexPut(IndexShard& shard, std::uint64_t digest,
                         RecordLoc loc) {
  const std::uint32_t added = loc.length;
  const auto displaced = shard.slots.Put(digest, loc);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.bytes += added;
  if (displaced.has_value()) {
    stats_.bytes -= displaced->length;
  } else {
    ++stats_.entries;
  }
}

std::optional<DiskCache::DecodedRecord> DiskCache::ReadRecord(
    const RecordLoc& loc) const {
  static obs::Histogram& read_us = obs::Metrics().GetHistogram("disk.read_us");
  obs::ScopedHistogramTimer timer(read_us);
  std::ifstream in(SegmentPath(loc.segment_id), std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::string data(loc.length, '\0');
  in.seekg(static_cast<std::streamoff>(loc.offset));
  in.read(data.data(), static_cast<std::streamsize>(loc.length));
  if (in.gcount() != static_cast<std::streamsize>(loc.length)) {
    return std::nullopt;
  }
  // Re-verify everything at serve time: the index is a hint, the
  // record bytes are the authority.
  RecordHeader header;
  if (loc.length < kRecordHeaderBytes + kCrcBytes ||
      !DecodeHeader(data.data(), header) || !PlausibleLengths(header) ||
      FramedLength(header) != loc.length) {
    return std::nullopt;
  }
  const std::uint32_t stored_crc =
      GetU32(data.data() + loc.length - kCrcBytes);
  if (Crc32(data.data(), loc.length - kCrcBytes) != stored_crc) {
    return std::nullopt;
  }
  DecodedRecord decoded;
  decoded.digest = header.digest;
  const char* p = data.data() + kRecordHeaderBytes;
  decoded.key_text.assign(p, header.key_len);
  p += header.key_len;
  decoded.value.certificate_json.assign(p, header.cert_len);
  p += header.cert_len;
  decoded.value.treated_design_text.assign(p, header.design_len);
  decoded.value.deadlock_free = header.deadlock_free;
  decoded.value.initially_deadlock_free = header.initially_deadlock_free;
  decoded.value.iterations = header.iterations;
  decoded.value.vcs_added = header.vcs_added;
  decoded.value.flows_rerouted = header.flows_rerouted;
  decoded.value.channels_before = header.channels_before;
  decoded.value.channels_after = header.channels_after;
  return decoded;
}

std::shared_ptr<const CachedCertification> DiskCache::Lookup(
    std::uint64_t digest, const std::string& key_text) {
  return LookupImpl(digest, key_text, /*count_miss=*/true);
}

std::shared_ptr<const CachedCertification> DiskCache::Revalidate(
    std::uint64_t digest, const std::string& key_text) {
  return LookupImpl(digest, key_text, /*count_miss=*/false);
}

std::shared_ptr<const CachedCertification> DiskCache::LookupImpl(
    std::uint64_t digest, const std::string& key_text, bool count_miss) {
  IndexShard& shard = index_[router_.IndexFor(digest)];
  // The shard mutex is held across the record read: segment retirement
  // takes every shard mutex while dropping a segment's entries, so a
  // file is never unlinked under a reader following an index hint.
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::optional<DecodedRecord> decoded;
  bool damaged = false;
  std::uint32_t damaged_bytes = 0;
  RecordLoc* slot = shard.slots.Find(
      digest, key_text, [&](const RecordLoc& loc) -> const std::string* {
        decoded = ReadRecord(loc);
        if (!decoded.has_value() || decoded->digest != digest) {
          damaged = true;
          damaged_bytes = loc.length;
          return nullptr;
        }
        return &decoded->key_text;
      });
  if (slot == nullptr) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    if (damaged) {
      // The bytes under the hint are unservable; drop the hint so the
      // next request goes straight to recompute (whose insert will
      // re-publish a good record).
      shard.slots.Erase(digest);
      ++stats_.corrupt_skipped;
      --stats_.entries;
      stats_.bytes -= damaged_bytes;
    }
    if (count_miss) {
      ++stats_.misses;
    }
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.hits;
  }
  return std::make_shared<const CachedCertification>(
      std::move(decoded->value));
}

bool DiskCache::OpenActiveSegment() {
  const std::uint64_t id =
      segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  std::FILE* f = std::fopen(SegmentPath(id).c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  std::string header;
  PutU32(header, kSegmentMagic);
  PutU32(header, kFormatVersion);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
      std::fflush(f) != 0) {
    std::fclose(f);
    std::error_code ec;
    fs::remove(SegmentPath(id), ec);
    return false;
  }
  active_ = f;
  active_id_ = id;
  active_bytes_ = kSegmentHeaderBytes;
  segments_[id].bytes = kSegmentHeaderBytes;
  return true;
}

std::optional<DiskCache::RecordLoc> DiskCache::AppendLocked(
    const std::string& record) {
  // Lazy open: the appender starts a *fresh* segment on its first
  // insert rather than at construction, so read-mostly restarts don't
  // litter the directory with empty segments; never append to an old
  // segment (its tail may be torn from a crash).
  if (active_ == nullptr && !OpenActiveSegment()) {
    return std::nullopt;
  }
  const std::uint64_t offset = active_bytes_;
  const bool ok =
      std::fwrite(record.data(), 1, record.size(), active_) ==
          record.size() &&
      std::fflush(active_) == 0;
  if (!ok) {
    // A partial tail may now exist; abandon the segment (the next open
    // scan will skip the torn record) and let the next insert start a
    // fresh one.
    std::fclose(active_);
    active_ = nullptr;
    return std::nullopt;
  }
  active_bytes_ += record.size();
  segments_[active_id_].bytes = active_bytes_;
  RecordLoc loc{active_id_, offset, static_cast<std::uint32_t>(record.size())};
  if (active_bytes_ >= config_.segment_bytes) {
    std::fclose(active_);
    active_ = nullptr;  // rotated; next insert opens the successor
  }
  return loc;
}

void DiskCache::Insert(std::uint64_t digest, const std::string& key_text,
                       const CachedCertification& value) {
  if (read_only_) {
    return;  // another live process owns the appender lock
  }
  static obs::Histogram& write_us =
      obs::Metrics().GetHistogram("disk.write_us");
  obs::ScopedHistogramTimer timer(write_us);
  const std::string record = EncodeRecord(digest, key_text, value);
  if (record.size() > config_.max_bytes) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.oversize_rejections;
    return;
  }
  std::lock_guard<std::mutex> lock(append_mutex_);
  const auto loc = AppendLocked(record);
  if (!loc.has_value()) {
    return;  // I/O failure: degrade to not-persisted, never to wrong data
  }
  {
    IndexShard& shard = index_[router_.IndexFor(digest)];
    std::lock_guard<std::mutex> shard_lock(shard.mutex);
    IndexPut(shard, digest, *loc);
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.insertions;
  }
  RetireSegmentsLocked();
}

void DiskCache::RetireSegmentsLocked() {
  std::uint64_t total = 0;
  for (const auto& [id, info] : segments_) {
    total += info.bytes;
  }
  while (total > config_.max_bytes && !segments_.empty()) {
    const std::uint64_t victim = segments_.begin()->first;
    if (active_ != nullptr && victim == active_id_) {
      break;  // never retire the segment being appended to
    }
    total -= segments_.begin()->second.bytes;
    DropSegment(victim, /*count_as_evictions=*/true);
  }
}

void DiskCache::DropSegment(std::uint64_t segment_id,
                            bool count_as_evictions) {
  std::size_t dropped_entries = 0;
  std::uint64_t dropped_bytes = 0;
  for (IndexShard& shard : index_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    dropped_entries += shard.slots.EraseIf(
        [&](std::uint64_t /*digest*/, const RecordLoc& loc) {
          if (loc.segment_id != segment_id) {
            return false;
          }
          dropped_bytes += loc.length;
          return true;
        });
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.entries -= dropped_entries;
    stats_.bytes -= dropped_bytes;
    if (count_as_evictions) {
      stats_.evictions += dropped_entries;
    }
  }
  std::error_code ec;
  fs::remove(SegmentPath(segment_id), ec);
  segments_.erase(segment_id);
}

CacheStats DiskCache::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void DiskCache::Clear() {
  std::lock_guard<std::mutex> lock(append_mutex_);
  if (active_ != nullptr) {
    std::fclose(active_);
    active_ = nullptr;
  }
  if (read_only_) {
    // Files belong to the live appender; drop only this process's
    // index so it stops serving them.
    std::size_t dropped = 0;
    std::uint64_t dropped_bytes = 0;
    for (IndexShard& shard : index_) {
      std::lock_guard<std::mutex> shard_lock(shard.mutex);
      shard.slots.ForEach([&](std::uint64_t, const RecordLoc& loc) {
        ++dropped;
        dropped_bytes += loc.length;
      });
      shard.slots.Clear();
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.entries -= dropped;
    stats_.bytes -= dropped_bytes;
    return;
  }
  std::vector<std::uint64_t> ids;
  for (const auto& [id, info] : segments_) {
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    DropSegment(id, /*count_as_evictions=*/false);
  }
}

std::size_t DiskCache::SegmentCount() const {
  std::lock_guard<std::mutex> lock(append_mutex_);
  return segments_.size();
}

std::size_t DiskCache::Compact() {
  if (read_only_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(append_mutex_);
  if (active_ != nullptr) {
    std::fclose(active_);  // the active segment compacts like any other
    active_ = nullptr;
  }
  std::uint64_t before = 0;
  for (const auto& [id, info] : segments_) {
    before += info.bytes;
  }
  const std::uint64_t old_last =
      segments_.empty() ? 0 : segments_.rbegin()->first;
  // Snapshot the live locations, then rewrite each surviving record
  // into fresh segments. Concurrent lookups stay correct throughout:
  // old files are deleted only after the index points past them, under
  // the shard mutexes (DropSegment).
  std::vector<std::pair<std::uint64_t, RecordLoc>> live;
  for (IndexShard& shard : index_) {
    std::lock_guard<std::mutex> shard_lock(shard.mutex);
    shard.slots.ForEach([&](std::uint64_t digest, const RecordLoc& loc) {
      live.emplace_back(digest, loc);
    });
  }
  for (const auto& [digest, loc] : live) {
    const auto decoded = ReadRecord(loc);
    IndexShard& shard = index_[router_.IndexFor(digest)];
    if (!decoded.has_value() || decoded->digest != digest) {
      std::lock_guard<std::mutex> shard_lock(shard.mutex);
      if (shard.slots.Erase(digest)) {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.corrupt_skipped;
        --stats_.entries;
        stats_.bytes -= loc.length;
      }
      continue;
    }
    const std::string record =
        EncodeRecord(digest, decoded->key_text, decoded->value);
    const auto new_loc = AppendLocked(record);
    if (!new_loc.has_value()) {
      break;  // I/O trouble: keep serving from the old segments
    }
    std::lock_guard<std::mutex> shard_lock(shard.mutex);
    IndexPut(shard, digest, *new_loc);
  }
  for (std::uint64_t id = segments_.empty() ? 1 : segments_.begin()->first;
       id <= old_last;) {
    const auto it = segments_.find(id);
    if (it == segments_.end()) {
      ++id;
      continue;
    }
    DropSegment(id, /*count_as_evictions=*/false);
    ++id;
  }
  std::uint64_t after = 0;
  for (const auto& [id, info] : segments_) {
    after += info.bytes;
  }
  return before > after ? static_cast<std::size_t>(before - after) : 0;
}

TieredCertCache::TieredCertCache(CacheConfig memory_config)
    : memory_(memory_config) {}

TieredCertCache::TieredCertCache(CacheConfig memory_config,
                                 std::unique_ptr<DiskCache> disk)
    : memory_(memory_config), disk_(std::move(disk)) {}

std::shared_ptr<const CachedCertification> TieredCertCache::Lookup(
    std::uint64_t digest, const std::string& key_text) {
  if (auto hit = memory_.Lookup(digest, key_text)) {
    return hit;
  }
  if (disk_ == nullptr) {
    return nullptr;
  }
  auto hit = disk_->Lookup(digest, key_text);
  if (hit != nullptr) {
    // Promote: the repeat traffic this entry is about to see should be
    // memory-speed, not a disk read per request.
    memory_.Insert(digest, key_text, *hit);
    std::lock_guard<std::mutex> lock(tier_mutex_);
    ++promotions_;
  }
  return hit;
}

std::shared_ptr<const CachedCertification> TieredCertCache::Revalidate(
    std::uint64_t digest, const std::string& key_text) {
  if (auto hit = memory_.Revalidate(digest, key_text)) {
    return hit;
  }
  if (disk_ == nullptr) {
    return nullptr;
  }
  auto hit = disk_->Revalidate(digest, key_text);
  if (hit != nullptr) {
    memory_.Insert(digest, key_text, *hit);
    std::lock_guard<std::mutex> lock(tier_mutex_);
    ++promotions_;
  }
  return hit;
}

std::shared_ptr<const CachedCertification> TieredCertCache::Insert(
    std::uint64_t digest, std::string key_text, CachedCertification value) {
  if (disk_ != nullptr && !disk_->read_only()) {
    // Write through (demote) first, then publish to memory: a crash
    // between the two loses only the fast copy, never the durable one.
    disk_->Insert(digest, key_text, value);
    {
      std::lock_guard<std::mutex> lock(tier_mutex_);
      ++demotions_;
    }
  }
  return memory_.Insert(digest, std::move(key_text), std::move(value));
}

CacheStats TieredCertCache::Stats() const {
  CacheStats stats = memory_.Stats();
  std::lock_guard<std::mutex> lock(tier_mutex_);
  stats.promotions = promotions_;
  stats.demotions = demotions_;
  return stats;
}

CacheStats TieredCertCache::DiskStats() const {
  return disk_ != nullptr ? disk_->Stats() : CacheStats{};
}

void TieredCertCache::Clear() {
  memory_.Clear();
  if (disk_ != nullptr) {
    disk_->Clear();
  }
}

}  // namespace nocdr::serve
