// Structured trace spans with deterministic ids and an injectable
// clock — the profiling instrument of the serve/removal stack.
//
// A *trace* is a tree of spans describing one unit of work: one
// protocol request, one session message, or one certification
// computation. Span ids are assigned sequentially in open order within
// their trace (the root is span 0 with parent -1), so the tree
// structure is a pure function of the code path taken — never of
// thread scheduling. Timestamps come from the owning TraceSink's
// clock:
//
//   * kLogical (default): every span event advances a per-trace tick
//     counter. Two runs of the same seeded input produce *byte
//     identical* trace files, at any client thread count — the
//     property tests/test_serve_cli.cpp pins. Durations are event counts, not time; use metrics
//     histograms (obs/metrics.h) or wall mode for real latencies.
//   * kWall: microseconds since the sink's construction. Real
//     profiling numbers; structure still deterministic, bytes not.
//
// How the serve stack keeps logical traces byte-stable (the part worth
// reading before adding spans — see docs/OBSERVABILITY.md for the full
// argument):
//
//   * Each protocol line gets a root trace whose id nocdr_serve derives
//     from the line's *stream index* ("q<index>") — stable across
//     thread counts. Its spans carry only deterministic-payload
//     attributes (id, status, key), never schedule-dependent metadata
//     like cache_outcome.
//   * Each certification *computation* gets its own trace keyed by the
//     canonical cache key ("k<hex>"). The coalescer's exactly-once
//     contract makes the *set* of computation traces (and each one's
//     deterministic span tree) identical for any interleaving, as long
//     as no eviction forces a recompute (true at default cache sizes).
//   * Schedule-dependent timing (hit vs. coalesced, memo fast path,
//     disk promotions) goes into metrics histograms, not spans.
//
// Propagation is by thread-local context: ScopedTrace installs a trace
// as current, ScopedSpan nests under whatever is current (and is a
// no-op when nothing is), so deep layers like deadlock/removal.cpp
// need no signature changes. A certification computation runs on its
// leader's thread under a DetachedScope, so it starts with an empty
// context and opens its own trace there.
//
// The on-disk format is JSON Lines (docs/OBSERVABILITY.md): one header
// line {"trace_schema":1,"clock":...}, then one flat object per span —
// reserved keys trace/span/parent/name/start/end, every other key an
// attribute (string or uint64). The sink buffers finished traces and
// writes them sorted by (trace id, span id), which is what makes the
// bytes independent of completion order. tools/nocdr_trace validates
// and analyzes these files; ParseSpanLine below is the shared schema
// checker it and nocdr_docs_check use.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nocdr::obs {

class Histogram;  // obs/metrics.h

inline constexpr int kTraceSchemaVersion = 1;

enum class TraceClockMode {
  kLogical,  // per-trace tick counter; byte-deterministic
  kWall,     // microseconds since sink construction; real latencies
};

/// Stable names ("logical" / "wall") and their inverse; the header
/// line carries the name. ParseTraceClock throws InvalidModelError on
/// an unknown name.
std::string TraceClockName(TraceClockMode mode);
TraceClockMode ParseTraceClock(const std::string& name);

/// One attribute on a span: string or uint64.
struct SpanAttr {
  std::string key;
  bool is_string = false;
  std::uint64_t num = 0;
  std::string str;
};

struct SpanRecord {
  std::uint64_t span = 0;
  std::int64_t parent = -1;  // -1 = root
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::vector<SpanAttr> attrs;
};

/// Thread-safe collector of finished traces. Construction chooses the
/// clock; Finish() may be called from any thread; WriteTo()/WriteFile()
/// render the header plus every span sorted by (trace id, span id).
class TraceSink {
 public:
  explicit TraceSink(TraceClockMode clock = TraceClockMode::kLogical);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  [[nodiscard]] TraceClockMode clock() const { return clock_; }

  /// Wall microseconds since sink construction (used by traces in
  /// kWall mode; monotonic).
  [[nodiscard]] std::uint64_t WallNowUs() const;

  /// Takes ownership of one finished trace's spans.
  void Finish(const std::string& trace_id, std::vector<SpanRecord> spans);

  [[nodiscard]] std::size_t TraceCount() const;
  [[nodiscard]] std::size_t SpanCount() const;

  /// Renders the whole file; returns the number of span lines written.
  std::size_t WriteTo(std::ostream& out) const;

  /// WriteTo() into \p path; false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  const TraceClockMode clock_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::vector<SpanRecord>>> traces_;
};

/// One in-flight trace. Single-threaded by contract: a trace is built
/// by exactly one thread (the serving thread for a request trace, the
/// computing thread for a computation trace) and handed to the sink
/// once. Span ids are assigned in Open/Emit order.
class Trace {
 public:
  Trace(TraceSink& sink, std::string trace_id);
  ~Trace();  // finishes into the sink if not already finished

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] const std::string& id() const { return id_; }

  /// One clock read. kLogical: returns and advances the per-trace tick
  /// counter (so *every* read is an event and deterministic code reads
  /// it deterministically often); kWall: sink-relative microseconds.
  std::uint64_t Tick();

  std::uint64_t Open(const std::string& name, std::int64_t parent);
  void Close(std::uint64_t span);

  /// A pre-timed span (StageTimer's accumulated stages): id assigned
  /// now, timestamps supplied by the caller.
  std::uint64_t Emit(const std::string& name, std::int64_t parent,
                     std::uint64_t start, std::uint64_t end);

  void Attr(std::uint64_t span, const std::string& key, std::uint64_t value);
  void Attr(std::uint64_t span, const std::string& key, std::string value);

  /// Hands the spans to the sink; idempotent, called by the destructor.
  void Finish();

 private:
  TraceSink& sink_;
  const std::string id_;
  std::uint64_t ticks_ = 0;
  bool finished_ = false;
  std::vector<SpanRecord> spans_;
};

/// The thread-local propagation cell: which trace (and which span in
/// it) encloses the code currently running on this thread. {nullptr,
/// -1} when tracing is off — the hot-path check is one TLS read.
struct TraceContext {
  Trace* trace = nullptr;
  std::int64_t span = -1;
};

/// Opens a trace with one root span and installs it as the thread's
/// current context for its scope. Inactive (all methods no-ops) when
/// \p sink is null or \p trace_id is empty — the tracing-off fast
/// path costs one branch.
class ScopedTrace {
 public:
  ScopedTrace(TraceSink* sink, const std::string& trace_id,
              const std::string& root_name);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  [[nodiscard]] bool active() const { return trace_ != nullptr; }

  /// Attributes on the root span.
  void Attr(const std::string& key, std::uint64_t value);
  void Attr(const std::string& key, std::string value);

 private:
  std::unique_ptr<Trace> trace_;
  std::uint64_t root_ = 0;
  TraceContext saved_;
};

/// Clears the thread's current context for its scope and restores it
/// after: spans opened inside are no-ops unless a ScopedTrace opens a
/// trace of their own. For work a request runs on behalf of others (a
/// coalescing leader's computation, serve/coalescer.h), which must not
/// land in that request's trace.
class DetachedScope {
 public:
  DetachedScope();
  ~DetachedScope();

  DetachedScope(const DetachedScope&) = delete;
  DetachedScope& operator=(const DetachedScope&) = delete;

 private:
  TraceContext saved_;
};

/// Opens a child span under the thread's current context (and becomes
/// the current context for its scope). No-op when no trace is current.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] bool active() const { return trace_ != nullptr; }

  void Attr(const std::string& key, std::uint64_t value);
  void Attr(const std::string& key, std::string value);

 private:
  Trace* trace_ = nullptr;
  std::uint64_t span_ = 0;
  TraceContext saved_;
};

/// The stages of one kind of StageTimer and their metrics histograms
/// "<prefix>.<stage>_us" (obs/metrics.h). A stage's histogram is
/// registered the first time a timer records the stage and kept from
/// then on, so timers after that touch only atomics. A set must outlive
/// its timers; keep one per kind for the process lifetime (a
/// function-local static). Names must outlive the set (string
/// literals).
class StageSet {
 public:
  static constexpr std::size_t kMaxStages = 8;

  StageSet(const char* metric_prefix,
           std::initializer_list<const char*> stage_names);

  StageSet(const StageSet&) = delete;
  StageSet& operator=(const StageSet&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const char* name(std::size_t stage) const {
    return names_[stage];
  }

  /// The histogram of \p stage, registered on first use. Thread-safe.
  Histogram& HistogramOf(std::size_t stage) const;

 private:
  const char* metric_prefix_;
  std::size_t size_ = 0;
  std::array<const char*, kMaxStages> names_{};
  mutable std::array<std::atomic<Histogram*>, kMaxStages> histograms_{};
};

/// Aggregating stage timers for loops: the removal loop enters its
/// cycle-search / scoring / application / invalidation stages hundreds
/// of times per run, which must not emit hundreds of spans. A
/// StageTimer accumulates per-stage busy time and call counts across
/// the loop and emits *one* span per touched stage at destruction
/// (start = first entry, end = last exit, attrs busy/calls plus any
/// named counters), nested under whatever span was current at
/// construction. Independently of tracing it records each touched
/// stage's busy time into the stage's histogram (StageSet) — so
/// stage-level aggregates exist even when no trace is attached.
class StageTimer {
 public:
  explicit StageTimer(const StageSet& stages);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Times one section of \p stage (RAII).
  class Section {
   public:
    Section(StageTimer& timer, std::size_t stage);
    ~Section();

    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    StageTimer& timer_;
    const std::size_t stage_;
    std::chrono::steady_clock::time_point wall_start_;
    std::uint64_t tick_start_ = 0;
  };

  /// Adds a named counter attribute to \p stage's span (e.g. the
  /// number of BFS runs a cycle search cost); a no-op when no trace
  /// was current at construction. Deterministic values only — they
  /// land in byte-compared logical traces.
  void Count(std::size_t stage, const char* key, std::uint64_t delta);

 private:
  friend class Section;

  struct Stage {
    std::uint64_t calls = 0;
    std::uint64_t busy_ticks = 0;
    std::uint64_t busy_ns = 0;  // metrics side, always wall
    std::uint64_t first_tick = 0;
    std::uint64_t last_tick = 0;
    std::vector<std::pair<const char*, std::uint64_t>> counts;
  };

  const StageSet& set_;
  TraceContext context_;  // captured at construction
  std::array<Stage, StageSet::kMaxStages> stages_;
};

/// A parsed-and-validated span line; the schema checker shared by
/// tools/nocdr_trace, nocdr_docs_check and the tests.
struct ParsedSpan {
  std::string trace;
  std::uint64_t span = 0;
  std::int64_t parent = -1;
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::map<std::string, std::uint64_t> uint_attrs;
  std::map<std::string, std::string> string_attrs;
};

/// Validates one span line against the schema: required keys with the
/// right shapes, start <= end, parent -1 exactly for span 0 and
/// otherwise an earlier span id, attributes string/uint only. Throws
/// InvalidModelError naming the violation.
ParsedSpan ParseSpanLine(const std::string& line);

/// True iff \p line is a trace-file header ({"trace_schema":...}).
bool IsTraceHeaderLine(const std::string& line);

/// Validates the header line and returns its clock mode. Throws
/// InvalidModelError on a bad schema version or clock name.
TraceClockMode ParseTraceHeaderLine(const std::string& line);

}  // namespace nocdr::obs
