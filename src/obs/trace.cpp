#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <string_view>

#include "obs/metrics.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr::obs {

namespace {

thread_local TraceContext g_current;

/// One span as one flat JSON line (reserved keys first, attributes
/// after, in insertion order).
std::string RenderSpanLine(const std::string& trace_id,
                           const SpanRecord& span) {
  JsonObject json;
  json.Set("trace", trace_id)
      .Set("span", span.span)
      .Set("parent", span.parent)
      .Set("name", span.name)
      .Set("start", span.start)
      .Set("end", span.end);
  for (const SpanAttr& attr : span.attrs) {
    if (attr.is_string) {
      json.Set(attr.key, attr.str);
    } else {
      json.Set(attr.key, attr.num);
    }
  }
  return json.Dump();
}

std::string HeaderLine(TraceClockMode clock) {
  JsonObject json;
  json.Set("trace_schema", kTraceSchemaVersion)
      .Set("clock", TraceClockName(clock))
      .Set("git_sha", GetBuildInfo().git_sha);
  return json.Dump();
}

bool IsReservedSpanKey(const std::string& key) {
  return key == "trace" || key == "span" || key == "parent" ||
         key == "name" || key == "start" || key == "end";
}

}  // namespace

std::string TraceClockName(TraceClockMode mode) {
  return mode == TraceClockMode::kLogical ? "logical" : "wall";
}

TraceClockMode ParseTraceClock(const std::string& name) {
  if (name == "logical") {
    return TraceClockMode::kLogical;
  }
  if (name == "wall") {
    return TraceClockMode::kWall;
  }
  throw InvalidModelError("ParseTraceClock: unknown clock \"" + name +
                          "\" (want \"logical\" or \"wall\")");
}

TraceSink::TraceSink(TraceClockMode clock)
    : clock_(clock), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceSink::WallNowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceSink::Finish(const std::string& trace_id,
                       std::vector<SpanRecord> spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  traces_.emplace_back(trace_id, std::move(spans));
}

std::size_t TraceSink::TraceCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_.size();
}

std::size_t TraceSink::SpanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, spans] : traces_) {
    count += spans.size();
  }
  return count;
}

std::size_t TraceSink::WriteTo(std::ostream& out) const {
  // Copy the trace order under the lock, then render without it. The
  // sort is what divorces the file bytes from completion order:
  // traces finish in scheduling order, but are always written sorted
  // by id (span ids are already sequential within each trace).
  std::vector<const std::pair<std::string, std::vector<SpanRecord>>*> order;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    order.reserve(traces_.size());
    for (const auto& trace : traces_) {
      order.push_back(&trace);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto* a, const auto* b) {
                     return a->first < b->first;
                   });
  out << HeaderLine(clock_) << "\n";
  std::size_t written = 0;
  for (const auto* trace : order) {
    for (const SpanRecord& span : trace->second) {
      out << RenderSpanLine(trace->first, span) << "\n";
      ++written;
    }
  }
  return written;
}

bool TraceSink::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  WriteTo(out);
  out.flush();
  return static_cast<bool>(out);
}

Trace::Trace(TraceSink& sink, std::string trace_id)
    : sink_(sink), id_(std::move(trace_id)) {}

Trace::~Trace() { Finish(); }

std::uint64_t Trace::Tick() {
  if (sink_.clock() == TraceClockMode::kLogical) {
    return ticks_++;
  }
  return sink_.WallNowUs();
}

std::uint64_t Trace::Open(const std::string& name, std::int64_t parent) {
  SpanRecord span;
  span.span = spans_.size();
  span.parent = parent;
  span.name = name;
  span.start = Tick();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return spans_.back().span;
}

void Trace::Close(std::uint64_t span) {
  spans_[span].end = Tick();
}

std::uint64_t Trace::Emit(const std::string& name, std::int64_t parent,
                          std::uint64_t start, std::uint64_t end) {
  SpanRecord span;
  span.span = spans_.size();
  span.parent = parent;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().span;
}

void Trace::Attr(std::uint64_t span, const std::string& key,
                 std::uint64_t value) {
  spans_[span].attrs.push_back(SpanAttr{key, false, value, {}});
}

void Trace::Attr(std::uint64_t span, const std::string& key,
                 std::string value) {
  spans_[span].attrs.push_back(SpanAttr{key, true, 0, std::move(value)});
}

void Trace::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  sink_.Finish(id_, std::move(spans_));
}

ScopedTrace::ScopedTrace(TraceSink* sink, const std::string& trace_id,
                         const std::string& root_name) {
  if (sink == nullptr || trace_id.empty()) {
    return;
  }
  trace_ = std::make_unique<Trace>(*sink, trace_id);
  root_ = trace_->Open(root_name, -1);
  saved_ = g_current;
  g_current = TraceContext{trace_.get(), static_cast<std::int64_t>(root_)};
}

ScopedTrace::~ScopedTrace() {
  if (trace_ == nullptr) {
    return;
  }
  g_current = saved_;
  trace_->Close(root_);
  trace_->Finish();
}

void ScopedTrace::Attr(const std::string& key, std::uint64_t value) {
  if (trace_ != nullptr) {
    trace_->Attr(root_, key, value);
  }
}

void ScopedTrace::Attr(const std::string& key, std::string value) {
  if (trace_ != nullptr) {
    trace_->Attr(root_, key, std::move(value));
  }
}

DetachedScope::DetachedScope() : saved_(g_current) { g_current = {}; }

DetachedScope::~DetachedScope() { g_current = saved_; }

ScopedSpan::ScopedSpan(const std::string& name) {
  if (g_current.trace == nullptr) {
    return;
  }
  trace_ = g_current.trace;
  span_ = trace_->Open(name, g_current.span);
  saved_ = g_current;
  g_current = TraceContext{trace_, static_cast<std::int64_t>(span_)};
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) {
    return;
  }
  g_current = saved_;
  trace_->Close(span_);
}

void ScopedSpan::Attr(const std::string& key, std::uint64_t value) {
  if (trace_ != nullptr) {
    trace_->Attr(span_, key, value);
  }
}

void ScopedSpan::Attr(const std::string& key, std::string value) {
  if (trace_ != nullptr) {
    trace_->Attr(span_, key, std::move(value));
  }
}

StageSet::StageSet(const char* metric_prefix,
                   std::initializer_list<const char*> stage_names)
    : metric_prefix_(metric_prefix) {
  for (const char* name : stage_names) {
    if (size_ >= kMaxStages) {
      break;
    }
    names_[size_++] = name;
  }
}

Histogram& StageSet::HistogramOf(std::size_t stage) const {
  Histogram* histogram = histograms_[stage].load();
  if (histogram == nullptr) {
    // Racing first uses register the same name and get the same
    // histogram back.
    histogram = &Metrics().GetHistogram(std::string(metric_prefix_) + "." +
                                        names_[stage] + "_us");
    histograms_[stage].store(histogram);
  }
  return *histogram;
}

StageTimer::StageTimer(const StageSet& stages)
    : set_(stages), context_(g_current) {}

StageTimer::~StageTimer() {
  for (std::size_t i = 0; i < set_.size(); ++i) {
    const Stage& stage = stages_[i];
    if (stage.calls == 0) {
      continue;
    }
    set_.HistogramOf(i).Record(stage.busy_ns / 1000);
    if (context_.trace != nullptr) {
      const std::uint64_t span = context_.trace->Emit(
          set_.name(i), context_.span, stage.first_tick, stage.last_tick);
      context_.trace->Attr(span, "busy", stage.busy_ticks);
      context_.trace->Attr(span, "calls", stage.calls);
      for (const auto& [key, value] : stage.counts) {
        context_.trace->Attr(span, key, value);
      }
    }
  }
}

void StageTimer::Count(std::size_t stage, const char* key,
                       std::uint64_t delta) {
  if (context_.trace == nullptr) {
    return;
  }
  for (auto& [existing, value] : stages_[stage].counts) {
    if (std::string_view(existing) == key) {
      value += delta;
      return;
    }
  }
  stages_[stage].counts.emplace_back(key, delta);
}

StageTimer::Section::Section(StageTimer& timer, std::size_t stage)
    : timer_(timer),
      stage_(stage),
      wall_start_(std::chrono::steady_clock::now()) {
  if (timer_.context_.trace != nullptr) {
    tick_start_ = timer_.context_.trace->Tick();
    if (timer_.stages_[stage_].calls == 0) {
      timer_.stages_[stage_].first_tick = tick_start_;
    }
  }
}

StageTimer::Section::~Section() {
  Stage& stage = timer_.stages_[stage_];
  stage.busy_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start_)
          .count());
  if (timer_.context_.trace != nullptr) {
    const std::uint64_t tick_end = timer_.context_.trace->Tick();
    stage.busy_ticks += tick_end - tick_start_;
    stage.last_tick = tick_end;
  }
  ++stage.calls;
}

ParsedSpan ParseSpanLine(const std::string& line) {
  const JsonValue json = [&] {
    try {
      return JsonValue::Parse(line);
    } catch (const std::exception& e) {
      throw InvalidModelError(std::string("span line is not JSON: ") +
                              e.what());
    }
  }();
  if (json.kind() != JsonValue::Kind::kObject) {
    throw InvalidModelError("span line is not a JSON object");
  }
  ParsedSpan span;
  span.trace = json.At("trace").AsString();
  if (span.trace.empty()) {
    throw InvalidModelError("span \"trace\" id must be non-empty");
  }
  span.span = json.At("span").AsUint();
  span.parent = json.At("parent").AsInt();
  span.name = json.At("name").AsString();
  if (span.name.empty()) {
    throw InvalidModelError("span \"name\" must be non-empty");
  }
  span.start = json.At("start").AsUint();
  span.end = json.At("end").AsUint();
  if (span.start > span.end) {
    throw InvalidModelError("span " + std::to_string(span.span) +
                            " has start > end");
  }
  if (span.span == 0) {
    if (span.parent != -1) {
      throw InvalidModelError("root span (id 0) must have parent -1");
    }
  } else if (span.parent < 0 ||
             static_cast<std::uint64_t>(span.parent) >= span.span) {
    throw InvalidModelError(
        "span " + std::to_string(span.span) +
        " parent must be an earlier span id (ids are open-ordered)");
  }
  for (const auto& [key, value] : json.Members()) {
    if (IsReservedSpanKey(key)) {
      continue;
    }
    if (value.kind() == JsonValue::Kind::kString) {
      span.string_attrs[key] = value.AsString();
    } else if (value.kind() == JsonValue::Kind::kNumber) {
      span.uint_attrs[key] = value.AsUint();
    } else {
      throw InvalidModelError("span attribute \"" + key +
                              "\" must be a string or unsigned integer");
    }
  }
  return span;
}

bool IsTraceHeaderLine(const std::string& line) {
  try {
    const JsonValue json = JsonValue::Parse(line);
    return json.kind() == JsonValue::Kind::kObject &&
           json.Find("trace_schema") != nullptr;
  } catch (const std::exception&) {
    return false;
  }
}

TraceClockMode ParseTraceHeaderLine(const std::string& line) {
  const JsonValue json = JsonValue::Parse(line);
  const std::uint64_t version = json.At("trace_schema").AsUint();
  if (version != static_cast<std::uint64_t>(kTraceSchemaVersion)) {
    throw InvalidModelError("unsupported trace_schema " +
                            std::to_string(version) + " (this build reads " +
                            std::to_string(kTraceSchemaVersion) + ")");
  }
  return ParseTraceClock(json.At("clock").AsString());
}

}  // namespace nocdr::obs
