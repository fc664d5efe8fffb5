#include "obs/metrics.h"

#include <bit>

namespace nocdr::obs {

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

std::uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  const auto want = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + 0.999999);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= want) {
      return Histogram::BucketUpperBound(i);
    }
  }
  return Histogram::BucketUpperBound(kHistogramBuckets - 1);
}

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  if (value == 0) {
    return 0;
  }
  const std::size_t index =
      static_cast<std::size_t>(std::bit_width(value));  // 1 + floor(log2 v)
  return index < kHistogramBuckets ? index : kHistogramBuckets - 1;
}

std::uint64_t Histogram::BucketUpperBound(std::size_t index) {
  if (index == 0) {
    return 0;
  }
  if (index >= kHistogramBuckets - 1) {
    return UINT64_MAX;
  }
  return (std::uint64_t{1} << index) - 1;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    snapshot.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

MetricsRegistry& Metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

JsonObject CountersToJson(const MetricsSnapshot& snapshot) {
  JsonObject json;
  for (const auto& [name, value] : snapshot.counters) {
    json.Set(name, value);
  }
  return json;
}

JsonObject HistogramToJson(const HistogramSnapshot& snapshot) {
  JsonObject json;
  json.Set("count", snapshot.count).Set("sum", snapshot.sum);
  std::string buckets = "[";
  bool first = true;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (snapshot.buckets[i] == 0) {
      continue;
    }
    if (!first) {
      buckets += ",";
    }
    first = false;
    buckets += "[" + std::to_string(Histogram::BucketUpperBound(i)) + "," +
               std::to_string(snapshot.buckets[i]) + "]";
  }
  buckets += "]";
  json.SetRaw("buckets", buckets);
  return json;
}

JsonObject HistogramsToJson(const MetricsSnapshot& snapshot) {
  JsonObject json;
  for (const auto& [name, histogram] : snapshot.histograms) {
    json.SetRaw(name, HistogramToJson(histogram).Dump());
  }
  return json;
}

}  // namespace nocdr::obs
