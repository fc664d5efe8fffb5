#include "serve/sched.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace nocdr::serve::sched {

std::uint64_t EstimateCost(std::size_t channels, std::size_t flows) {
  // Channels bound the CDG vertex count, flows the per-iteration
  // cycle-break candidate scan; both enter roughly linearly. +1 keeps
  // the cost of even a degenerate design positive so a token charge
  // never hits zero.
  return 1 + static_cast<std::uint64_t>(channels) +
         4 * static_cast<std::uint64_t>(flows);
}

std::uint64_t EstimateCost(const NocDesign& design) {
  return EstimateCost(design.topology.ChannelCount(),
                      design.traffic.FlowCount());
}

TokenBucket::TokenBucket(double tokens_per_us, double capacity,
                         std::uint64_t now_us)
    : rate_per_us_(tokens_per_us),
      capacity_(capacity),
      tokens_(capacity),
      last_us_(now_us) {}

bool TokenBucket::TryTake(double cost, std::uint64_t now_us) {
  if (now_us > last_us_) {
    tokens_ = std::min(
        capacity_,
        tokens_ + rate_per_us_ * static_cast<double>(now_us - last_us_));
    last_us_ = now_us;
  }
  if (tokens_ + 1e-9 < cost) {
    return false;
  }
  tokens_ -= cost;
  return true;
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         std::uint64_t now_us)
    : config_(std::move(config)) {
  std::vector<ClassConfig> classes = config_.classes;
  const bool has_default =
      std::any_of(classes.begin(), classes.end(),
                  [](const ClassConfig& c) { return c.name == kDefaultClass; });
  if (classes.empty() || !has_default) {
    ClassConfig fallback;
    fallback.name = kDefaultClass;
    classes.push_back(fallback);
  }
  double total_weight = 0.0;
  for (const ClassConfig& c : classes) {
    total_weight += std::max(0.0, c.weight);
  }
  if (total_weight <= 0.0) {
    total_weight = 1.0;
  }
  const double burst =
      config_.burst > 0.0 ? config_.burst : config_.tokens_per_sec;
  for (const ClassConfig& c : classes) {
    const double share = std::max(0.0, c.weight) / total_weight;
    Bucket bucket;
    bucket.config = c;
    bucket.tokens = TokenBucket(config_.tokens_per_sec * share / 1e6,
                                std::max(1.0, burst * share), now_us);
    buckets_.push_back(bucket);
    ClassCounters counters;
    counters.name = c.name;
    counters.rank = c.rank;
    counters_.push_back(counters);
  }
}

std::size_t AdmissionController::BucketIndex(
    const std::string& class_name) const {
  std::size_t fallback = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].config.name == class_name) {
      return i;
    }
    if (buckets_[i].config.name == kDefaultClass) {
      fallback = i;
    }
  }
  return fallback;
}

bool AdmissionController::TryAdmit(const std::string& class_name,
                                   std::uint64_t cost, std::uint64_t now_us) {
  const std::string& name = class_name.empty() ? kDefaultClass : class_name;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t bucket = BucketIndex(name);
  // Count under the caller's own name even when it shares the default
  // bucket, so the stats show who actually asked.
  ClassCounters* counters = nullptr;
  for (ClassCounters& c : counters_) {
    if (c.name == name) {
      counters = &c;
      break;
    }
  }
  if (counters == nullptr) {
    ClassCounters fresh;
    fresh.name = name;
    fresh.rank = buckets_[bucket].config.rank;
    counters_.push_back(fresh);
    counters = &counters_.back();
  }
  ++counters->requests;
  const double charge =
      config_.charge_cost ? static_cast<double>(cost) : 1.0;
  const bool admitted =
      !config_.enabled || buckets_[bucket].tokens.TryTake(charge, now_us);
  // Process-wide admission counters beside the per-class split: the
  // {"type":"metrics"} response reads these without taking this lock.
  static obs::Counter& admitted_total =
      obs::Metrics().GetCounter("sched.admitted");
  static obs::Counter& rejected_total =
      obs::Metrics().GetCounter("sched.rejected");
  if (admitted) {
    ++counters->admitted;
    counters->cost_admitted += cost;
    admitted_total.Add();
  } else {
    ++counters->rejected;
    rejected_total.Add();
  }
  return admitted;
}

std::vector<ClassCounters> AdmissionController::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace nocdr::serve::sched
