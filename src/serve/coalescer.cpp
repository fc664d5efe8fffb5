#include "serve/coalescer.h"

#include <utility>

namespace nocdr::serve {

RequestCoalescer::RequestCoalescer(CoalescerConfig config)
    : config_(config) {}

RequestCoalescer::Outcome RequestCoalescer::Submit(
    std::uint64_t digest, const std::string& key_text, const ProbeFn& probe,
    const ComputeFn& compute) {
  Outcome outcome;
  std::promise<Result> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Probe the cache under the registry lock: a leader retires its
    // entry only after publishing to the cache (also under this lock),
    // so a request can never fall into the gap between "result
    // published" and "entry retired" and start a duplicate computation.
    if (std::optional<Result> resolved = probe()) {
      outcome.kind = Outcome::Kind::kResolved;
      outcome.resolved = std::move(resolved);
      return outcome;
    }
    auto& slots = inflight_[digest];
    for (const InFlight& slot : slots) {
      if (slot.key_text == key_text) {
        outcome.kind = Outcome::Kind::kFollower;
        outcome.future = slot.future;
        return outcome;
      }
    }
    if (pending_ >= config_.max_pending) {
      if (slots.empty()) {
        inflight_.erase(digest);
      }
      outcome.kind = Outcome::Kind::kRejected;
      return outcome;
    }
    outcome.kind = Outcome::Kind::kLeader;
    outcome.future = promise.get_future().share();
    slots.push_back(InFlight{key_text, outcome.future});
    ++pending_;
  }
  // Leader only, lock released: compute here, on the caller's thread.
  // compute() publishes to the cache before returning; only then is the
  // promise fulfilled and the in-flight entry retired. A throw, from the
  // computation or from an allocation on the way, poisons the promise
  // instead, so followers never block on a promise nobody fulfils and
  // the admission budget never leaks.
  try {
    promise.set_value(compute());
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  Retire(digest, key_text);
  return outcome;
}

void RequestCoalescer::Retire(std::uint64_t digest,
                              const std::string& key_text) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = inflight_.find(digest);
  if (it != inflight_.end()) {
    auto& slots = it->second;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].key_text == key_text) {
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    if (slots.empty()) {
      inflight_.erase(it);
    }
  }
  --pending_;
}

std::size_t RequestCoalescer::Pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

}  // namespace nocdr::serve
