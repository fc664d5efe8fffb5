// Deterministic parallel map over a job index space.
//
// The one concurrency idiom every batch engine in this repo uses
// (SweepRunner, the validation campaigns in src/valid/): evaluate a pure
// function of the job index for indices 0..count-1 on a few worker
// threads and collect the results into a vector indexed like the input.
// Because each result slot is written by exactly one invocation and the
// function depends only on its index (never on time, thread id or
// schedule), the returned vector is byte-identical for any thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace nocdr::runner {

/// Returns {fn(0), ..., fn(count - 1)}, evaluated concurrently on
/// min(\p threads, count) workers (\p threads 0 = hardware concurrency)
/// that claim indices from one shared cursor, so long and short jobs
/// balance. \p fn must be safe to call concurrently and must not throw —
/// catch per-job exceptions inside it and encode them in the row type.
template <typename Row, typename Fn>
std::vector<Row> ParallelMapIndexed(std::size_t count, std::size_t threads,
                                    Fn&& fn) {
  std::vector<Row> rows(count);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::atomic<std::size_t> cursor{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < std::min(threads, count); ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = cursor++; i < count; i = cursor++) {
          rows[i] = fn(i);
        }
      });
    }
  }  // the jthreads join here
  return rows;
}

}  // namespace nocdr::runner
