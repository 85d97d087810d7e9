// Deterministic block-parallel driver.
//
// Work is cut into fixed-size blocks whose boundaries depend only on
// (total, block) — never on the thread count — and each block carries its
// own index, so callers can derive per-block RNG seeds and write results
// into disjoint preallocated ranges.  Output is therefore identical at any
// thread count: threads only change *which worker* runs a block, not what
// the block computes or where it lands.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace pufatt::support {

/// The generator for shard `shard` of a block-parallel job seeded `seed`:
/// a pure function of (seed, shard), so a shard's draws never depend on
/// which worker runs it.  Every sharded CRP harvest derives its shard RNGs
/// here.
inline Xoshiro256pp shard_rng(std::uint64_t seed, std::size_t shard) {
  return Xoshiro256pp(SplitMix64::mix(seed ^ (0xA5A5A5A5A5A5A5A5ULL + shard)));
}

/// Runs `fn(block_index, begin, end, worker_slot)` for every block
/// `[k*block, min((k+1)*block, total))`, on up to `threads` std::threads.
/// `worker_slot` is in [0, max(1, threads)) and identifies the executing
/// worker, for per-worker scratch reuse — it is NOT stable across runs, so
/// never derive results from it.  threads <= 1 (or a single block) runs
/// inline on the calling thread.  The first exception thrown by any block
/// is rethrown on the caller after all workers join.
template <typename Fn>
void parallel_blocks(std::size_t total, std::size_t block, std::size_t threads,
                     Fn&& fn) {
  if (total == 0) return;
  if (block == 0) block = 1;
  const std::size_t num_blocks = (total + block - 1) / block;
  if (threads <= 1 || num_blocks <= 1) {
    for (std::size_t k = 0; k < num_blocks; ++k) {
      const std::size_t begin = k * block;
      const std::size_t end = std::min(begin + block, total);
      fn(k, begin, end, std::size_t{0});
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&](std::size_t slot) {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_blocks || failed.load(std::memory_order_relaxed)) return;
      const std::size_t begin = k * block;
      const std::size_t end = std::min(begin + block, total);
      try {
        fn(k, begin, end, slot);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (error == nullptr) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const std::size_t spawn = std::min(threads, num_blocks);
  std::vector<std::thread> pool;
  pool.reserve(spawn - 1);
  for (std::size_t slot = 1; slot < spawn; ++slot) {
    pool.emplace_back(worker, slot);
  }
  worker(0);
  for (auto& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace pufatt::support
