#pragma once

/// \file thread_pool.hpp
/// Shared-memory execution layer: a persistent work-stealing thread pool
/// with chunked `parallel_for` range scheduling. This is the host-side
/// analogue of the on-node parallelism the paper exploits through OpenCL
/// work-groups (Sec. 4): every hot phase (DM, Sumup, Rho, H) dispatches its
/// independent units of work across the pool.
///
/// Scheduling model: a `parallel_for` splits its range into one contiguous
/// lane per participating thread. Each thread drains its own lane in fixed
/// chunks through an atomic cursor and, once dry, steals chunks from the
/// other lanes round-robin. The caller thread participates as worker 0, so
/// a pool of size 1 degenerates to a plain serial loop with no thread
/// hand-off (graceful serial fallback).
///
/// Determinism contract: the pool never changes *what* a loop iteration
/// computes or the order of floating-point accumulation inside one
/// iteration; callers that reduce across iterations must do so in a fixed
/// order after the join (see docs/parallelism.md). Under that discipline a
/// run is bit-for-bit identical for every thread count, which the
/// resilience layer's warm-start guarantee relies on.
///
/// Pool size: `AEQP_NUM_THREADS` overrides `std::thread::hardware_concurrency`.
/// Nested `parallel_for` calls (from inside a worker) run serially inline.

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aeqp::exec {

/// Threads the pool uses by default: the `AEQP_NUM_THREADS` environment
/// override when set to a positive integer, else the hardware concurrency
/// (at least 1).
[[nodiscard]] std::size_t hardware_threads();

/// CPU time, in milliseconds, spent on the calling thread's behalf: what
/// the thread itself consumed plus what pool workers consumed running the
/// parallel regions it submitted. Where no per-thread CPU clock exists the
/// wall clock stands in.
[[nodiscard]] double thread_cpu_ms();

class ThreadPool {
public:
  /// n_threads = 0 picks hardware_threads(). The pool spawns n-1 workers;
  /// the submitting thread is always worker 0.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute a parallel region (workers + caller).
  [[nodiscard]] std::size_t size() const { return n_threads_; }

  /// The process-wide pool used by the free `parallel_for` helpers.
  [[nodiscard]] static ThreadPool& global();

  /// Rebuild the global pool with `n` threads (0 = auto). Not safe while a
  /// parallel region is in flight; intended for benches and tests that
  /// sweep thread counts between runs.
  static void set_global_threads(std::size_t n);

  /// True on a thread currently executing inside a parallel region
  /// (including the caller while it participates). Nested parallel loops
  /// use this to fall back to serial execution.
  [[nodiscard]] static bool in_worker();

  /// body(i) for every i in [begin, end). Iterations must be independent;
  /// exceptions from any worker cancel the remaining chunks and the first
  /// one is rethrown on the calling thread.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
    parallel_for_ranges(begin, end, 1,
                        [&body](std::size_t b, std::size_t e) {
                          for (std::size_t i = b; i < e; ++i) body(i);
                        });
  }

  /// body(chunk_begin, chunk_end) over a partition of [begin, end) into
  /// chunks of at least `min_chunk` iterations. Ranges at or below
  /// `min_chunk`, a pool of size 1, a nested call, or a busy pool (another
  /// thread mid-region, e.g. a simmpi rank) all run the whole range
  /// serially on the calling thread.
  template <typename Body>
  void parallel_for_ranges(std::size_t begin, std::size_t end,
                           std::size_t min_chunk, Body&& body) {
    if (end <= begin) return;
    const std::size_t n = end - begin;
    if (min_chunk == 0) min_chunk = 1;
    if (n_threads_ <= 1 || n <= min_chunk || in_worker()) {
      body(begin, end);
      return;
    }

    const std::size_t lanes =
        std::min(n_threads_, (n + min_chunk - 1) / min_chunk);
    std::vector<LaneState> lane(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      lane[l].next.store(begin + l * n / lanes, std::memory_order_relaxed);
      lane[l].end = begin + (l + 1) * n / lanes;
    }
    // Steal granularity: small enough to balance uneven iteration costs,
    // never below the caller's chunking floor.
    const std::size_t grain =
        std::max<std::size_t>(min_chunk, n / (8 * lanes) + 1);

    std::atomic<bool> cancelled{false};
    std::exception_ptr error;
    std::mutex error_m;

    auto work = [&](std::size_t worker_id) {
      // Scheduling telemetry, accumulated thread-locally and published once
      // per worker per region so the hot loop stays contention-free.
      std::size_t n_chunks = 0, n_steals = 0;
      try {
        for (std::size_t v = 0; v < lanes; ++v) {
          LaneState& l = lane[(worker_id + v) % lanes];
          while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t c =
                l.next.fetch_add(grain, std::memory_order_relaxed);
            if (c >= l.end) break;
            body(c, std::min(c + grain, l.end));
            ++n_chunks;
            n_steals += (v != 0);
          }
        }
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lk(error_m);
        if (!error) error = std::current_exception();
      }
      if (obs::enabled() && n_chunks != 0) {
        static obs::Counter& chunks_counter = obs::counter("exec/chunks");
        static obs::Counter& steals_counter = obs::counter("exec/steals");
        chunks_counter.add(n_chunks);
        steals_counter.add(n_steals);
      }
    };
    if (obs::enabled()) {
      static obs::Counter& regions_counter = obs::counter("exec/regions");
      regions_counter.add(1);
    }
    if (!try_run_on_all(work)) {
      body(begin, end);  // pool occupied by another thread's region
      return;
    }
    if (error) std::rethrow_exception(error);
  }

private:
  struct alignas(64) LaneState {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  /// Run `work(worker_id)` once on every pool thread (caller = 0) and join.
  /// Returns false without running anything when another thread already
  /// holds the pool (the caller then executes its range serially).
  bool try_run_on_all(const std::function<void(std::size_t)>& work);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t n_threads_ = 1;
};

/// parallel_for on the global pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  ThreadPool::global().parallel_for(begin, end, std::forward<Body>(body));
}

/// Chunked parallel_for on the global pool; body(chunk_begin, chunk_end).
template <typename Body>
void parallel_for_ranges(std::size_t begin, std::size_t end,
                         std::size_t min_chunk, Body&& body) {
  ThreadPool::global().parallel_for_ranges(begin, end, min_chunk,
                                           std::forward<Body>(body));
}

}  // namespace aeqp::exec
