#include "exec/thread_pool.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "common/error.hpp"

namespace aeqp::exec {

namespace {
thread_local bool tl_in_worker = false;
/// CPU ms pool workers spent in the regions this thread submitted.
thread_local double tl_helper_cpu_ms = 0.0;

/// CPU time the calling thread itself consumed, in milliseconds.
double own_cpu_ms() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
#endif
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::mutex g_global_m;
std::unique_ptr<ThreadPool> g_global;
}  // namespace

std::size_t hardware_threads() {
  if (const char* env = std::getenv("AEQP_NUM_THREADS")) {
    char* endp = nullptr;
    const long v = std::strtol(env, &endp, 10);
    if (endp != env && *endp == '\0' && v >= 1)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

double thread_cpu_ms() { return own_cpu_ms() + tl_helper_cpu_ms; }

struct ThreadPool::Impl {
  std::vector<std::thread> threads;
  std::mutex m;
  std::condition_variable cv_job;
  std::condition_variable cv_done;
  const std::function<void(std::size_t)>* job = nullptr;
  std::uint64_t job_id = 0;
  std::size_t active = 0;
  double helper_cpu_ms = 0.0;  ///< workers' CPU in the current region
  bool stop = false;
  // One region at a time; a second submitter falls back to serial instead
  // of queueing (simmpi ranks-as-threads must never convoy on the pool).
  std::mutex submit_m;
};

ThreadPool::ThreadPool(std::size_t n_threads)
    : impl_(std::make_unique<Impl>()),
      n_threads_(n_threads == 0 ? hardware_threads() : n_threads) {
  Impl& im = *impl_;
  im.threads.reserve(n_threads_ > 0 ? n_threads_ - 1 : 0);
  for (std::size_t w = 1; w < n_threads_; ++w) {
    im.threads.emplace_back([this, w] {
      Impl& s = *impl_;
      std::uint64_t seen = 0;
      for (;;) {
        const std::function<void(std::size_t)>* fn = nullptr;
        {
          std::unique_lock<std::mutex> lk(s.m);
          s.cv_job.wait(lk, [&] { return s.stop || s.job_id != seen; });
          if (s.stop) return;
          seen = s.job_id;
          fn = s.job;
        }
        tl_in_worker = true;
        const double cpu0 = own_cpu_ms();
        (*fn)(w);
        const double spent = own_cpu_ms() - cpu0;
        tl_in_worker = false;
        {
          const std::lock_guard<std::mutex> lk(s.m);
          s.helper_cpu_ms += spent;
          if (--s.active == 0) s.cv_done.notify_all();
        }
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  Impl& im = *impl_;
  {
    const std::lock_guard<std::mutex> lk(im.m);
    im.stop = true;
  }
  im.cv_job.notify_all();
  for (auto& t : im.threads) t.join();
}

bool ThreadPool::in_worker() { return tl_in_worker; }

bool ThreadPool::try_run_on_all(const std::function<void(std::size_t)>& work) {
  Impl& im = *impl_;
  if (!im.submit_m.try_lock()) return false;
  const std::lock_guard<std::mutex> submit_lk(im.submit_m, std::adopt_lock);
  {
    const std::lock_guard<std::mutex> lk(im.m);
    im.job = &work;
    ++im.job_id;
    im.active = im.threads.size();
    im.helper_cpu_ms = 0.0;
  }
  im.cv_job.notify_all();
  // The caller is worker 0; flagging it keeps nested loops serial.
  tl_in_worker = true;
  work(0);
  tl_in_worker = false;
  {
    std::unique_lock<std::mutex> lk(im.m);
    im.cv_done.wait(lk, [&] { return im.active == 0; });
    im.job = nullptr;
    tl_helper_cpu_ms += im.helper_cpu_ms;
  }
  return true;
}

ThreadPool& ThreadPool::global() {
  const std::lock_guard<std::mutex> lk(g_global_m);
  if (!g_global) g_global = std::make_unique<ThreadPool>();
  return *g_global;
}

void ThreadPool::set_global_threads(std::size_t n) {
  AEQP_CHECK(!in_worker(),
             "ThreadPool::set_global_threads: cannot rebuild the pool from "
             "inside a parallel region");
  const std::lock_guard<std::mutex> lk(g_global_m);
  g_global = std::make_unique<ThreadPool>(n);
}

}  // namespace aeqp::exec
