#include "parallel/cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/task_scope.hpp"
#include "exec/thread_pool.hpp"
#include "obs/comm_matrix.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/fault.hpp"
#include "parallel/straggler.hpp"

namespace aeqp::parallel {

Cluster::Cluster(std::size_t n_ranks, std::size_t ranks_per_node)
    : Cluster(n_ranks, ranks_per_node, {}) {}

Cluster::Cluster(std::size_t n_ranks, std::size_t ranks_per_node,
                 std::vector<std::size_t> origin)
    : n_ranks_(n_ranks),
      ranks_per_node_(ranks_per_node),
      origin_(std::move(origin)),
      subworld_(!origin_.empty()) {
  AEQP_CHECK(n_ranks >= 1, "Cluster: need at least one rank");
  AEQP_CHECK(ranks_per_node >= 1, "Cluster: need at least one rank per node");
  if (origin_.empty()) {
    origin_.resize(n_ranks_);
    for (std::size_t r = 0; r < n_ranks_; ++r) origin_[r] = r;
  }
  AEQP_CHECK(origin_.size() == n_ranks_,
             "Cluster: origin map must name every rank exactly once");
  std::vector<std::size_t> ids = origin_;
  std::sort(ids.begin(), ids.end());
  const auto repeated = std::adjacent_find(ids.begin(), ids.end());
  AEQP_CHECK(repeated == ids.end(), "Cluster: origin map names original rank " +
                                        std::to_string(*repeated) + " twice");
  global_barrier_ = std::make_unique<FtBarrier>(n_ranks_);
  reduce_slots_.resize(n_ranks_);
  const std::size_t n_nodes = node_count();
  nodes_ = std::vector<NodeState>(n_nodes);
  for (std::size_t nd = 0; nd < n_nodes; ++nd) {
    const std::size_t first = nd * ranks_per_node_;
    const std::size_t count = std::min(ranks_per_node_, n_ranks_ - first);
    nodes_[nd].barrier = std::make_unique<FtBarrier>(count);
  }
}

void Cluster::set_fault_injector(FaultInjector* injector) {
  if (injector != nullptr && !subworld_) {
    // A subworld's plan legitimately addresses original ranks that no
    // longer exist here (the origin map can even look like identity when
    // the dead ranks were the highest-numbered ones), so only a full world
    // validates.
    for (const FaultEvent& e : injector->planned_events())
      AEQP_CHECK(e.rank < n_ranks_,
                 "Cluster::set_fault_injector: planned event addresses rank " +
                     std::to_string(e.rank) + " outside the world (size " +
                     std::to_string(n_ranks_) + ")");
  }
  injector_ = injector;
}

void Cluster::set_straggler_detector(StragglerDetector* detector) {
  if (detector != nullptr) {
    // Every original id this world can hand the detector must have a row;
    // an undersized detector would silently drop the highest ranks' lag.
    for (const std::size_t id : origin_)
      AEQP_CHECK(id < detector->rank_count(),
                 "Cluster::set_straggler_detector: world original rank " +
                     std::to_string(id) + " outside the detector's world (" +
                     std::to_string(detector->rank_count()) + " ranks)");
  }
  straggler_ = detector;
}

void Cluster::set_adaptive_deadlines(bool on, double floor_ms) {
  adaptive_ = on;
  if (!on) {
    deadline_est_.reset();
    return;
  }
  DeadlineEstimator::Options opts;
  if (floor_ms > 0.0) opts.floor_ms = floor_ms;
  deadline_est_ = std::make_shared<DeadlineEstimator>(opts);
}

std::chrono::milliseconds Cluster::effective_timeout(CollectiveClass c) const {
  if (!adaptive_ || deadline_est_ == nullptr) return collective_timeout_;
  return deadline_est_->deadline(c, collective_timeout_);
}

std::size_t Cluster::node_count() const {
  return (n_ranks_ + ranks_per_node_ - 1) / ranks_per_node_;
}

void Cluster::FtBarrier::arrive_and_wait(Cluster& cluster, std::size_t rank,
                                         std::chrono::milliseconds timeout) {
  // The wait-vs-work split: everything inside this span is time the rank
  // spends blocked on peers, not computing.
  AEQP_TRACE_SCOPE("comm/wait");
  std::unique_lock<std::mutex> lk(mutex);
  if (cluster.failed()) {
    lk.unlock();
    cluster.throw_failure(rank);
  }
  const std::uint64_t gen = generation;
  if (++arrived == count) {
    arrived = 0;
    ++generation;
    cv.notify_all();
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (generation == gen) {
    if (cluster.failed()) {
      lk.unlock();
      cluster.throw_failure(rank);
    }
    if (cv.wait_until(lk, deadline) == std::cv_status::timeout &&
        generation == gen && !cluster.failed()) {
      const std::size_t seen = arrived;
      lk.unlock();
      cluster.fail(rank,
                   "collective deadline (" + std::to_string(timeout.count()) +
                       (cluster.adaptive_deadlines() ? " ms, adaptive"
                                                     : " ms") +
                       ") exceeded with " + std::to_string(seen) + "/" +
                       std::to_string(count) + " participants arrived",
                   nullptr, /*is_timeout=*/true);
      cluster.throw_failure(rank);
    }
  }
}

void Cluster::FtBarrier::wake() {
  std::lock_guard<std::mutex> lk(mutex);
  cv.notify_all();
}

void Cluster::fail(std::size_t rank, const std::string& what,
                   std::exception_ptr cause, bool is_timeout) {
  {
    std::lock_guard<std::mutex> lk(fail_mutex_);
    if (!failed_.load(std::memory_order_relaxed)) {
      failed_rank_ = rank;
      fail_what_ = what;
      fail_is_timeout_ = is_timeout;
      first_error_ = cause;
      failed_.store(true, std::memory_order_release);
      obs::trace_instant(is_timeout ? "fault/collective_timeout"
                                    : "fault/rank_failure");
    }
  }
  // Release every blocked rank so no collective stays stuck.
  global_barrier_->wake();
  for (auto& nd : nodes_) nd.barrier->wake();
}

void Cluster::throw_failure(std::size_t observer) const {
  std::size_t failed_rank;
  std::string what;
  bool is_timeout;
  {
    std::lock_guard<std::mutex> lk(fail_mutex_);
    failed_rank = failed_rank_;
    what = fail_what_;
    is_timeout = fail_is_timeout_;
  }
  if (is_timeout)
    throw CollectiveTimeout(observer, "simmpi: " + what + " (observed on rank " +
                                          std::to_string(observer) + ")");
  throw RankFailure(failed_rank, observer,
                    "simmpi: rank " + std::to_string(failed_rank) +
                        " failed: " + what + " (observed on rank " +
                        std::to_string(observer) + ")");
}

std::vector<std::exception_ptr> Cluster::run_collect(
    const std::function<void(Communicator&)>& fn) {
  // Reset state a previous (possibly failed) run may have left behind.
  {
    std::lock_guard<std::mutex> lk(fail_mutex_);
    failed_.store(false, std::memory_order_release);
    failed_rank_ = 0;
    fail_what_.clear();
    fail_is_timeout_ = false;
    first_error_ = nullptr;
  }
  reduce_arrivals_ = 0;
  {
    std::lock_guard<std::mutex> lk(global_barrier_->mutex);
    global_barrier_->arrived = 0;
  }
  for (auto& nd : nodes_) {
    std::lock_guard<std::mutex> lk(nd.barrier->mutex);
    nd.barrier->arrived = 0;
  }

  std::vector<std::thread> threads;
  threads.reserve(n_ranks_);
  std::vector<std::exception_ptr> errors(n_ranks_);
  // Rank threads inherit the spawning thread's task scope so per-task
  // counters (e.g. the scoped ABFT stats a service job opens) keep
  // attributing work done on rank threads to the owning task.
  void* const parent_scope = task_scope();
  for (std::size_t r = 0; r < n_ranks_; ++r) {
    threads.emplace_back([this, &fn, &errors, r, parent_scope] {
      const ScopedTaskScope inherit(parent_scope);
      Communicator comm(*this, r);
      try {
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
        std::string what = "rank function threw a non-standard exception";
        try {
          std::rethrow_exception(errors[r]);
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
        }
        // Releases peers blocked in collectives; they raise RankFailure.
        fail(r, what, errors[r], /*is_timeout=*/false);
      }
    });
  }
  for (auto& t : threads) t.join();
  return errors;
}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  const auto errors = run_collect(fn);
  std::exception_ptr root;
  {
    std::lock_guard<std::mutex> lk(fail_mutex_);
    root = first_error_;
  }
  // Prefer the originating failure; the RankFailures it triggered on the
  // other ranks are secondary.
  for (std::size_t r = 0; !root && r < errors.size(); ++r) root = errors[r];
  if (!root) return;
  // Post-mortem: the flight dump names what killed the run.
  if (obs::flight_enabled()) {
    try {
      std::rethrow_exception(root);
    } catch (const std::exception& e) {
      obs::flight_on_error(error_kind(e).c_str(), e.what());
    } catch (...) {
      obs::flight_on_error("unknown", "non-standard exception");
    }
  }
  std::rethrow_exception(root);
}

std::size_t Communicator::size() const { return cluster_->n_ranks_; }
std::size_t Communicator::original_rank() const {
  return cluster_->origin_[rank_];
}
std::size_t Communicator::original_rank_of(std::size_t r) const {
  return cluster_->origin_[r];
}
std::size_t Communicator::node() const { return rank_ / cluster_->ranks_per_node_; }
std::size_t Communicator::node_rank() const {
  return rank_ % cluster_->ranks_per_node_;
}
std::size_t Communicator::node_size() const {
  const std::size_t first = node() * cluster_->ranks_per_node_;
  return std::min(cluster_->ranks_per_node_, cluster_->n_ranks_ - first);
}

std::chrono::steady_clock::time_point Communicator::enter_collective(
    const char* what, std::span<double> payload) {
  if (obs::enabled()) {
    static obs::Counter& calls = obs::counter("comm/collectives");
    static obs::Counter& doubles = obs::counter("comm/collective_doubles");
    calls.add(1);
    doubles.add(payload.size());
  }
  if (cluster_->failed()) cluster_->throw_failure(rank_);
  const std::size_t seq = seq_++;
  // With payload verification on, tag the contribution as it enters the
  // collective (the simulated sender-side CRC). Anything that damages the
  // payload between here and the reduction -- the injector below models the
  // in-flight corruption of a real network/memory fault -- is caught by the
  // receive-side recheck before the reduction consumes the data.
  const bool verify = cluster_->verify_payloads_ && !payload.empty();
  std::uint32_t tag = 0;
  if (verify) {
    tag = crc32({reinterpret_cast<const unsigned char*>(payload.data()),
                 payload.size() * sizeof(double)});
    static obs::Counter& verified = obs::counter("comm/payloads_verified");
    verified.increment();
  }
  // Work-clock measurement: the work this rank did since it LEFT its
  // previous collective (its wait time was spent inside that collective and
  // is excluded), read as the CPU time spent on its behalf over the span --
  // its own thread's plus the pool workers' in the parallel regions it
  // submitted (exec::thread_cpu_ms), capped at the wall span. On dedicated
  // cores that equals the wall span, but on an oversubscribed host the wall
  // span also contains co-scheduled peers' compute. The Slowdown fault scales the CPU time, so
  // it never keeps punishing a victim after the rebalance rung has moved
  // its work away; the straggler ledger accumulates it plus the delay the
  // injector held the rank here, so a healthy rank the host merely
  // descheduled never reads as slow. Zero clock reads when nothing is
  // attached.
  const bool timed = cluster_->timing_armed();
  std::chrono::steady_clock::time_point t_enter{};
  double cpu_ms = 0.0;
  if (timed) {
    t_enter = std::chrono::steady_clock::now();
    if (last_leave_valid_) {
      const double wall_ms =
          std::chrono::duration<double, std::milli>(t_enter - last_leave_).count();
      cpu_ms = std::min(wall_ms, std::max(0.0, exec::thread_cpu_ms() - last_leave_cpu_ms_));
    }
  }
  if (cluster_->injector_ != nullptr) {
    cluster_->injector_->on_collective(
        rank_, cluster_->origin_[rank_], seq, what, payload,
        [this] { return cluster_->failed(); }, cpu_ms);
    // Deposit the straggler evidence BEFORE the post-injector failure
    // recheck: a victim whose injected delay was cut short by its peers'
    // timing out must still land its slow-work sample in the ledger, or
    // the classifier would never see the very slowness that tripped the
    // deadline.
    if (cluster_->straggler_ != nullptr && last_leave_valid_) {
      const double held_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t_enter)
                                 .count();
      cluster_->straggler_->record_work(cluster_->origin_[rank_], cpu_ms + held_ms);
    }
    // A peer may have failed while this rank was stalled by the injector.
    if (cluster_->failed()) cluster_->throw_failure(rank_);
  } else if (cluster_->straggler_ != nullptr && last_leave_valid_) {
    cluster_->straggler_->record_work(cluster_->origin_[rank_], cpu_ms);
  }
  if (verify) {
    const std::uint32_t check =
        crc32({reinterpret_cast<const unsigned char*>(payload.data()),
               payload.size() * sizeof(double)});
    if (check != tag) {
      obs::counter("comm/payload_corruptions").increment();
      obs::trace_instant("sdc/detect");
      throw PayloadCorruption(
          rank_, cluster_->origin_[rank_], what,
          "simmpi: payload CRC mismatch in " + std::string(what) +
              " on rank " + std::to_string(rank_) + " (original rank " +
              std::to_string(cluster_->origin_[rank_]) + ", collective #" +
              std::to_string(seq) + ", " + std::to_string(payload.size()) +
              " doubles): silent corruption detected at the collective");
    }
  }
  return t_enter;
}

void Communicator::leave_collective(
    CollectiveClass c, std::chrono::steady_clock::time_point t_enter) {
  if (!cluster_->timing_armed()) return;
  const auto now = std::chrono::steady_clock::now();
  last_leave_ = now;
  last_leave_cpu_ms_ = exec::thread_cpu_ms();
  last_leave_valid_ = true;
  // Entry-to-completion duration feeds the adaptive deadline. Completed
  // collectives only: a timed-out collective throws before reaching here,
  // so the estimate never adapts upward to accommodate a slowdown.
  if (cluster_->adaptive_ && cluster_->deadline_est_ != nullptr)
    cluster_->deadline_est_->record(
        c, std::chrono::duration<double, std::milli>(now - t_enter).count());
}

void Communicator::barrier() {
  AEQP_TRACE_SCOPE("comm/barrier");
  const auto t0 = enter_collective("barrier", {});
  cluster_->global_barrier_->arrive_and_wait(
      *cluster_, rank_, cluster_->effective_timeout(CollectiveClass::Barrier));
  leave_collective(CollectiveClass::Barrier, t0);
}

void Communicator::node_barrier() {
  AEQP_TRACE_SCOPE("comm/node_barrier");
  const auto t0 = enter_collective("node_barrier", {});
  cluster_->nodes_[node()].barrier->arrive_and_wait(
      *cluster_, rank_,
      cluster_->effective_timeout(CollectiveClass::NodeBarrier));
  leave_collective(CollectiveClass::NodeBarrier, t0);
}

template <typename Op>
void Communicator::staged_reduce(const char* span, const char* what,
                                 CollectiveClass c, std::span<double> data,
                                 std::size_t stride, double init, Op op) {
  AEQP_TRACE_SCOPE(span);
  const bool contributes = rank_ % stride == 0;
  const auto t0 =
      enter_collective(what, contributes ? data : std::span<double>{});
  const auto timeout = cluster_->effective_timeout(c);
  if (contributes) {
    // Information flow of the reduction: this rank's contribution reaches
    // every other contributor, whatever tree the transport would use.
    const std::uint64_t bytes = data.size() * sizeof(double);
    if (stride == 1) {
      obs::comm_record_all(what, static_cast<int>(rank_),
                           static_cast<int>(size()), bytes);
    } else if (obs::enabled()) {
      for (std::size_t dst = 0; dst < size(); dst += stride)
        if (dst != rank_)
          obs::comm_record(what, static_cast<int>(rank_),
                           static_cast<int>(dst), bytes);
    }
    {
      std::lock_guard<std::mutex> lock(cluster_->reduce_mutex_);
      if (cluster_->reduce_arrivals_ == 0) {
        cluster_->reduce_size_ = data.size();
        cluster_->reduce_first_rank_ = rank_;
      } else if (cluster_->reduce_size_ != data.size()) {
        AEQP_THROW(std::string(what) + ": element count mismatch: rank " +
                   std::to_string(cluster_->reduce_first_rank_) + " passed " +
                   std::to_string(cluster_->reduce_size_) + " elements, rank " +
                   std::to_string(rank_) + " passed " +
                   std::to_string(data.size()));
      }
      ++cluster_->reduce_arrivals_;
    }
    cluster_->reduce_slots_[rank_].assign(data.begin(), data.end());
  }
  Cluster::FtBarrier& barrier = *cluster_->global_barrier_;
  barrier.arrive_and_wait(*cluster_, rank_, timeout);
  if (contributes) {
    std::fill(data.begin(), data.end(), init);
    for (std::size_t r = 0; r < size(); r += stride) {
      const std::vector<double>& slot = cluster_->reduce_slots_[r];
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], slot[i]);
    }
  }
  barrier.arrive_and_wait(*cluster_, rank_, timeout);
  if (rank_ == 0) cluster_->reduce_arrivals_ = 0;
  barrier.arrive_and_wait(*cluster_, rank_, timeout);
  leave_collective(c, t0);
}

void Communicator::allreduce_sum(std::span<double> data) {
  staged_reduce("comm/allreduce_sum", "allreduce_sum",
                CollectiveClass::AllreduceSum, data, 1, 0.0, std::plus<>());
}

void Communicator::allreduce_max(std::span<double> data) {
  staged_reduce("comm/allreduce_max", "allreduce_max",
                CollectiveClass::AllreduceMax, data, 1,
                -std::numeric_limits<double>::infinity(),
                [](double a, double b) { return std::max(a, b); });
}

void Communicator::allreduce_sum_leaders(std::span<double> data) {
  staged_reduce("comm/allreduce_sum_leaders", "allreduce_sum_leaders",
                CollectiveClass::AllreduceSumLeaders, data,
                cluster_->ranks_per_node_, 0.0, std::plus<>());
}

void Communicator::broadcast(std::span<double> data, std::size_t root) {
  AEQP_TRACE_SCOPE("comm/broadcast");
  AEQP_CHECK(root < size(), "broadcast: root out of range");
  const auto t0 = enter_collective(
      "broadcast", rank_ == root ? data : std::span<double>{});
  const auto timeout = cluster_->effective_timeout(CollectiveClass::Broadcast);
  if (rank_ == root)
    obs::comm_record_all("broadcast", static_cast<int>(root),
                         static_cast<int>(size()),
                         data.size() * sizeof(double));
  if (rank_ == root)
    cluster_->bcast_buffer_.assign(data.begin(), data.end());
  cluster_->global_barrier_->arrive_and_wait(*cluster_, rank_, timeout);
  if (rank_ != root) {
    if (cluster_->bcast_buffer_.size() != data.size())
      AEQP_THROW("broadcast: element count mismatch: root rank " +
                 std::to_string(root) + " passed " +
                 std::to_string(cluster_->bcast_buffer_.size()) +
                 " elements, rank " + std::to_string(rank_) + " passed " +
                 std::to_string(data.size()));
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = cluster_->bcast_buffer_[i];
  }
  cluster_->global_barrier_->arrive_and_wait(*cluster_, rank_, timeout);
  leave_collective(CollectiveClass::Broadcast, t0);
}

std::span<double> Communicator::node_window(std::size_t size) {
  Cluster::NodeState& nd = cluster_->nodes_[node()];
  {
    std::lock_guard<std::mutex> lock(nd.mutex);
    if (nd.window_size != size) {
      nd.window.assign(size, 0.0);
      nd.window_size = size;
    }
  }
  node_barrier();
  return {nd.window.data(), nd.window.size()};
}

void Communicator::node_critical(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> lock(cluster_->nodes_[node()].mutex);
  fn();
}

}  // namespace aeqp::parallel
