#pragma once

/// \file cluster.hpp
/// simmpi: a simulated MPI runtime. Ranks are host threads; collectives are
/// executed for real (blocking semantics, actual data movement through
/// shared buffers), so every communication algorithm in src/comm can be
/// verified bit-for-bit at small scale. Node topology (ranks_per_node) maps
/// ranks onto "shared-memory nodes", exposing the MPI SHM-style windows the
/// paper's hierarchical scheme relies on (Sec. 3.2.2, ref [24]).
///
/// Fault tolerance: every collective carries a deadline. When a rank dies
/// (its rank function throws, or a planned Kill fault fires) the surviving
/// ranks are woken from their barriers and raise a structured RankFailure
/// instead of blocking forever; when a rank merely stalls past the deadline
/// the waiters raise CollectiveTimeout. A FaultInjector (see fault.hpp) can
/// be attached to corrupt payloads, stall ranks, or kill them at chosen
/// collectives, deterministically.
///
/// Elastic recovery (ULFM-style shrink): Cluster::shrink derives a smaller
/// cluster that excludes permanently failed ranks. Survivors are renumbered
/// densely, the collective timeout and the fault injector carry over, and
/// every rank keeps its *original* (pre-shrink chain) id, which fault plans
/// keep addressing -- so a permanent Kill planned for a dead rank can never
/// strike a renumbered survivor.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace aeqp::parallel {

class Cluster;
class FaultInjector;
class StragglerDetector;
class DeadlineEstimator;
enum class CollectiveClass : int;

/// Structured error raised on every surviving rank when a peer rank died
/// mid-collective (and on the dying rank itself when a Kill fault fires).
class RankFailure : public Error {
public:
  RankFailure(std::size_t failed_rank, std::size_t observer_rank,
              const std::string& what)
      : Error(what), failed_rank_(failed_rank), observer_rank_(observer_rank) {}
  /// Rank that died.
  [[nodiscard]] std::size_t failed_rank() const { return failed_rank_; }
  /// Rank on which this exception was raised.
  [[nodiscard]] std::size_t observer_rank() const { return observer_rank_; }

private:
  std::size_t failed_rank_;
  std::size_t observer_rank_;
};

/// Raised when a collective exceeds the cluster deadline (a rank stalled or
/// the collective schedule diverged) instead of deadlocking.
class CollectiveTimeout : public Error {
public:
  CollectiveTimeout(std::size_t observer_rank, const std::string& what)
      : Error(what), observer_rank_(observer_rank) {}
  [[nodiscard]] std::size_t observer_rank() const { return observer_rank_; }

private:
  std::size_t observer_rank_;
};

/// Raised by a payload-verified collective (Cluster::set_verify_payloads)
/// when a rank's in-transit contribution no longer matches the CRC-32 tag
/// computed when the rank entered the collective -- silent corruption
/// caught *at the reduction* instead of by eventual divergence. Names the
/// collective and the rank (both running and original-world ids) whose
/// payload was damaged.
class PayloadCorruption : public Error {
public:
  PayloadCorruption(std::size_t rank, std::size_t original_rank,
                    std::string collective, const std::string& what)
      : Error(what),
        rank_(rank),
        original_rank_(original_rank),
        collective_(std::move(collective)) {}
  /// Rank whose payload failed verification (running-world id).
  [[nodiscard]] std::size_t rank() const { return rank_; }
  /// The same rank's id in the original (pre-shrink) world.
  [[nodiscard]] std::size_t original_rank() const { return original_rank_; }
  /// Collective in which the corruption was caught, e.g. "allreduce_sum".
  [[nodiscard]] const std::string& collective() const { return collective_; }

private:
  std::size_t rank_;
  std::size_t original_rank_;
  std::string collective_;
};

/// Per-rank handle passed to the rank function; provides the collective
/// operations of the simulated MPI world.
class Communicator {
public:
  [[nodiscard]] std::size_t rank() const { return rank_; }
  /// Id of this rank in the original world before any shrink (equal to
  /// rank() on a never-shrunk cluster).
  [[nodiscard]] std::size_t original_rank() const;
  /// Original-world id of world rank `r`.
  [[nodiscard]] std::size_t original_rank_of(std::size_t r) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t node() const;       ///< node index of this rank
  [[nodiscard]] std::size_t node_rank() const;  ///< rank within the node
  [[nodiscard]] std::size_t node_size() const;  ///< ranks on this node
  [[nodiscard]] std::size_t node_count() const;

  /// Number of collectives this rank has entered so far -- the sequence
  /// axis fault plans are addressed against.
  [[nodiscard]] std::size_t collective_index() const { return seq_; }

  /// Global barrier across all ranks.
  void barrier();

  /// Barrier across the ranks of this node only.
  void node_barrier();

  /// In-place sum-AllReduce over all ranks; every rank must pass the same
  /// element count (mismatches raise aeqp::Error naming both ranks). The
  /// contributions are added in rank order (0 + d_0 + d_1 + ...), so the
  /// result is bit-identical from run to run whatever order the rank
  /// threads arrive in.
  void allreduce_sum(std::span<double> data);

  /// In-place elementwise max-AllReduce (used for global convergence
  /// criteria like max |delta n| across ranks), combined in rank order.
  void allreduce_max(std::span<double> data);

  /// In-place sum-AllReduce across node leaders (node_rank 0), added in
  /// rank order like allreduce_sum; other ranks wait at the enclosing
  /// barrier. `data` is ignored for non-leaders.
  void allreduce_sum_leaders(std::span<double> data);

  /// Broadcast from `root` to all ranks.
  void broadcast(std::span<double> data, std::size_t root);

  /// Node-shared buffer of `size` doubles (zero-initialized); all ranks of
  /// a node receive the same span. Collective over the node.
  std::span<double> node_window(std::size_t size);

  /// Serialize a critical section among the ranks of this node.
  void node_critical(const std::function<void()>& fn);

private:
  friend class Cluster;
  Communicator(Cluster& cluster, std::size_t rank)
      : cluster_(&cluster), rank_(rank) {}

  /// Common prologue of every collective: aborts immediately when the
  /// cluster already failed, then gives the fault injector (if any) a shot
  /// at this rank's payload. `payload` is this rank's in-transit
  /// contribution (empty for payload-less collectives and for ranks whose
  /// data the operation ignores). Returns the entry timestamp when timing
  /// is armed (straggler detector, adaptive deadlines, or an injector),
  /// a default-constructed time point otherwise -- the disabled path takes
  /// zero clock reads.
  std::chrono::steady_clock::time_point enter_collective(
      const char* what, std::span<double> payload);

  /// Common epilogue: stamps the work clock (the straggler ledger measures
  /// compute as time between a collective's completion and the next one's
  /// entry) and feeds the adaptive-deadline estimator with this rank's
  /// entry-to-completion duration. Only *completed* collectives record --
  /// a timed-out one throws before reaching here, so the learned deadline
  /// never chases a slowdown upward.
  void leave_collective(CollectiveClass c,
                        std::chrono::steady_clock::time_point t_enter);

  /// Stage this rank's contribution to a reduction in its own slot
  /// (checking the element count against the first arrival).
  void stage(const char* what, std::span<const double> data);
  /// data = op(...op(op(init, slot[0]), slot[stride])...) in rank order;
  /// call after the barrier that follows every contributor's stage().
  template <typename Op>
  void combine_staged(std::span<double> data, std::size_t stride, double init,
                      Op op) const;

  Cluster* cluster_;
  std::size_t rank_;
  std::size_t seq_ = 0;
  std::chrono::steady_clock::time_point last_leave_{};
  /// This rank thread's consumed CPU time at the last collective's
  /// completion. The Slowdown fault scales the CPU time the rank itself
  /// burned -- not the wall span, which on an oversubscribed host also
  /// contains co-scheduled peers' compute and would over-punish the victim.
  double last_leave_cpu_ms_ = 0.0;
  bool last_leave_valid_ = false;
};

/// Simulated cluster: spawns one thread per rank and runs the given rank
/// function to completion. Exceptions in rank functions are captured, the
/// remaining ranks are released from their collectives with RankFailure,
/// and run() rethrows the root cause.
class Cluster {
public:
  Cluster(std::size_t n_ranks, std::size_t ranks_per_node);

  /// World whose rank r carries original-world id `origin[r]` (used by
  /// shrink() and by elastic solver re-entry at a reduced world size).
  /// `origin` must be empty (identity) or hold n_ranks unique ids.
  Cluster(std::size_t n_ranks, std::size_t ranks_per_node,
          std::vector<std::size_t> origin);

  [[nodiscard]] std::size_t size() const { return n_ranks_; }
  [[nodiscard]] std::size_t ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] std::size_t node_count() const;

  /// Original-world id of world rank r (identity on a never-shrunk world).
  [[nodiscard]] std::size_t original_rank(std::size_t r) const {
    return origin_[r];
  }
  [[nodiscard]] const std::vector<std::size_t>& original_ranks() const {
    return origin_;
  }

  /// ULFM `shrink` analogue: derive a sub-cluster that excludes
  /// `failed_ranks` (ids in THIS cluster's numbering). Survivors are
  /// renumbered densely in rank order; the collective timeout and the
  /// attached fault injector carry over, and the origin map is composed so
  /// fault events keep addressing original-world ids. The straggler
  /// detector carries over with dropped ranks retired (retain), and the
  /// adaptive-deadline armed state carries with a FRESH estimator: latency
  /// structure learned on the old world must not time out the new one.
  /// Throws when no rank survives or a failed id is out of range.
  [[nodiscard]] std::unique_ptr<Cluster> shrink(
      const std::vector<std::size_t>& failed_ranks) const;

  /// Deadline for any single collective. Survivors raise CollectiveTimeout
  /// when it passes without completion. Default: 120 s (generous enough for
  /// legitimate compute imbalance at laptop scale).
  void set_collective_timeout(std::chrono::milliseconds timeout) {
    collective_timeout_ = timeout;
  }
  [[nodiscard]] std::chrono::milliseconds collective_timeout() const {
    return collective_timeout_;
  }

  /// Attach a fault injector consulted at every collective entry. The
  /// injector must outlive the cluster runs it is attached to. On a full
  /// (never-shrunk) world every planned event's rank must be inside the
  /// world -- an out-of-range rank is a plan bug and raises aeqp::Error
  /// here rather than silently never firing. Subworlds (built by shrink()
  /// or constructed with an explicit origin map) skip the check: plans
  /// legitimately address dead original ranks.
  void set_fault_injector(FaultInjector* injector);

  /// Verify collective payloads end-to-end: each rank's contribution is
  /// CRC-32-tagged on collective entry and re-checked immediately before
  /// the reduction consumes it; a mismatch raises PayloadCorruption naming
  /// the collective and the original rank. Off by default (one branch per
  /// collective when off).
  void set_verify_payloads(bool on) { verify_payloads_ = on; }
  [[nodiscard]] bool verify_payloads() const { return verify_payloads_; }

  /// Attach a straggler detector: every collective entry records how much
  /// work (wall time since this rank left its previous collective) the
  /// rank arrived with, keyed by ORIGINAL rank id so classifications
  /// survive shrink renumberings. The detector must outlive the runs; it
  /// must cover every original id this world can produce. nullptr
  /// detaches. Observe-only: the collective schedule and all numerics are
  /// bit-identical with and without a detector.
  void set_straggler_detector(StragglerDetector* detector);
  [[nodiscard]] StragglerDetector* straggler_detector() const {
    return straggler_;
  }

  /// Arm (or disarm) adaptive per-collective-class deadlines. When armed,
  /// each collective's deadline is the DeadlineEstimator's rolling
  /// median + k*MAD estimate for its class, clamped by the estimator's
  /// floor/ceiling and never above collective_timeout() (so a service
  /// deadline clamp still wins). `floor_ms` > 0 overrides the estimator's
  /// default floor (tests and benches trade the spurious-timeout margin
  /// for detection latency explicitly; production keeps the safe default).
  /// Constructors arm automatically when AEQP_ADAPTIVE_TIMEOUT is on.
  void set_adaptive_deadlines(bool on, double floor_ms = 0.0);
  [[nodiscard]] bool adaptive_deadlines() const { return adaptive_; }

  /// The live estimator (created lazily when adaptive deadlines arm);
  /// nullptr while disarmed. Exposed so tests and the recovery driver can
  /// inspect the learned deadlines.
  [[nodiscard]] DeadlineEstimator* deadline_estimator() const {
    return deadline_est_.get();
  }

  /// Deadline a collective of class `c` runs under right now: the fixed
  /// collective_timeout() when adaptive deadlines are off, the estimator's
  /// clamped estimate when on.
  [[nodiscard]] std::chrono::milliseconds effective_timeout(
      CollectiveClass c) const;

  /// Execute fn on every rank concurrently; blocks until all finish.
  /// Rethrows the root-cause exception (the first failure, preferring the
  /// originating error over the secondary RankFailures it triggers).
  void run(const std::function<void(Communicator&)>& fn);

  /// Like run(), but returns the per-rank outcome instead of throwing: one
  /// exception_ptr per rank, null where the rank finished cleanly. Lets the
  /// caller assert that *every* surviving rank observed a structured error.
  std::vector<std::exception_ptr> run_collect(
      const std::function<void(Communicator&)>& fn);

private:
  friend class Communicator;

  /// Condition-variable barrier with a deadline and failure wake-up (a
  /// std::barrier cannot be interrupted, which is exactly the deadlock the
  /// fault model has to avoid).
  struct FtBarrier {
    explicit FtBarrier(std::size_t count) : count(count) {}
    void arrive_and_wait(Cluster& cluster, std::size_t rank,
                         std::chrono::milliseconds timeout);
    void wake();
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t count;
    std::size_t arrived = 0;
    std::uint64_t generation = 0;
  };

  struct NodeState {
    std::unique_ptr<FtBarrier> barrier;
    std::mutex mutex;
    std::vector<double> window;
    std::size_t window_size = 0;
  };

  /// Record the first failure (rank + human-readable cause + originating
  /// exception) and wake every barrier so no rank stays blocked.
  void fail(std::size_t rank, const std::string& what, std::exception_ptr cause,
            bool is_timeout);
  [[nodiscard]] bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Raise the structured error matching the recorded failure on `observer`.
  [[noreturn]] void throw_failure(std::size_t observer) const;

  std::size_t n_ranks_;
  std::size_t ranks_per_node_;
  std::vector<std::size_t> origin_;  ///< original-world id per rank
  bool subworld_ = false;  ///< built by shrink() or with an explicit origin
  std::chrono::milliseconds collective_timeout_{120000};
  FaultInjector* injector_ = nullptr;
  bool verify_payloads_ = false;
  StragglerDetector* straggler_ = nullptr;
  std::shared_ptr<DeadlineEstimator> deadline_est_;
  bool adaptive_ = false;

  /// Whether any consumer of the collective timing hooks is attached (the
  /// one branch the disabled path pays; no clock is read when false).
  [[nodiscard]] bool timing_armed() const {
    return straggler_ != nullptr || injector_ != nullptr ||
           (adaptive_ && deadline_est_ != nullptr);
  }

  std::unique_ptr<FtBarrier> global_barrier_;
  std::mutex reduce_mutex_;
  /// Per-rank staged reduction contributions, combined in rank order.
  std::vector<std::vector<double>> reduce_slots_;
  std::size_t reduce_size_ = 0;        ///< element count of the pending reduction
  std::size_t reduce_arrivals_ = 0;
  std::size_t reduce_first_rank_ = 0;  ///< rank that sized the reduction
  std::vector<double> bcast_buffer_;
  std::vector<NodeState> nodes_;

  // Failure state: set once by the first failing rank, read by everyone.
  std::atomic<bool> failed_{false};
  mutable std::mutex fail_mutex_;
  std::size_t failed_rank_ = 0;
  std::string fail_what_;
  bool fail_is_timeout_ = false;
  std::exception_ptr first_error_;
};

}  // namespace aeqp::parallel
