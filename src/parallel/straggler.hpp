#pragma once

/// \file straggler.hpp
/// Straggler tolerance for the simulated MPI runtime: slowness as a
/// first-class, observable, recoverable fault (the paper's 200k-atom runs
/// die to performance *variability* before they die to hard faults -- one
/// slow node stalls every bulk-synchronous collective).
///
/// Two cooperating pieces, both observe-only on the solver's numerics:
///
///   - DeadlineEstimator: a rolling robust estimate (median + k*MAD) of
///     how long each collective *class* takes, fed by the runtime at every
///     collective completion. Cluster::effective_timeout() consults it when
///     adaptive deadlines are armed for a run
///     (ParallelDfptOptions::adaptive_deadlines, or
///     Cluster::set_adaptive_deadlines), replacing the fixed 120 s
///     collective_timeout_ with a deadline a few robust deviations above
///     typical -- so a merely-slow rank is *detected* in seconds instead of
///     dragging the machine for two minutes. Floor/ceiling clamps bound the
///     estimate, and the caller-provided fallback (the fixed timeout, which
///     the service deadline clamp already min's) always wins when smaller.
///     Only *completed* collectives feed the estimator: a timed-out
///     collective never teaches it to wait longer, so the learned deadline
///     cannot chase a slowdown upward.
///
///   - StragglerDetector: a per-rank arrival-lag ledger. The hot path is
///     two relaxed accumulates per collective (the memaudit discipline);
///     classification happens off the hot path, after each of the CPSCF's
///     packed flushes: a rank whose accumulated work-window total
///     stays beyond median + k*MAD (and beyond min_relative x median) of
///     its peers for `degrade_after` consecutive windows is classified
///     degraded, with hysteresis back to healthy. The measured speed
///     weights drive mapping::rebalance_for_slow_ranks -- the recovery
///     ladder's rebalance rung that fires *before* shrink.
///
/// Disabled (no detector attached, adaptive off) the runtime takes zero
/// clock reads and the collective schedule is bit-identical to the
/// un-instrumented baseline.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace aeqp::parallel {

/// Collective classes with distinct latency profiles: each learns its own
/// deadline (a barrier completes in microseconds; a packed allreduce of a
/// full response-Hamiltonian window does not).
enum class CollectiveClass : int {
  Barrier = 0,
  NodeBarrier,
  AllreduceSum,
  AllreduceMax,
  AllreduceSumLeaders,
  Broadcast,
};
inline constexpr std::size_t kCollectiveClassCount = 6;

/// Rolling per-class robust deadline estimator. All recording paths are
/// lock-free (relaxed ring stores); the median + MAD recomputation runs
/// under a mutex every `recompute_every` records and publishes the result
/// through one cached atomic per class, so deadline() on the hot path is a
/// single relaxed load plus clamping.
class DeadlineEstimator {
public:
  struct Options {
    std::size_t window = 64;       ///< ring capacity per class (and global)
    double mad_k = 8.0;            ///< deadline = median + mad_k * MAD
    std::size_t min_samples = 8;   ///< below this a class defers to global
    double floor_ms = 2000.0;      ///< never time out faster than this
    double ceiling_ms = 600000.0;  ///< never wait longer than this
    std::size_t recompute_every = 8;  ///< records between cache refreshes
  };

  DeadlineEstimator() : DeadlineEstimator(Options()) {}
  explicit DeadlineEstimator(Options options);
  DeadlineEstimator(const DeadlineEstimator&) = delete;
  DeadlineEstimator& operator=(const DeadlineEstimator&) = delete;

  /// Record one completed collective of class `c` that took `ms`
  /// milliseconds from entry to completion on some rank. Thread-safe,
  /// multi-writer (every rank records).
  void record(CollectiveClass c, double ms);

  /// Effective deadline for class `c`: clamp(median + k*MAD, floor,
  /// ceiling), never above `fallback` (the fixed collective timeout --
  /// which a service deadline clamp may already have shrunk, and the
  /// smaller bound must win). With fewer than min_samples class samples the
  /// all-classes estimate is used; with no samples at all, `fallback`.
  [[nodiscard]] std::chrono::milliseconds deadline(
      CollectiveClass c, std::chrono::milliseconds fallback) const;

  /// Samples recorded for one class (saturates at the ring window for the
  /// estimate itself; this count keeps growing).
  [[nodiscard]] std::size_t sample_count(CollectiveClass c) const;
  [[nodiscard]] std::size_t total_samples() const;

  /// Drop all history (a survivor world renumbers the ranks; latency
  /// structure learned on the old world must not leak into the new one).
  void reset();

private:
  struct ClassRing {
    std::vector<std::atomic<double>> slots;
    std::atomic<std::size_t> n{0};
    std::atomic<double> cached_deadline_ms{0.0};  ///< 0 = not yet computed
  };

  void recompute(ClassRing& ring) const;

  Options options_;
  mutable std::mutex recompute_mutex_;
  std::vector<ClassRing> rings_;  ///< kCollectiveClassCount + 1 (global last)
};

/// Counters of what the detector decided (monotonic over its lifetime).
struct StragglerStats {
  std::size_t samples = 0;         ///< work samples recorded
  std::size_t windows = 0;         ///< classification windows evaluated
  std::size_t degrade_events = 0;  ///< healthy -> degraded transitions
  std::size_t recover_events = 0;  ///< degraded -> healthy transitions
};

/// One rank's row in the arrival-lag ledger, for tests.
struct StragglerRankSnapshot {
  std::size_t original_rank = 0;
  std::size_t samples = 0;        ///< work samples recorded so far
  double last_window_ms = 0.0;    ///< work total of the last classified window
  double weight = 1.0;            ///< measured speed weight (healthy = 1)
  bool degraded = false;
  bool active = true;             ///< false once retain() dropped the rank
};

/// Per-rank arrival-lag ledger + degraded-rank classifier. Ranks are
/// addressed by ORIGINAL world id (stable across survivor-world
/// renumberings, like fault plans). record_work is the hot path; classify
/// runs after each packed flush of the CPSCF (the lead rank, H and Rho)
/// and on the recovery driver's timeout catch path.
class StragglerDetector {
public:
  struct Options {
    double mad_k = 4.0;           ///< degraded beyond median + mad_k * MAD
    double min_relative = 2.0;    ///< ... and beyond min_relative * median
    int degrade_after = 2;        ///< consecutive over-windows to degrade
    int recover_after = 2;        ///< consecutive clean windows to recover
    double min_window_ms = 10.0;  ///< a window with a smaller median stays open
    double weight_floor = 1.0 / 16.0;  ///< slowest speed weight handed out
  };

  explicit StragglerDetector(std::size_t n_ranks)
      : StragglerDetector(n_ranks, Options()) {}
  StragglerDetector(std::size_t n_ranks, Options options);
  StragglerDetector(const StragglerDetector&) = delete;
  StragglerDetector& operator=(const StragglerDetector&) = delete;

  [[nodiscard]] std::size_t rank_count() const { return ranks_.size(); }

  /// Hot path: record `work_ms` of compute the rank did since it left its
  /// previous collective (injected slowdown included -- that is the point).
  /// Two relaxed accumulates; safe from all rank threads concurrently (one
  /// writer per rank).
  void record_work(std::size_t original_rank, double work_ms);

  /// Close the current window and reclassify every active rank: snapshot +
  /// reset the per-rank work accumulators, compute the cross-rank median
  /// and MAD, advance the hysteresis counters. A window whose median is
  /// under min_window_ms stays open (its work carries into the next call).
  /// Returns true when any rank's classification changed. Called by the
  /// CPSCF's lead rank after each packed flush (core/cpscf.cpp) and after a
  /// collective timeout; NOT from the hot path.
  bool classify();

  /// Original ids of currently degraded ranks, ascending.
  [[nodiscard]] std::vector<std::size_t> degraded_ranks() const;
  [[nodiscard]] bool any_degraded() const {
    return n_degraded_.load(std::memory_order_relaxed) != 0;
  }

  /// Measured per-rank speed weights (original-id indexed, size
  /// rank_count): healthy ranks weigh 1.0; a degraded rank weighs
  /// median_window / its_window, clamped to [weight_floor, 1] -- an 8x
  /// slower rank gets ~1/8 of the load under
  /// mapping::rebalance_for_slow_ranks.
  [[nodiscard]] std::vector<double> speed_weights() const;

  /// Keep only `survivor_original_ids` active after a shrink: dropped
  /// ranks lose their classification (a dead rank must never pin a stale
  /// "degraded" verdict) and stop counting toward the cross-rank median.
  void retain(const std::vector<std::size_t>& survivor_original_ids);

  [[nodiscard]] StragglerStats stats() const;
  [[nodiscard]] std::vector<StragglerRankSnapshot> snapshot() const;

private:
  struct RankState {
    std::atomic<double> window_ms{0.0};        ///< accumulating window total
    std::atomic<std::size_t> window_samples{0};
    // Classification state, written only under classify_mutex_.
    double last_window_ms = 0.0;
    double weight = 1.0;
    int over_streak = 0;
    int under_streak = 0;
    bool degraded = false;
    bool active = true;
    std::size_t samples_total = 0;
  };

  Options options_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  mutable std::mutex classify_mutex_;
  std::atomic<std::size_t> n_degraded_{0};
  StragglerStats stats_;
};

}  // namespace aeqp::parallel
