#pragma once

/// \file fault.hpp
/// Deterministic fault injection for the simulated MPI runtime. A FaultPlan
/// is a set of FaultEvents addressed by (rank, collective sequence index);
/// the FaultInjector attached to a Cluster replays the plan during a run:
/// payload corruption (bit flips, NaN/Inf), rank stalls, rank kills, and
/// multiplicative rank slowdowns (stragglers).
///
/// Transient events (the default) fire at most once across the injector's
/// lifetime -- like a real transient fault -- so a recovery driver that
/// restores a checkpoint and retries sees a clean re-execution. Permanent
/// events (transient = false) model a dead or broken component: once they
/// fire the first time, they re-fire at *every* subsequent collective the
/// victim rank enters, so a retry at the same world size fails again and
/// only excluding the rank from the world (a survivor world without it)
/// silences the fault. Plans are either constructed explicitly or drawn from a seeded
/// RNG (FaultPlan::random), making every failure scenario reproducible
/// bit-for-bit at laptop scale.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace aeqp::parallel {

/// Kinds of faults the injector can produce at a collective call site.
enum class FaultKind {
  BitFlip,     ///< flip one bit of one payload element (silent corruption)
  NanPayload,  ///< overwrite one payload element with quiet NaN
  InfPayload,  ///< overwrite one payload element with +infinity
  Stall,       ///< delay the rank at `repeat` consecutive collectives
  Kill,        ///< terminate the rank (raises RankFailure on it)
  Slowdown,    ///< multiply the rank's compute time by `slow_factor`
};

/// Plant a corruption of `kind` (BitFlip, NanPayload or InfPayload) in
/// `payload[element % payload.size()]`: flip bit `bit` (0..63), or write a
/// quiet NaN or +infinity. `payload` must be non-empty. The one routine
/// both injectors corrupt with: this one at collectives, the compute-site
/// SdcInjector (resilience/sdc_inject.hpp) inside kernel outputs.
void corrupt_element(FaultKind kind, std::span<double> payload,
                     std::size_t element, int bit);

/// One planned fault. Corruption kinds fire at the first collective with a
/// non-empty payload at or after `collective`; Stall/Kill fire at the first
/// collective at or after `collective` regardless of payload.
struct FaultEvent {
  FaultKind kind = FaultKind::BitFlip;
  std::size_t rank = 0;        ///< rank the fault strikes (original world ids)
  std::size_t collective = 0;  ///< per-rank collective sequence index
  std::size_t element = 0;     ///< payload element (taken modulo size)
  int bit = 62;                ///< bit flipped by BitFlip (0..63)
  std::size_t stall_ms = 0;    ///< stall duration per collective
  std::size_t repeat = 1;      ///< consecutive collectives affected
                               ///< (Stall/Slowdown)
  /// Slowdown: the rank's compute phase takes slow_factor times as long.
  /// The injector measures the rank's real work since its previous
  /// collective and sleeps (slow_factor - 1) times that, so the delay
  /// scales with the actual workload instead of a fixed stall -- a
  /// thermally-throttled or contended node, not a hung one.
  double slow_factor = 1.0;
  /// Slowdown: multiplicative jitter in [0, 1). Each firing scales the
  /// delay by 1 + slow_jitter * u with u drawn deterministically in
  /// [-1, 1) from (rank, seq) -- an intermittently-slow node rather than a
  /// perfectly uniform one. 0 = persistent, jitter-free slowdown.
  double slow_jitter = 0.0;
  /// true: fire at most once (transient fault, clean replay on retry);
  /// Stall/Slowdown honour `repeat` consecutive firings first.
  /// false: once fired, re-fire at every later collective of the rank --
  /// a permanent Kill is a dead node that stays dead across retries, a
  /// permanent Slowdown a degraded node that stays slow until the ladder
  /// rebalances around it.
  bool transient = true;
};

/// An ordered set of fault events.
class FaultPlan {
public:
  FaultPlan() = default;

  /// Validates the event (bit in 0..63, repeat >= 1 for Stall) and appends
  /// it; throws aeqp::Error on out-of-range fields rather than letting a
  /// misaddressed plan silently misbehave mid-run. Rank-in-world validation
  /// happens at Cluster::set_fault_injector, where the world size is known.
  FaultPlan& add(const FaultEvent& event);

  /// Draw `n_events` payload-corruption events from a seeded RNG: rank in
  /// [0, n_ranks), collective index in [first_collective, last_collective),
  /// kind uniformly from `kinds` (default: all three corruption kinds),
  /// element uniform, bit uniform in [48, 64) so a flip is large enough to
  /// violate any sane health bound.
  /// `permanent_kills` additionally draws that many permanent Kill events
  /// on *distinct* ranks (capped at n_ranks - 1 so at least one rank
  /// survives), each at a collective index inside the same window.
  /// `slowdowns` additionally draws that many transient Slowdown events on
  /// ranks distinct from each other *and* from the permanent-kill victims
  /// (capped by the ranks remaining): factor `slow_factor`, jitter 0.3,
  /// repeat uniform in [2, 6] -- an intermittently slow node, not a dead
  /// one, so chaos soaks exercise the rebalance rung and the kill/shrink
  /// rung in the same run.
  static FaultPlan random(std::uint64_t seed, std::size_t n_events,
                          std::size_t n_ranks, std::size_t first_collective,
                          std::size_t last_collective,
                          std::vector<FaultKind> kinds = {
                              FaultKind::BitFlip, FaultKind::NanPayload,
                              FaultKind::InfPayload},
                          std::size_t permanent_kills = 0,
                          std::size_t slowdowns = 0,
                          double slow_factor = 4.0);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

private:
  std::vector<FaultEvent> events_;
};

/// Counters of what the injector actually did.
struct FaultInjectorStats {
  std::size_t corruptions = 0;
  std::size_t stalls = 0;
  std::size_t kills = 0;
  std::size_t slowdowns = 0;
  /// Total delay injected by Slowdown events (ms), summed over all ranks
  /// and collectives -- the walltime an experiment's straggler actually
  /// cost, for calibrating defense benchmarks against the injected harm.
  double slowdown_ms = 0.0;
  [[nodiscard]] std::size_t total() const {
    return corruptions + stalls + kills + slowdowns;
  }
};

/// Replays a FaultPlan against a running cluster. Thread-safe: collectives
/// on different ranks consult it concurrently. Attach with
/// Cluster::set_fault_injector; the injector must outlive the runs.
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan plan);

  /// Called by the runtime at every collective entry with the rank's
  /// in-transit payload. May mutate the payload (corruption), sleep
  /// (Stall/Slowdown; `cancelled` is polled so a failed cluster cuts the
  /// sleep short), or throw RankFailure (Kill). `rank` is the rank's id in
  /// the *running* world, `original_rank` its id in the original world --
  /// events always address original ids, so plans keep meaning the same
  /// physical ranks in a renumbered survivor world. `work_ms` is the CPU time spent on the rank's behalf
  /// since it left its previous collective (0 when unknown; its own thread
  /// plus the pool workers in its parallel regions) -- burned cycles, not
  /// the wall span, so co-scheduled peers on an oversubscribed host never
  /// inflate the delay; Slowdown events sleep (slow_factor - 1) * work_ms,
  /// scaled by the deterministic jitter.
  void on_collective(std::size_t rank, std::size_t original_rank,
                     std::size_t seq, const char* what,
                     std::span<double> payload,
                     const std::function<bool()>& cancelled,
                     double work_ms = 0.0);

  [[nodiscard]] FaultInjectorStats stats() const;

  /// Events that have never fired (a permanent event that fired at least
  /// once no longer counts as pending, even though it stays armed).
  [[nodiscard]] std::size_t pending() const;

  /// The plan as armed (fired state not included) -- lets the cluster
  /// validate that every event addresses a rank inside the world.
  [[nodiscard]] std::vector<FaultEvent> planned_events() const;

private:
  struct Armed {
    FaultEvent event;
    std::size_t fired = 0;  ///< times the event has fired so far
    bool done = false;      ///< transient event exhausted
  };
  mutable std::mutex mutex_;
  std::vector<Armed> events_;
  FaultInjectorStats stats_;
};

/// Register `injector`'s counters as an obs metrics source
/// ("<prefix>/corruptions", "<prefix>/stalls", "<prefix>/kills",
/// "<prefix>/slowdowns"). The injector must outlive the returned
/// registration.
[[nodiscard]] obs::ScopedMetricsSource register_metrics(
    const FaultInjector& injector, std::string prefix = "fault");

}  // namespace aeqp::parallel
