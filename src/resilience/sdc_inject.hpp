#pragma once

/// \file sdc_inject.hpp
/// Deterministic compute-site fault injection: silent data corruption
/// planted *inside* kernel outputs -- matmul results, density batch
/// accumulations, rho_multipole spline tables -- rather than at the
/// collective layer (that half lives in parallel/fault). An SdcPlan is a
/// set of SdcEvents addressed by (site name, invocation index at that
/// site); the SdcInjector installed as the process-wide CorruptionHook
/// replays the plan when instrumented kernels probe their freshly written
/// outputs. The API deliberately mirrors parallel::FaultPlan (add/random,
/// transient vs permanent, stats/pending) so fault scenarios compose across
/// both layers from one seeded description.
///
/// The probe is engineered like AEQP_TRACE's off-mode: with no hook
/// installed, AEQP_SDC_PROBE costs one relaxed atomic load -- production
/// runs pay nothing for the instrumentation. The hook indirection is
/// header-only (inline atomic + virtual dispatch) so probes compiled into
/// linalg/poisson/core never need link-time symbols from the resilience
/// archive, which sits *above* them in the module graph.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_ident.hpp"
#include "parallel/fault.hpp"  // FaultKind only: the probe stays link-free

namespace aeqp::resilience {

/// Mutates (or not) a kernel output that just probed itself. Implementations
/// must be thread-safe: parallel kernels probe concurrently.
class CorruptionHook {
public:
  virtual ~CorruptionHook() = default;
  /// `site` is a static string naming the compute site (e.g.
  /// "linalg/matmul", "cpscf/rho_batch"); `data` is the site's freshly
  /// written output, mutable in place.
  virtual void corrupt(const char* site, std::span<double> data) = 0;
};

namespace detail {
inline std::atomic<CorruptionHook*> g_corruption_hook{nullptr};
}  // namespace detail

/// Install (or with nullptr, remove) the process-wide corruption hook.
/// The hook must outlive all probes that may observe it.
inline void install_corruption_hook(CorruptionHook* hook) {
  detail::g_corruption_hook.store(hook, std::memory_order_release);
}

/// Probe a compute site: give the installed hook (if any) a chance to
/// corrupt `data` in place. One relaxed-ish atomic load when no hook is
/// installed -- matching the AEQP_TRACE zero-cost contract.
inline void sdc_probe(const char* site, std::span<double> data) {
  CorruptionHook* hook =
      detail::g_corruption_hook.load(std::memory_order_acquire);
  if (hook != nullptr) hook->corrupt(site, data);
}

/// One planned compute-site corruption. Fires at the `invocation`-th probe
/// of `site` (per-site counter, starting at 0), optionally filtered to one
/// simmpi rank via `rank` (original world ids; -1 = any thread).
struct SdcEvent {
  /// BitFlip, NanPayload or InfPayload (parallel::corrupt_element plants
  /// it); SdcPlan::add rejects the rank-level kinds.
  parallel::FaultKind kind = parallel::FaultKind::BitFlip;
  std::string site = "linalg/matmul";  ///< probe site the event targets
  std::size_t invocation = 0;  ///< which probe of the site (per-site index)
  std::size_t element = 0;     ///< output element (taken modulo size)
  int bit = 62;                ///< bit flipped by BitFlip (0..63)
  int rank = -1;               ///< thread's simmpi rank filter (-1 = any)
  /// true: fire at most once (transient upset, clean replay on retry).
  /// false: re-fire at every later matching probe -- a persistently bad
  /// compute unit that only avoiding the site silences.
  bool transient = true;
};

/// An ordered set of compute-site corruption events.
class SdcPlan {
public:
  SdcPlan() = default;

  /// Validates the event (a corruption kind, site non-empty, bit in 0..63)
  /// and appends it; throws aeqp::Error on out-of-range fields.
  SdcPlan& add(const SdcEvent& event);

  /// Draw `n_events` events from a seeded RNG: site uniform from `sites`
  /// (must be non-empty), invocation uniform in [0, max_invocation), kind
  /// uniform from the three corruption kinds, element uniform in [0, 64),
  /// bit uniform in [48, 64) so the corruption dwarfs any checksum
  /// tolerance. Reproducible bit-for-bit for a given seed.
  static SdcPlan random(std::uint64_t seed, std::size_t n_events,
                        const std::vector<std::string>& sites,
                        std::size_t max_invocation);

  [[nodiscard]] const std::vector<SdcEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

private:
  std::vector<SdcEvent> events_;
};

/// Counters of what the compute-site injector actually did.
struct SdcInjectorStats {
  std::size_t corruptions = 0;   ///< events fired (all kinds)
  std::size_t bit_flips = 0;
  std::size_t nans_planted = 0;
  std::size_t infs_planted = 0;
  std::size_t probes = 0;        ///< total probes observed
};

/// One plan replay for the site-addressed injectors (SdcInjector here,
/// OomInjector in membudget.hpp): the armed events, the per-site invocation
/// counters, the rank filter and the transient/permanent rule. `Event`
/// carries `site`, `invocation`, `rank` and `transient`; `Stats` counts
/// `probes` beside whatever the injector's effect adds. Thread-safe: probes
/// from concurrent rank threads serialize on one mutex.
template <class Event, class Stats>
class SiteReplay {
public:
  explicit SiteReplay(const std::vector<Event>& events) {
    for (const Event& e : events) armed_.push_back(Armed{e});
  }

  /// Count one probe of `site` and hand every event due at it to
  /// `fire(event, stats)`, under the lock. An event is due at its planned
  /// invocation of the site on its rank (thread_rank(); -1 = any thread);
  /// a fired transient event is spent, while a fired permanent one strikes
  /// every later probe of its site, like a stuck compute unit or a heap
  /// that stays full. `can_fire` false (an empty payload) counts the
  /// invocation and fires nothing.
  template <class Fire>
  void probe(const char* site, bool can_fire, Fire&& fire) {
    const int rank = thread_rank();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.probes;
    const std::size_t invocation = invocations_[site]++;
    if (!can_fire) return;
    for (Armed& armed : armed_) {
      const Event& e = armed.event;
      if (e.site != site || (e.rank >= 0 && e.rank != rank)) continue;
      if (armed.fired > 0 ? e.transient : invocation != e.invocation) continue;
      fire(e, stats_);
      ++armed.fired;
    }
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Events that have never fired (a permanent event that fired at least
  /// once no longer counts as pending, even though it stays armed).
  [[nodiscard]] std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Armed& armed : armed_) n += armed.fired == 0 ? 1 : 0;
    return n;
  }

  /// Probes seen so far at `site` (for addressing follow-up plans
  /// deterministically).
  [[nodiscard]] std::size_t invocations(const std::string& site) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = invocations_.find(site);
    return it == invocations_.end() ? 0 : it->second;
  }

private:
  struct Armed {
    Event event;
    std::size_t fired = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Armed> armed_;
  std::unordered_map<std::string, std::size_t> invocations_;
  Stats stats_;
};

/// Replays an SdcPlan against instrumented kernels: every due event
/// corrupts one element of the probing kernel's output. Thread-safe;
/// install with install_corruption_hook (or the ScopedSdcInjector RAII
/// wrapper) and keep alive until the hook is removed.
class SdcInjector final : public CorruptionHook {
public:
  explicit SdcInjector(const SdcPlan& plan) : replay_(plan.events()) {}

  void corrupt(const char* site, std::span<double> data) override;

  [[nodiscard]] SdcInjectorStats stats() const { return replay_.stats(); }
  [[nodiscard]] std::size_t pending() const { return replay_.pending(); }
  [[nodiscard]] std::size_t invocations(const std::string& site) const {
    return replay_.invocations(site);
  }

private:
  SiteReplay<SdcEvent, SdcInjectorStats> replay_;
};

/// RAII installation of an injector as the process-wide corruption hook.
class ScopedSdcInjector {
public:
  explicit ScopedSdcInjector(SdcInjector& injector) {
    install_corruption_hook(&injector);
  }
  ~ScopedSdcInjector() { install_corruption_hook(nullptr); }
  ScopedSdcInjector(const ScopedSdcInjector&) = delete;
  ScopedSdcInjector& operator=(const ScopedSdcInjector&) = delete;
};

}  // namespace aeqp::resilience
