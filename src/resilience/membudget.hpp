#pragma once

/// \file membudget.hpp
/// Per-rank memory-budget governor: turns memory exhaustion into a
/// first-class, injectable, recoverable fault (ROADMAP item 3's "enforced
/// per-rank memory ceiling"). Owners of large allocations probe before
/// committing:
///
///   resilience::oom_probe("dfpt/point_cache", bytes_about_to_allocate);
///
/// With no budget armed the probe is exactly one relaxed atomic load --
/// the same idle contract as sdc_probe and memaudit_enabled, asserted
/// bit-for-bit in test_membudget and nanosecond-measured in
/// bench_membudget. Armed (AEQP_MEM_BUDGET=512M, set_mem_budget(), or an
/// installed OomHook), the probe consults the live memaudit gauges: if
/// admitting the request would cross the hard ceiling it throws the
/// structured OutOfMemoryBudget from common/error.hpp instead of letting
/// the allocation die later as an unrecoverable std::bad_alloc. The
/// RecoveryDriver catches it like any other fault class and walks the
/// pressure-relief ladder (docs/resilience.md "Memory budget"): drop the
/// point-eval cache, run registered reclaimers (warm-cache eviction, buddy
/// spill to disk), shrink the pack window and grid batch through the tune
/// knobs -- and the service escalates to ReducedAccuracy rather than
/// aborting.
///
/// Arming the budget also arms the memory audit (the gauges are the
/// governor's only data source); memaudit-on is proven bit-identical in
/// test_obs, so enforcement never perturbs numerics -- it only decides
/// whether an allocation may proceed.
///
/// The soft watermark (default 80% of the budget, AEQP_MEM_SOFT_PCT) never
/// throws: RecoveryDriver observers poll mem_pressure() between CPSCF
/// iterations and call relieve_pressure() to shed reclaimable state before
/// the hard ceiling is ever reached.
///
/// OomPlan/OomInjector replay a plan with SdcInjector's SiteReplay:
/// deterministic allocation-failure injection addressed by (site,
/// invocation, rank) so tests and the chaos bench can force the bad_alloc
/// paths without actually exhausting memory.
///
/// Header-only probe machinery by design: oom_probe sites live in core and
/// comm, which do not link the resilience archive -- exactly like
/// sdc_inject.hpp's probe. The injector, reclaimer registry, and admission
/// estimator live in membudget.cpp (linked by resilience and service).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/sdc_inject.hpp"

namespace aeqp::resilience {

/// Pluggable allocation-failure decision hook (OomInjector is the shipped
/// implementation). Called on the armed slow path only; must be
/// thread-safe (probes fire concurrently from rank threads).
class OomHook {
public:
  virtual ~OomHook() = default;
  /// Return true to fail this allocation: the probe throws
  /// OutOfMemoryBudget at `site` as if the hard ceiling were breached.
  virtual bool should_fail(const char* site, std::size_t request_bytes) = 0;
};

namespace membudget_detail {

/// -1 = not yet initialized from AEQP_MEM_BUDGET, 0 = idle (probes cost
/// one relaxed load and return), 1 = armed (budget set and/or hook
/// installed). A single tri-state atomic so the idle fast path is exactly
/// one load -- budget bytes, soft percent, and the hook pointer live in
/// separate atomics consulted only when armed.
inline std::atomic<int> g_state{-1};
/// Hard ceiling in bytes; <= 0 = no ceiling (injector may still be armed).
inline std::atomic<std::int64_t> g_budget_bytes{0};
/// Soft watermark as a percent of the budget (1..100).
inline std::atomic<int> g_soft_percent{80};
inline std::atomic<OomHook*> g_hook{nullptr};

/// Parse "536870912", "512M", "8G", "64K" (suffix case-insensitive,
/// optional trailing 'B' / "iB"). Returns -1 on malformed input so a typo
/// in AEQP_MEM_BUDGET disarms instead of silently enforcing 0.
[[nodiscard]] inline std::int64_t parse_mem_bytes(const char* text) {
  if (text == nullptr || *text == '\0') return -1;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || value < 0.0) return -1;
  std::int64_t scale = 1;
  if (*end != '\0') {
    switch (std::toupper(static_cast<unsigned char>(*end))) {
      case 'K': scale = std::int64_t{1} << 10; ++end; break;
      case 'M': scale = std::int64_t{1} << 20; ++end; break;
      case 'G': scale = std::int64_t{1} << 30; ++end; break;
      case 'T': scale = std::int64_t{1} << 40; ++end; break;
      default: return -1;
    }
    if (std::toupper(static_cast<unsigned char>(*end)) == 'I') ++end;
    if (std::toupper(static_cast<unsigned char>(*end)) == 'B') ++end;
    if (*end != '\0') return -1;
  }
  return static_cast<std::int64_t>(value * static_cast<double>(scale));
}

/// First-use initialization from AEQP_MEM_BUDGET (and AEQP_MEM_SOFT_PCT).
/// compare_exchange so exactly one initializer wins under concurrent first
/// probes. Returns the armed verdict.
inline bool init_from_env() {
  std::int64_t budget = 0;
  if (const char* env = std::getenv("AEQP_MEM_BUDGET")) {
    const std::int64_t parsed = parse_mem_bytes(env);
    if (parsed > 0) budget = parsed;
  }
  if (const char* env = std::getenv("AEQP_MEM_SOFT_PCT")) {
    const long pct = std::strtol(env, nullptr, 10);
    if (pct >= 1 && pct <= 100)
      g_soft_percent.store(static_cast<int>(pct), std::memory_order_relaxed);
  }
  int expected = -1;
  if (g_state.compare_exchange_strong(expected, budget > 0 ? 1 : 0,
                                      std::memory_order_relaxed)) {
    if (budget > 0) {
      g_budget_bytes.store(budget, std::memory_order_relaxed);
      obs::set_memaudit(true);  // gauges are the governor's data source
    }
    return budget > 0;
  }
  return expected != 0;  // someone else initialized first
}

}  // namespace membudget_detail

/// Total live bytes across every registered memaudit gauge: the governor's
/// definition of "in use". Zero when the audit is off (no gauges armed).
[[nodiscard]] inline std::int64_t mem_in_use() {
  std::int64_t total = 0;
  for (const auto& g : obs::mem_snapshot()) total += g.current_bytes;
  return total;
}

/// The hard ceiling in bytes (0 = none armed). Forces env init.
[[nodiscard]] inline std::int64_t mem_budget_bytes() {
  if (membudget_detail::g_state.load(std::memory_order_relaxed) < 0)
    membudget_detail::init_from_env();
  return std::max<std::int64_t>(
      membudget_detail::g_budget_bytes.load(std::memory_order_relaxed), 0);
}

/// Whether a byte ceiling is in force (an injector-only arming returns
/// false: it fails chosen sites but admits everything else).
[[nodiscard]] inline bool mem_budget_enabled() { return mem_budget_bytes() > 0; }

/// Programmatic budget override (tests, benches, service config); 0 clears
/// the ceiling. Arms the memory audit when enabling, mirrors what first-use
/// env init does. Takes effect immediately.
inline void set_mem_budget(std::int64_t bytes) {
  namespace d = membudget_detail;
  if (d::g_state.load(std::memory_order_relaxed) < 0) d::init_from_env();
  d::g_budget_bytes.store(bytes > 0 ? bytes : 0, std::memory_order_relaxed);
  if (bytes > 0) obs::set_memaudit(true);
  const bool armed =
      bytes > 0 || d::g_hook.load(std::memory_order_acquire) != nullptr;
  d::g_state.store(armed ? 1 : 0, std::memory_order_relaxed);
}

/// Soft watermark as a percent of the hard ceiling (clamped to 1..100).
inline void set_mem_soft_percent(int percent) {
  membudget_detail::g_soft_percent.store(std::clamp(percent, 1, 100),
                                         std::memory_order_relaxed);
}
[[nodiscard]] inline int mem_soft_percent() {
  return membudget_detail::g_soft_percent.load(std::memory_order_relaxed);
}

/// Live pressure snapshot for observers: budget/soft thresholds and the
/// gauge total, with `over_soft` precomputed. All zeros / false when no
/// byte ceiling is armed.
struct MemPressure {
  std::int64_t budget_bytes = 0;
  std::int64_t soft_bytes = 0;
  std::int64_t in_use_bytes = 0;
  bool over_soft = false;
};

[[nodiscard]] inline MemPressure mem_pressure() {
  MemPressure p;
  p.budget_bytes = mem_budget_bytes();
  if (p.budget_bytes <= 0) return p;
  p.soft_bytes = p.budget_bytes * mem_soft_percent() / 100;
  p.in_use_bytes = mem_in_use();
  p.over_soft = p.in_use_bytes > p.soft_bytes;
  return p;
}

/// Install (or with nullptr remove) the allocation-failure hook. Installing
/// arms the probes even without a byte budget. The hook must outlive its
/// installation; prefer ScopedOomInjector.
inline void install_oom_hook(OomHook* hook) {
  namespace d = membudget_detail;
  if (d::g_state.load(std::memory_order_relaxed) < 0) d::init_from_env();
  d::g_hook.store(hook, std::memory_order_release);
  const bool armed =
      hook != nullptr || d::g_budget_bytes.load(std::memory_order_relaxed) > 0;
  d::g_state.store(armed ? 1 : 0, std::memory_order_relaxed);
}

namespace membudget_detail {

/// Armed slow path, out of line from the probe so the idle path inlines to
/// a load+branch. Consults the hook first (injected failures fire even
/// under no byte ceiling), then the gauge total against the hard ceiling.
inline void probe_armed(const char* site, std::size_t request_bytes) {
  if (OomHook* hook = g_hook.load(std::memory_order_acquire)) {
    if (hook->should_fail(site, request_bytes)) {
      obs::trace_instant("membudget/oom_injected");
      obs::counter("membudget/oom_throws").add(1);
      throw OutOfMemoryBudget(
          site, request_bytes,
          static_cast<std::size_t>(
              std::max<std::int64_t>(g_budget_bytes.load(std::memory_order_relaxed), 0)),
          static_cast<std::size_t>(std::max<std::int64_t>(mem_in_use(), 0)));
    }
  }
  const std::int64_t budget = g_budget_bytes.load(std::memory_order_relaxed);
  if (budget <= 0) return;
  const std::int64_t in_use = mem_in_use();
  if (in_use + static_cast<std::int64_t>(request_bytes) > budget) {
    obs::trace_instant("membudget/oom_hard");
    obs::counter("membudget/oom_throws").add(1);
    throw OutOfMemoryBudget(site, request_bytes,
                            static_cast<std::size_t>(budget),
                            static_cast<std::size_t>(std::max<std::int64_t>(in_use, 0)));
  }
}

}  // namespace membudget_detail

/// The governor probe: call before committing a large allocation with the
/// byte count about to be requested (request_bytes == 0 re-checks already
/// committed usage against the ceiling). Idle cost: one relaxed atomic
/// load. Armed: may throw OutOfMemoryBudget -- never returns a verdict, so
/// a passing probe perturbs nothing and the bit-identity contract holds.
inline void oom_probe(const char* site, std::size_t request_bytes) {
  const int s = membudget_detail::g_state.load(std::memory_order_relaxed);
  if (s == 0) return;
  if (s < 0 && !membudget_detail::init_from_env()) return;
  membudget_detail::probe_armed(site, request_bytes);
}

// ---------------------------------------------------------------------------
// Deterministic allocation-failure injection (SdcInjector's SiteReplay)

/// One planned allocation failure, addressed by (site, invocation, rank).
struct OomEvent {
  std::string site = "dfpt/point_cache";  ///< probe site to fail
  std::size_t invocation = 0;  ///< fail the (n+1)-th probe at that site
  int rank = -1;               ///< rank filter via thread_rank(); -1 = any
  bool transient = true;       ///< false = fail every matching probe
};

/// A validated list of planned failures (empty plan = benign hook).
class OomPlan {
public:
  void add(const OomEvent& event);
  [[nodiscard]] const std::vector<OomEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

private:
  std::vector<OomEvent> events_;
};

struct OomInjectorStats {
  std::size_t probes = 0;             ///< armed probes consulted
  std::size_t failures_injected = 0;  ///< probes forced to throw
};

/// Deterministic OomHook: replays an OomPlan over the probes (SiteReplay,
/// the same replay as SdcInjector's) and fails a probe when any event is
/// due at it. Thread-safe; install via ScopedOomInjector.
class OomInjector final : public OomHook {
public:
  explicit OomInjector(const OomPlan& plan) : replay_(plan.events()) {}

  bool should_fail(const char* site, std::size_t request_bytes) override;

  [[nodiscard]] OomInjectorStats stats() const { return replay_.stats(); }
  /// Planned failures that have not fired yet.
  [[nodiscard]] std::size_t pending() const { return replay_.pending(); }
  /// How many probes have been seen at `site` so far.
  [[nodiscard]] std::size_t invocations(const std::string& site) const {
    return replay_.invocations(site);
  }

private:
  SiteReplay<OomEvent, OomInjectorStats> replay_;
};

/// RAII installation: arms the probes on construction, restores the idle
/// state on destruction even if the test body throws.
class ScopedOomInjector {
public:
  explicit ScopedOomInjector(OomInjector& injector) {
    install_oom_hook(&injector);
  }
  ~ScopedOomInjector() { install_oom_hook(nullptr); }
  ScopedOomInjector(const ScopedOomInjector&) = delete;
  ScopedOomInjector& operator=(const ScopedOomInjector&) = delete;
};

/// Fold injector stats into the metrics registry under `prefix`; keep the
/// returned registration alive as long as the injector.
[[nodiscard]] obs::ScopedMetricsSource register_metrics(
    const OomInjector& injector, std::string prefix = "membudget/inject");

// ---------------------------------------------------------------------------
// Pressure-relief reclaimer registry

/// A registered shedder of reclaimable state; returns bytes freed. Must be
/// callable from any thread (observers run on rank 0 while peers compute).
using MemReclaimFn = std::function<std::int64_t()>;

/// RAII registration of a reclaimer in the process-wide relief registry
/// (the SolveServer registers its WarmCache, run_elastic its buddy spill).
/// relieve_pressure() runs reclaimers in registration order.
class ScopedMemReclaimer {
public:
  ScopedMemReclaimer(std::string name, MemReclaimFn fn);
  ~ScopedMemReclaimer();
  ScopedMemReclaimer(const ScopedMemReclaimer&) = delete;
  ScopedMemReclaimer& operator=(const ScopedMemReclaimer&) = delete;

private:
  std::uint64_t id_;
};

/// Run registered reclaimers in order until the gauge total drops under
/// the soft watermark (all of them when no byte ceiling is armed). Every
/// action emits a trace instant and bumps "membudget/relief_bytes".
/// Returns total bytes freed.
std::int64_t relieve_pressure();

/// Number of live reclaimers (tests).
[[nodiscard]] std::size_t registered_reclaimer_count();

// ---------------------------------------------------------------------------
// Admission-time memory estimation (service layer)

/// Predicted per-rank peak bytes for a job of `n_atoms` on `ranks` ranks:
/// a sum of fitted terms coeff_bytes * n_atoms ^ exponent, one per memaudit
/// gauge, seeded from the scaling exponents the fig09a bench publishes.
/// Sharded terms divide by the rank count; replicated ones (p1) do not --
/// which is exactly why the service's ReducedRanks rung must re-check the
/// estimate: halving ranks doubles every sharded term.
[[nodiscard]] std::int64_t estimate_job_memory(std::size_t n_atoms,
                                               std::size_t ranks);

}  // namespace aeqp::resilience
