#include "resilience/membudget.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace aeqp::resilience {

void OomPlan::add(const OomEvent& event) {
  AEQP_CHECK(!event.site.empty(), "OomPlan: event site must be non-empty");
  events_.push_back(event);
}

bool OomInjector::should_fail(const char* site, std::size_t /*request_bytes*/) {
  // Every event due at this probe fires; the probe fails once.
  bool fail = false;
  replay_.probe(site, true, [&fail](const OomEvent&, OomInjectorStats& stats) {
    if (!fail) ++stats.failures_injected;
    fail = true;
  });
  return fail;
}

obs::ScopedMetricsSource register_metrics(const OomInjector& injector,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&injector, prefix = std::move(prefix)](
          std::vector<obs::MetricSample>& out) {
        const auto s = injector.stats();
        out.push_back({prefix + "/probes", static_cast<double>(s.probes)});
        out.push_back({prefix + "/failures_injected",
                       static_cast<double>(s.failures_injected)});
      });
}

// ---------------------------------------------------------------------------
// Pressure-relief reclaimer registry

namespace {

struct Reclaimer {
  std::string name;
  MemReclaimFn fn;
};

struct ReclaimerRegistry {
  std::mutex mutex;
  // Ordered by registration id so relief runs cheapest-registered-first
  // (the registration order is the shed order by contract).
  std::map<std::uint64_t, Reclaimer> entries;
  std::uint64_t next_id = 1;
};

ReclaimerRegistry& registry() {
  static ReclaimerRegistry r;
  return r;
}

}  // namespace

ScopedMemReclaimer::ScopedMemReclaimer(std::string name, MemReclaimFn fn)
    : id_(0) {
  AEQP_CHECK(static_cast<bool>(fn), "ScopedMemReclaimer: null reclaim fn");
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  id_ = r.next_id++;
  r.entries.emplace(id_, Reclaimer{std::move(name), std::move(fn)});
}

ScopedMemReclaimer::~ScopedMemReclaimer() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.entries.erase(id_);
}

std::int64_t relieve_pressure() {
  // Snapshot under the lock, run outside it: a reclaimer may itself take
  // subsystem locks (warm cache, buddy store) and must not hold the
  // registry hostage while it evicts.
  std::vector<std::pair<std::string, MemReclaimFn>> work;
  {
    auto& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    work.reserve(r.entries.size());
    for (const auto& [id, rec] : r.entries) work.emplace_back(rec.name, rec.fn);
  }
  const std::int64_t budget = mem_budget_bytes();
  const std::int64_t soft = budget > 0 ? budget * mem_soft_percent() / 100 : 0;
  std::int64_t freed = 0;
  for (const auto& [name, fn] : work) {
    // Stop early once back under the soft watermark; with no byte ceiling
    // armed (manual relieve_pressure call) run everything.
    if (budget > 0 && mem_in_use() <= soft) break;
    const std::int64_t bytes = fn();
    if (bytes <= 0) continue;
    freed += bytes;
    obs::trace_instant("membudget/relief");
    obs::counter("membudget/relief_bytes").add(static_cast<std::uint64_t>(bytes));
    obs::counter("membudget/relief_actions").increment();
  }
  return freed;
}

std::size_t registered_reclaimer_count() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.entries.size();
}

// ---------------------------------------------------------------------------
// Admission-time memory estimation

namespace {

/// One term of the per-rank peak-memory model, named by the memaudit gauge
/// it models.
struct MemTerm {
  double coeff_bytes;  ///< bytes at n_atoms == 1
  double exponent;     ///< fitted scaling exponent (BENCH_memory.json)
  bool per_rank;       ///< true: sharded, divide by ranks
};

// Coefficients seeded from the measured gauges the fig09a bench fits into
// BENCH_memory.json on the Light-tier test structures: the replicated
// response matrix and its fold for the Rho producer are O(N^2) and do NOT
// shrink with ranks; the per-rank point-eval cache shards with the grid;
// spline tables are replicated O(N) in distinct elements but bounded,
// modeled linear with a small coefficient; the packed allreduce staging
// window is a rank-count-independent constant.
constexpr MemTerm kMemTerms[] = {
    {2048.0, 2.0, false},                  // dfpt/p1_replicated
    {2048.0, 2.0, false},                  // dfpt/p1_fold
    {96.0 * 1024.0, 1.0, true},            // dfpt/point_cache
    {64.0 * 1024.0, 1.0, false},           // basis/spline_tables
    {4.0 * 1024.0 * 1024.0, 0.0, false},   // comm/packed_buffer
};

}  // namespace

std::int64_t estimate_job_memory(std::size_t n_atoms, std::size_t ranks) {
  AEQP_CHECK(ranks >= 1, "estimate_job_memory: ranks must be >= 1");
  double total = 0.0;
  for (const auto& t : kMemTerms) {
    double bytes = t.coeff_bytes * std::pow(static_cast<double>(n_atoms),
                                            t.exponent);
    if (t.per_rank) bytes /= static_cast<double>(ranks);
    total += bytes;
  }
  return static_cast<std::int64_t>(std::ceil(total));
}

}  // namespace aeqp::resilience
