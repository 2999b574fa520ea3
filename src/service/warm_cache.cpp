#include "service/warm_cache.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "obs/memaudit.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/membudget.hpp"

namespace aeqp::service {

namespace {

/// Resident bytes of a cached ground-state entry: the dense matrices and
/// vectors of the ScfResult plus the grid-sampled density. The tabulation
/// machinery behind the result (splines, Lebedev tables) is shared state
/// not owned by the cache slot, so it is not charged here.
std::int64_t ground_entry_bytes(const scf::ScfResult& r) {
  const auto mat = [](const linalg::Matrix& m) {
    return static_cast<std::int64_t>(m.rows() * m.cols() * sizeof(double));
  };
  const auto vec = [](const linalg::Vector& v) {
    return static_cast<std::int64_t>(v.size() * sizeof(double));
  };
  return mat(r.coefficients) + mat(r.density_matrix) + mat(r.overlap) +
         mat(r.hamiltonian) + vec(r.eigenvalues) + vec(r.occupations) +
         static_cast<std::int64_t>(r.density_samples.capacity() *
                                   sizeof(double));
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
}

void fnv_i64(std::uint64_t& h, std::int64_t v) { fnv(h, &v, sizeof(v)); }

void fnv_f64(std::uint64_t& h, double v) {
  // Hash the bit pattern; normalize -0.0 so it hashes like +0.0.
  if (v == 0.0) v = 0.0;
  fnv(h, &v, sizeof(v));
}

std::int64_t quantize(double x, double quantum) {
  return static_cast<std::int64_t>(std::llround(x / quantum));
}

/// Best-effort admission: under an armed memory budget that is already
/// past its soft watermark, a cache insert is skipped rather than risking
/// pushing the rank over the hard limit for state that is merely an
/// optimization. Skipping never fails the job -- the solve result is
/// already computed; only future warm starts are foregone.
bool over_budget_pressure() {
  return resilience::mem_budget_enabled() &&
         resilience::mem_pressure().over_soft;
}

}  // namespace

std::uint64_t structure_hash(const grid::Structure& structure, double quantum) {
  AEQP_CHECK(quantum > 0.0, "structure_hash: quantum must be positive");
  std::uint64_t h = kFnvOffset;
  fnv_i64(h, static_cast<std::int64_t>(structure.size()));
  for (const auto& atom : structure.atoms()) {
    fnv_i64(h, atom.z);
    fnv_i64(h, quantize(atom.pos.x, quantum));
    fnv_i64(h, quantize(atom.pos.y, quantum));
    fnv_i64(h, quantize(atom.pos.z, quantum));
  }
  return h;
}

std::uint64_t scf_options_hash(const scf::ScfOptions& options) {
  std::uint64_t h = kFnvOffset ^ 0x5343464f50545321ull;  // tier marker
  fnv_i64(h, static_cast<std::int64_t>(options.tier));
  fnv_f64(h, options.r_cut);
  fnv_i64(h, static_cast<std::int64_t>(options.grid.radial_points));
  fnv_f64(h, options.grid.r_min);
  fnv_f64(h, options.grid.r_max);
  fnv_i64(h, static_cast<std::int64_t>(options.grid.angular_degree));
  fnv_i64(h, options.grid.becke_weights ? 1 : 0);
  fnv_f64(h, options.grid.weight_cutoff);
  fnv_i64(h, options.poisson.l_max);
  fnv_i64(h, static_cast<std::int64_t>(options.poisson.radial_points));
  fnv_f64(h, options.poisson.r_min);
  fnv_f64(h, options.poisson.r_max);
  fnv_i64(h, options.max_iterations);
  fnv_f64(h, options.density_tolerance);
  fnv_f64(h, options.mixing);
  fnv_i64(h, static_cast<std::int64_t>(options.mixer));
  fnv_f64(h, options.smearing_sigma);
  fnv_f64(h, options.external_field.x);
  fnv_f64(h, options.external_field.y);
  fnv_f64(h, options.external_field.z);
  return h;
}

WarmCache::WarmCache(WarmCacheOptions options) : options_(options) {}

void WarmCache::track(std::int64_t delta) {
  owned_bytes_ += delta;
  obs::mem_track("service/warm_cache", delta);
}

std::shared_ptr<const scf::ScfResult> WarmCache::find_ground(
    std::uint64_t key) {
  const std::lock_guard<std::mutex> lk(mutex_);
  const auto it = ground_.find(key);
  if (it == ground_.end()) {
    ++stats_.ground_misses;
    return nullptr;
  }
  ground_lru_.splice(ground_lru_.begin(), ground_lru_, it->second);
  ++stats_.ground_hits;
  obs::trace_instant("service/cache_ground_hit");
  return it->second->ground;
}

void WarmCache::put_ground(std::uint64_t key,
                           std::shared_ptr<const scf::ScfResult> ground) {
  AEQP_CHECK(ground != nullptr, "WarmCache: null ground-state entry");
  const std::lock_guard<std::mutex> lk(mutex_);
  if (options_.ground_capacity == 0) return;
  if (over_budget_pressure()) {
    ++stats_.budget_skips;
    obs::trace_instant("service/cache_budget_skip");
    return;
  }
  if (const auto it = ground_.find(key); it != ground_.end()) {
    track(ground_entry_bytes(*ground) -
          ground_entry_bytes(*it->second->ground));
    it->second->ground = std::move(ground);
    ground_lru_.splice(ground_lru_.begin(), ground_lru_, it->second);
    return;
  }
  track(ground_entry_bytes(*ground));
  ground_lru_.push_front({key, std::move(ground)});
  ground_.emplace(key, ground_lru_.begin());
  while (ground_lru_.size() > options_.ground_capacity) {
    track(-ground_entry_bytes(*ground_lru_.back().ground));
    ground_.erase(ground_lru_.back().key);
    ground_lru_.pop_back();
    ++stats_.evictions;
  }
}

std::optional<scf::ScfWarmStart> WarmCache::find_density(std::uint64_t key) {
  const std::lock_guard<std::mutex> lk(mutex_);
  const auto it = density_.find(key);
  if (it == density_.end()) {
    ++stats_.density_misses;
    return std::nullopt;
  }
  try {
    resilience::ScfCheckpoint ckpt = resilience::deserialize_scf(
        it->second->framed, "warm-cache density entry");
    density_lru_.splice(density_lru_.begin(), density_lru_, it->second);
    ++stats_.density_hits;
    obs::trace_instant("service/cache_density_hit");
    scf::ScfWarmStart ws;
    ws.iteration = ckpt.iteration;
    ws.density_matrix = std::move(ckpt.density_matrix);
    return ws;
  } catch (const Error&) {
    // Corruption-safe invalidation: a poisoned entry is dropped and the
    // caller recomputes -- it is never served, and it never kills the job.
    track(-static_cast<std::int64_t>(it->second->framed.size()));
    density_lru_.erase(it->second);
    density_.erase(it);
    ++stats_.poisoned_dropped;
    ++stats_.density_misses;
    obs::trace_instant("service/cache_poisoned_drop");
    return std::nullopt;
  }
}

void WarmCache::put_density(std::uint64_t key,
                            const linalg::Matrix& density_matrix) {
  resilience::ScfCheckpoint ckpt;
  // Iteration 1: a warm start resumes *somewhere* sensible, and the SCF
  // trajectory re-converges from the seeded density regardless.
  ckpt.iteration = 1;
  ckpt.density_matrix = density_matrix;
  std::vector<unsigned char> framed = resilience::serialize(ckpt);
  const std::lock_guard<std::mutex> lk(mutex_);
  if (options_.density_capacity == 0) return;
  if (over_budget_pressure()) {
    ++stats_.budget_skips;
    obs::trace_instant("service/cache_budget_skip");
    return;
  }
  if (const auto it = density_.find(key); it != density_.end()) {
    track(static_cast<std::int64_t>(framed.size()) -
          static_cast<std::int64_t>(it->second->framed.size()));
    it->second->framed = std::move(framed);
    density_lru_.splice(density_lru_.begin(), density_lru_, it->second);
    return;
  }
  track(static_cast<std::int64_t>(framed.size()));
  density_lru_.push_front({key, std::move(framed)});
  density_.emplace(key, density_lru_.begin());
  while (density_lru_.size() > options_.density_capacity) {
    track(-static_cast<std::int64_t>(density_lru_.back().framed.size()));
    density_.erase(density_lru_.back().key);
    density_lru_.pop_back();
    ++stats_.evictions;
  }
}

WarmCacheStats WarmCache::stats() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

std::size_t WarmCache::ground_size() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return ground_lru_.size();
}

std::size_t WarmCache::density_size() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return density_lru_.size();
}

std::int64_t WarmCache::clear() {
  const std::lock_guard<std::mutex> lk(mutex_);
  const std::int64_t freed = owned_bytes_;
  if (freed != 0) track(-freed);
  ground_.clear();
  ground_lru_.clear();
  density_.clear();
  density_lru_.clear();
  if (freed > 0) obs::trace_instant("service/cache_clear");
  return freed;
}

std::int64_t WarmCache::owned_bytes() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return owned_bytes_;
}

bool WarmCache::corrupt_density_for_test(std::uint64_t key) {
  const std::lock_guard<std::mutex> lk(mutex_);
  const auto it = density_.find(key);
  if (it == density_.end()) return false;
  std::vector<unsigned char>& bytes = it->second->framed;
  if (bytes.empty()) return false;
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit mid-blob
  return true;
}

obs::ScopedMetricsSource register_metrics(const WarmCache& cache,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&cache, prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const WarmCacheStats s = cache.stats();
        const auto push = [&](const char* name, double v) {
          out.push_back({prefix + "/" + name, v});
        };
        push("ground_hits", static_cast<double>(s.ground_hits));
        push("ground_misses", static_cast<double>(s.ground_misses));
        push("density_hits", static_cast<double>(s.density_hits));
        push("density_misses", static_cast<double>(s.density_misses));
        push("evictions", static_cast<double>(s.evictions));
        push("poisoned_dropped", static_cast<double>(s.poisoned_dropped));
        push("budget_skips", static_cast<double>(s.budget_skips));
        push("ground_entries", static_cast<double>(cache.ground_size()));
        push("density_entries", static_cast<double>(cache.density_size()));
        push("owned_bytes", static_cast<double>(cache.owned_bytes()));
      });
}

}  // namespace aeqp::service
