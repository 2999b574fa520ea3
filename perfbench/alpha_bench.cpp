// alpha_bench: geometry-to-polarizability benchmark driver.
//
//   alpha_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --reference <file>
//
// One operation is one full alpha solve: ScfSolver::run followed by the
// three CPSCF field directions, with the settings of example_aeqp_run
// (light tier, 40 radial shells, Lebedev degree 9, 80 Poisson shells,
// default ScfOptions/DfptOptions). The seed rigidly rotates the geometry;
// the library only ever sees the rotated structure.
//
// --trace 0 times untraced solves and prints the end-to-end metrics.
// --trace 1 runs traced solves (summary mode) and prints the per-layer
// metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. perfbench/README.md maps
// every metric to its layer and workload.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "exec/thread_pool.hpp"
#include "grid/molecular_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poisson/multipole.hpp"
#include "scf/integrator.hpp"
#include "scf/scf_solver.hpp"
#include "tune/tune.hpp"

namespace {

using namespace aeqp;
using Tensor = std::array<std::array<double, 3>, 3>;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  const char* molecule;  // key into the reference file
  bool ranks;            // CPSCF through solve_direction_parallel
  bool all_threads;      // pool of nproc threads (else one thread)
};

// h2-* are the self-check's one-second twins of the real workloads.
constexpr Workload kWorkloads[] = {
    {"ch4-serial", "ch4", false, false},
    {"chain14-threads", "chain14", false, true},
    {"ch4-ranks", "ch4", true, false},
    {"h2-serial", "h2", false, false},
    {"h2-ranks", "h2", true, false},
};

grid::Structure molecule(const std::string& key) {
  if (key == "ch4") return core::methane();
  if (key == "chain14") return core::polyethylene_chain(2);
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

// Seed 0 is the canonical orientation; any other seed draws a uniform random
// rotation (Shoemake quaternion from a splitmix64 stream) about the
// centroid. Rotation moves atoms against the fixed Lebedev directions, so
// screening, partition and batch patterns change while alpha_iso stays
// within grid accuracy.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

grid::Structure rotated(const grid::Structure& s, std::uint64_t seed) {
  if (seed == 0) return s;
  std::uint64_t state = seed;
  const auto uniform = [&] {
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  };
  const double u1 = uniform(), u2 = uniform(), u3 = uniform();
  const double two_pi = 2.0 * std::numbers::pi;
  const double a = std::sqrt(1.0 - u1) * std::sin(two_pi * u2);
  const double b = std::sqrt(1.0 - u1) * std::cos(two_pi * u2);
  const double c = std::sqrt(u1) * std::sin(two_pi * u3);
  const double w = std::sqrt(u1) * std::cos(two_pi * u3);
  const double r[3][3] = {
      {1 - 2 * (b * b + c * c), 2 * (a * b - c * w), 2 * (a * c + b * w)},
      {2 * (a * b + c * w), 1 - 2 * (a * a + c * c), 2 * (b * c - a * w)},
      {2 * (a * c - b * w), 2 * (b * c + a * w), 1 - 2 * (a * a + b * b)}};
  const Vec3 center = s.centroid();
  grid::Structure out;
  for (const auto& atom : s.atoms()) {
    const Vec3 d = atom.pos - center;
    Vec3 p = center;
    for (int i = 0; i < 3; ++i)
      p[i] += r[i][0] * d.x + r[i][1] * d.y + r[i][2] * d.z;
    out.add_atom(atom.z, p);
  }
  return out;
}

scf::ScfOptions cli_options() {
  scf::ScfOptions opt;  // the example_aeqp_run settings
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 80;
  return opt;
}

// The CPUs this process may run on; their count is `nproc`.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  AEQP_CHECK(sched_getaffinity(0, sizeof(set), &set) == 0, "sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

// Restrict the calling thread (and the threads it creates) to `cpus`.
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  AEQP_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0, "sched_setaffinity failed");
}

// ---------------------------------------------------------------------------
// Reference alpha (committed per molecule) and the correctness gate

struct Reference {
  Tensor alpha{};
  double iso_tolerance = 0.0;  // relative, any seed
};

Reference load_reference(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  AEQP_CHECK(in.good(), "cannot open reference file '" + path + "'");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    Reference ref;
    fields >> name >> ref.iso_tolerance;
    for (auto& row : ref.alpha)
      for (double& v : row) fields >> v;
    AEQP_CHECK(!fields.fail(), "malformed reference line: " + line);
    if (name == key) return ref;
  }
  AEQP_THROW("no reference for '" + key + "' in '" + path + "'");
}

double iso(const Tensor& t) { return (t[0][0] + t[1][1] + t[2][2]) / 3.0; }

double max_abs(const Tensor& t) {
  double m = 0.0;
  for (const auto& row : t)
    for (double v : row) m = std::max(m, std::fabs(v));
  return m;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  double m = 0.0;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) m = std::max(m, std::fabs(a[i][j] - b[i][j]));
  return m;
}


// ---------------------------------------------------------------------------
// Timing and process probes

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Wall seconds of f(), inside a benchmark-owned span (a no-op untraced).
template <typename F>
double timed(const char* span, F&& f) {
  const obs::TraceScope scope(span);
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  AEQP_THROW("VmHWM missing from /proc/self/status");
}

// CPU time the hypervisor gave to other guests while this VM's vCPUs were
// runnable, summed over vCPUs (/proc/stat "steal", USER_HZ ticks). Printed
// per solve so a slow solve can be told apart from a slow host.
double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  return stat ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

struct Usage {
  double cpu_s = 0.0;
  long nivcsw = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) { return tv.tv_sec + 1e-6 * tv.tv_usec; };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nivcsw};
}

// ---------------------------------------------------------------------------
// Geometry-only setup: the constructors ScfSolver::run calls before its
// first iteration.

struct SetupTimes {
  double basis = 0.0, grid = 0.0, integrator = 0.0, poisson = 0.0;
  [[nodiscard]] double total() const { return basis + grid + integrator + poisson; }
};

double g_sink = 0.0;  // keeps setup results observable

SetupTimes run_setup(const grid::Structure& mol, const scf::ScfOptions& opt) {
  SetupTimes t;
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  std::optional<poisson::HartreeSolver> hartree;
  t.basis = timed("bench/setup_basis", [&] {
    basis = std::make_shared<const basis::BasisSet>(mol, opt.tier, opt.r_cut);
  });
  t.grid = timed("bench/setup_grid", [&] {
    grid = std::make_shared<const grid::MolecularGrid>(
        grid::MolecularGrid::build(mol, opt.grid));
  });
  t.integrator = timed("bench/setup_integrator", [&] {
    const scf::BatchIntegrator integ(basis, grid);
    g_sink += integ.overlap()(0, 0) + integ.kinetic()(0, 0) +
              integ.external_potential()(0, 0);
  });
  t.poisson = timed("bench/setup_poisson",
                    [&] { hartree.emplace(mol, opt.poisson); });
  return t;
}

// ---------------------------------------------------------------------------
// One alpha solve

struct Config {
  grid::Structure mol;
  scf::ScfOptions opt;
  std::vector<int> cpus;           // allowed CPUs
  std::size_t threads = 1;         // pool threads
  std::size_t ranks = 0;           // 0 = serial CPSCF
  std::size_t ranks_per_node = 0;
};

struct Solve {
  bool scf_converged = false;
  bool cpscf_converged = true;
  int scf_iters = 0;
  std::array<int, 3> dir_iters{};
  double scf_s = 0.0, cpscf_s = 0.0;
  double init_s = 0.0;             // DfptSolver construction (serial only)
  std::array<double, 3> dir_s{};   // per-direction calls
  double hwm_scf_mb = 0.0, hwm_cpscf_mb = 0.0;  // VmHWM after each phase
  double steal_s = 0.0;                          // host steal during the solve
  Tensor alpha{}, alpha_trace{};
  double max_points_share = 0.0;  // ranks only
  [[nodiscard]] int cpscf_iters() const {
    return dir_iters[0] + dir_iters[1] + dir_iters[2];
  }
};

void record_direction(Solve& s, int j, const core::DfptDirectionResult& d) {
  s.cpscf_converged = s.cpscf_converged && d.converged;
  s.dir_iters[static_cast<std::size_t>(j)] = d.iterations;
  for (int i = 0; i < 3; ++i) {
    s.alpha[i][j] = d.dipole_response[i];
    s.alpha_trace[i][j] = d.dipole_response_trace[i];
  }
}

// `serial` forces the DfptSolver path (the ranks workload's reference).
Solve solve_alpha(const Config& cfg, bool serial,
                  std::optional<scf::ScfResult>* keep_ground = nullptr) {
  Solve s;
  const double steal0 = host_steal_s();
  scf::ScfResult ground;
  s.scf_s = timed("bench/scf", [&] { ground = scf::ScfSolver(cfg.mol, cfg.opt).run(); });
  s.scf_converged = ground.converged;
  s.scf_iters = ground.iterations;
  s.hwm_scf_mb = vm_hwm_mb();
  if (!ground.converged) return s;
  const double t0 = now_s();
  if (cfg.ranks == 0 || serial) {
    std::optional<core::DfptSolver> dfpt;
    s.init_s = timed("bench/cpscf_init",
                     [&] { dfpt.emplace(ground, core::DfptOptions{}); });
    for (int j = 0; j < 3; ++j) {
      core::DfptDirectionResult d;
      s.dir_s[static_cast<std::size_t>(j)] =
          timed("bench/cpscf_direction", [&] { d = dfpt->solve_direction(j); });
      record_direction(s, j, d);
    }
  } else {
    set_affinity(cfg.cpus);  // rank threads inherit the mask: let them spread
    core::ParallelDfptOptions popt;
    popt.ranks = cfg.ranks;
    popt.ranks_per_node = cfg.ranks_per_node;
    for (int j = 0; j < 3; ++j) {
      core::ParallelDfptResult r;
      s.dir_s[static_cast<std::size_t>(j)] = timed(
          "bench/cpscf_direction",
          [&] { r = core::solve_direction_parallel(ground, popt, j); });
      record_direction(s, j, r.direction);
      s.max_points_share = std::max(s.max_points_share, r.stats.max_rank_points_share);
    }
  }
  s.cpscf_s = now_s() - t0;
  s.hwm_cpscf_mb = vm_hwm_mb();
  s.steal_s = host_steal_s() - steal0;
  if (keep_ground != nullptr) *keep_ground = std::move(ground);
  return s;
}

// The correctness gate. One failed check fails the operation.
struct Gate {
  Reference ref;
  std::uint64_t seed = 0;
  std::optional<Solve> serial_twin;  // ranks: serial solve of the same geometry

  [[nodiscard]] std::string check(const Solve& s) const {
    std::ostringstream why;
    if (!s.scf_converged) return "SCF did not converge";
    if (!s.cpscf_converged) return "a CPSCF direction did not converge";
    const double scale = max_abs(ref.alpha);
    if (seed == 0 && max_abs_diff(s.alpha, ref.alpha) > 1e-6 * scale)
      why << "alpha differs from the seed-0 reference by "
          << max_abs_diff(s.alpha, ref.alpha) << "; ";
    const double ref_iso = iso(ref.alpha);
    if (std::fabs(iso(s.alpha) - ref_iso) > ref.iso_tolerance * std::fabs(ref_iso))
      why << "alpha_iso " << iso(s.alpha) << " outside " << ref_iso << " +- "
          << ref.iso_tolerance * 100 << "%; ";
    if (max_abs_diff(s.alpha, s.alpha_trace) > 1e-8 * max_abs(s.alpha))
      why << "grid-moment and Tr(P1 D) alpha differ by "
          << max_abs_diff(s.alpha, s.alpha_trace) << "; ";
    if (serial_twin) {
      if (max_abs_diff(s.alpha, serial_twin->alpha) > 1e-7)
        why << "distributed alpha differs from serial by "
            << max_abs_diff(s.alpha, serial_twin->alpha) << "; ";
      if (s.dir_iters != serial_twin->dir_iters)
        why << "distributed CPSCF iterations differ from serial; ";
    }
    return why.str();
  }
};

struct Tally {
  int attempted = 0;
  int failed = 0;
};

// Run one alpha solve as a counted operation; nullopt when it failed.
std::optional<Solve> operation(const Config& cfg, const Gate& gate, Tally& tally,
                               bool serial = false,
                               std::optional<scf::ScfResult>* keep_ground = nullptr) {
  ++tally.attempted;
  std::string why;
  std::optional<Solve> s;
  try {
    s = solve_alpha(cfg, serial, keep_ground);
    why = gate.check(*s);
  } catch (const std::exception& e) {
    why = std::string("threw: ") + e.what();
  }
  if (s)
    std::printf("# solve %d%s: alpha_iso %.10f, scf %d iters %.3f s, cpscf %d/%d/%d "
                "iters %.3f s, host steal %.2f s\n",
                tally.attempted, serial ? " (serial twin)" : "", iso(s->alpha),
                s->scf_iters, s->scf_s, s->dir_iters[0], s->dir_iters[1], s->dir_iters[2],
                s->cpscf_s, s->steal_s);
  if (!why.empty()) {
    ++tally.failed;
    std::printf("# solve %d FAILED: %s\n", tally.attempted, why.c_str());
    if (s) {
      std::printf("# alpha:");
      for (const auto& row : s->alpha)
        for (double v : row) std::printf(" %.17g", v);
      std::printf("\n");
    }
    return std::nullopt;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += (tally.failed == 0 && tally.attempted > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// Trace analysis: inclusive and self time per span name. Ranked lanes (simmpi
// rank threads) contribute their slowest rank; host lanes their sum.

struct SpanTimes {
  double host = 0.0;
  std::map<int, double> per_rank;
  [[nodiscard]] double value() const {
    double m = 0.0;
    for (const auto& [rank, sec] : per_rank) m = std::max(m, sec);
    return host + m;
  }
  [[nodiscard]] double skew() const {
    if (per_rank.empty()) return 0.0;
    double lo = per_rank.begin()->second, hi = lo;
    for (const auto& [rank, sec] : per_rank) {
      lo = std::min(lo, sec);
      hi = std::max(hi, sec);
    }
    return hi - lo;
  }
};

struct SpanStats {
  std::size_t count = 0;
  SpanTimes inclusive, self;
};

class TraceView {
public:
  TraceView() {
    // Spans arrive ordered by (lane, begin), so a span's parent is the most
    // recent span of the same lane one level up.
    const auto spans = obs::completed_spans();
    std::vector<double> child_us(spans.size(), 0.0);
    std::map<std::pair<std::size_t, int>, std::size_t> last_at;  // (lane, depth)
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const auto& s = spans[k];
      if (s.depth > 0) {
        const auto parent = last_at.find({s.thread_index, s.depth - 1});
        if (parent != last_at.end()) child_us[parent->second] += s.dur_us;
      }
      last_at[{s.thread_index, s.depth}] = k;
    }
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const auto& s = spans[k];
      SpanStats& st = by_name_[s.name];
      ++st.count;
      add(st.inclusive, s.rank, s.dur_us * 1e-6);
      add(st.self, s.rank, (s.dur_us - child_us[k]) * 1e-6);
    }
  }

  // A missing span is an error: a renamed or split span must not read as 0.
  [[nodiscard]] const SpanStats& get(const std::string& name) const {
    const auto it = by_name_.find(name);
    AEQP_CHECK(it != by_name_.end(), "expected trace span '" + name + "' is missing");
    return it->second;
  }
  void require(const std::string& name) const { static_cast<void>(get(name)); }
  // Self time of a span that legitimately does not run on some workloads.
  [[nodiscard]] double self_or_zero(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? 0.0 : it->second.self.value();
  }

private:
  static void add(SpanTimes& t, int rank, double sec) {
    if (rank >= 0)
      t.per_rank[rank] += sec;
    else
      t.host += sec;
  }
  std::map<std::string, SpanStats> by_name_;
};

class CounterView {
public:
  CounterView() {
    for (const auto& m : obs::metrics_snapshot()) values_[m.name] = m.value;
  }
  // metrics_snapshot() lists nonzero counters only, so an expected counter
  // that is absent was renamed or never ran: an error, not a zero.
  [[nodiscard]] double expect(const std::string& name) const {
    const auto it = values_.find(name);
    AEQP_CHECK(it != values_.end(), "expected counter '" + name + "' is missing");
    return it->second;
  }
  // Counters that are legitimately zero on some workloads (exec/* without a
  // pool, comm/* without ranks).
  [[nodiscard]] double maybe(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Runs

// On a shared host the vCPUs differ in speed for minutes at a time: at one
// moment an SCF pinned to each of 4 vCPUs took 1.7-1.9 s on two and 1.0-1.3 s
// on the other two. A single thread stays on whichever vCPU it started on, so
// a single-threaded run measured that vCPU's luck. Workloads whose pool has
// one thread therefore move the calling thread to the next allowed CPU at
// every loop iteration (ten runs of eight SCFs: 12% spread rotated, 23% left
// alone). Pooled workloads keep every CPU busy and are left alone.
void place(const Config& cfg, std::size_t iteration) {
  if (cfg.threads == 1) set_affinity({cfg.cpus[iteration % cfg.cpus.size()]});
}

void warm_up(const Config& cfg, double seconds) {
  // The host, not the program, is slow to start: after idling, the first
  // solve runs ~30% slow, and ~3 s of busy work removes that. Setup repeats
  // on every CPU in turn are that busy work (shortened for runs shorter than
  // 3 s).
  const double t0 = now_s();
  std::size_t i = 0;
  do {
    place(cfg, i++);
    g_sink += run_setup(cfg.mol, cfg.opt).total();
  } while (now_s() - t0 < std::min(3.0, seconds));
}

std::vector<Metric> end_to_end_run(const Config& cfg, const Gate& gate, Tally& tally,
                                   double seconds) {
  std::vector<double> setup, alpha, scf, cpscf, loop;
  int scf_iters = 0, cpscf_iters = 0;
  const double t0 = now_s();
  do {
    const double l0 = now_s();
    place(cfg, loop.size());
    // A setup block of ~0.25 s per solve spreads the setup samples over the
    // whole run instead of one short window.
    const double s0 = now_s();
    do {
      setup.push_back(run_setup(cfg.mol, cfg.opt).total());
    } while (now_s() - s0 < 0.25);
    if (const auto s = operation(cfg, gate, tally)) {
      alpha.push_back(s->scf_s + s->cpscf_s);
      scf.push_back(s->scf_s);
      cpscf.push_back(s->cpscf_s);
      scf_iters = s->scf_iters;
      cpscf_iters = s->cpscf_iters();
    }
    loop.push_back(now_s() - l0);
  } while (now_s() - t0 + median(loop) <= seconds);
  std::printf("# %zu timed solves, %zu setups in %.1f s\n", alpha.size(), setup.size(),
              now_s() - t0);
  return {{"alpha_wall_s", median(alpha), "s"},
          {"setup_s", median(setup), "s"},
          {"scf_s", median(scf), "s"},
          {"cpscf_s", median(cpscf), "s"},
          {"peak_rss_mb", vm_hwm_mb(), "MB"},
          {"scf_iters", static_cast<double>(scf_iters), "count"},
          {"cpscf_iters", static_cast<double>(cpscf_iters), "count"}};
}

// Per-layer metrics of one traced solve.
std::vector<Metric> layer_metrics(const Config& cfg, const Solve& s, double wall_s,
                                  const Usage& used) {
  const TraceView tv;
  const CounterView cv;
  std::vector<Metric> m;
  const auto self = [&](const char* span) { return tv.get(span).self.value(); };
  const auto count = [](const char* name, double v) { return Metric{name, v, "count"}; };

  m.push_back(count("scf.iterations", s.scf_iters));
  m.push_back({"scf.hartree_s", self("scf/hartree"), "s"});
  m.push_back({"scf.density_s", self("scf/density"), "s"});
  m.push_back({"scf.hamiltonian_s", self("scf/hamiltonian"), "s"});
  m.push_back({"scf.diagonalize_s", self("scf/diagonalize"), "s"});

  m.push_back({"poisson.project_s", self("poisson/project"), "s"});
  m.push_back(count("poisson.project_calls", static_cast<double>(tv.get("poisson/project").count)));
  m.push_back({"poisson.solve_s", self("poisson/solve"), "s"});

  // Benchmark-owned spans: one cpscf_init (serial only), three directions.
  const bool serial = cfg.ranks == 0;
  if (serial) tv.require("bench/cpscf_init");
  m.push_back({"cpscf.init_s", s.init_s, "s"});
  AEQP_CHECK(tv.get("bench/cpscf_direction").count == 3, "expected three traced directions");
  m.push_back({"cpscf.dir0_s", s.dir_s[0], "s"});
  m.push_back({"cpscf.dir1_s", s.dir_s[1], "s"});
  m.push_back({"cpscf.dir2_s", s.dir_s[2], "s"});
  m.push_back(count("cpscf.iterations", s.cpscf_iters()));
  m.push_back({"cpscf.rho_s", self("cpscf/rho"), "s"});
  m.push_back({"cpscf.sumup_s", self("cpscf/sumup"), "s"});
  m.push_back({"cpscf.h_s", self("cpscf/h"), "s"});
  m.push_back({"cpscf.dm_s", self("cpscf/dm"), "s"});
  m.push_back({"cpscf.sternheimer_s", self("cpscf/sternheimer"), "s"});
  tv.require(serial ? "cpscf/direction" : "cpscf/parallel_direction");

  // Skips and each potential block class can legitimately be zero on a small
  // molecule; the three classes together cannot.
  const double kept = cv.expect("rho/screen/atom_blocks_evaluated");
  const double skipped = cv.maybe("rho/screen/atom_blocks_skipped");
  const double near = cv.maybe("rho/screen/potential_near_blocks");
  const double mixed = cv.maybe("rho/screen/potential_mixed_blocks");
  const double far = cv.maybe("rho/screen/potential_far_blocks");
  AEQP_CHECK(near + mixed + far > 0, "expected rho/screen/potential_* counters are missing");
  m.push_back(count("rho.points_evaluated", cv.expect("rho/batch_points_evaluated")));
  m.push_back(count("rho.blocks_evaluated", kept));
  m.push_back(count("rho.blocks_skipped", skipped));
  m.push_back({"rho.skip_ratio", skipped / (kept + skipped), "ratio"});
  m.push_back(count("rho.potential_near_blocks", near));
  m.push_back(count("rho.potential_mixed_blocks", mixed));
  m.push_back(count("rho.potential_far_blocks", far));

  const bool pooled = cfg.threads > 1;
  const auto pool_counter = [&](const char* name) {
    return pooled ? cv.expect(name) : cv.maybe(name);
  };
  const double chunks = pool_counter("exec/chunks");
  const double steals = pool_counter("exec/steals");
  m.push_back(count("exec.regions", pool_counter("exec/regions")));
  m.push_back(count("exec.chunks", chunks));
  m.push_back(count("exec.steals", steals));
  m.push_back({"exec.steal_ratio", chunks > 0 ? steals / chunks : 0.0, "ratio"});
  const double workers = static_cast<double>(cfg.threads * std::max<std::size_t>(1, cfg.ranks));
  m.push_back({"proc.cpu_s", used.cpu_s, "s"});
  m.push_back({"proc.cpu_util", used.cpu_s / (wall_s * workers), "ratio"});
  m.push_back(count("proc.nivcsw", static_cast<double>(used.nivcsw)));

  const auto comm_self = [&](const char* span) {
    return serial ? tv.self_or_zero(span) : self(span);
  };
  const auto comm_counter = [&](const char* name) {
    return serial ? cv.maybe(name) : cv.expect(name);
  };
  m.push_back({"comm.wait_s", comm_self("comm/wait"), "s"});
  m.push_back({"comm.packed_flush_s", comm_self("comm/packed_flush"), "s"});
  m.push_back({"comm.allreduce_s",
               comm_self("comm/allreduce_sum") + comm_self("comm/allreduce_sum_leaders") +
                   tv.self_or_zero("comm/allreduce_max"),
               "s"});
  m.push_back({"comm.node_barrier_s", comm_self("comm/node_barrier"), "s"});
  m.push_back({"comm.barrier_s", comm_self("comm/barrier"), "s"});
  m.push_back(count("comm.collectives", comm_counter("comm/collectives")));
  m.push_back(count("comm.collective_doubles", comm_counter("comm/collective_doubles")));
  m.push_back(count("comm.packed_collectives", comm_counter("comm/packed_collectives")));
  m.push_back(count("comm.packed_rows", comm_counter("comm/packed_rows")));
  m.push_back({"comm.packed_bytes", comm_counter("comm/packed_bytes"), "B"});
  m.push_back({"rank.skew_s", serial ? 0.0 : tv.get("cpscf/parallel_direction").inclusive.skew(), "s"});
  m.push_back({"rank.rho_max_s", serial ? 0.0 : tv.get("cpscf/rho").inclusive.value(), "s"});
  m.push_back({"mapping.max_rank_points_share", s.max_points_share, "ratio"});

  m.push_back(count("abft.checks", cv.expect("abft/checks")));
  m.push_back(count("guards.checks", cv.expect("guards/checks")));
  return m;
}

// Hot entry points replayed once each on the converged ground state, outside
// the solver loop. Each is repeated for >= 0.5 s (at least 3 calls); the
// median call is reported.
std::vector<Metric> replay_metrics(const scf::ScfResult& g) {
  const auto& integ = *g.integrator;
  const auto& basis = *g.basis;
  const auto& hartree = *g.hartree;
  const auto& grid = *g.grid;
  const linalg::Matrix& p = g.density_matrix;
  const std::vector<double> screen =
      basis.screening_radii(core::DfptOptions{}.screening_threshold);
  const poisson::BatchDensityFn density = [&](const Vec3* pts, std::size_t n,
                                              double* out) {
    thread_local basis::BatchEval ev;
    basis.evaluate_batch(pts, n, screen, ev);
    basis::contract_density(p, ev, out);
  };
  const auto repeat = [](const auto& f) {
    std::vector<double> t;
    const double t0 = now_s();
    do {
      t.push_back(timed("bench/replay", f));
    } while (t.size() < 3 || now_s() - t0 < 0.5);
    return median(t);
  };

  const double sumup = repeat([&] { g_sink += integ.density(p)[0]; });
  const double h = repeat([&] { g_sink += integ.potential_matrix(g.density_samples)(0, 0); });
  const obs::Counter& points = obs::counter("rho/batch_points_evaluated");
  const std::uint64_t before = points.value();
  poisson::MultipoleDensity rho = hartree.project(density);
  const auto ring_points = static_cast<double>(points.value() - before);
  const double project = repeat([&] { rho = hartree.project(density); });
  poisson::PartitionedPotential v;
  const double solve = repeat([&] { v = hartree.solve(rho); });
  std::vector<double> out(grid.size());
  const std::size_t block = tune::rho_block_size(0);
  const double consume = repeat([&] {
    exec::parallel_for_ranges(0, grid.size(), block, [&](std::size_t b, std::size_t e) {
      thread_local std::vector<Vec3> pos;
      pos.resize(e - b);
      for (std::size_t i = b; i < e; ++i) pos[i - b] = grid.point(i).pos;
      hartree.potential_batch(v, pos.data(), e - b, out.data() + b);
    });
  });
  g_sink += out[0];
  return {{"replay.sumup_s", sumup, "s"},
          {"replay.h_s", h, "s"},
          {"replay.rho_project_s", project, "s"},
          {"replay.rho_solve_s", solve, "s"},
          {"replay.rho_consume_s", consume, "s"},
          {"replay.project_points_per_s", ring_points / project, "1/s"}};
}

// Traced run: setup layers, then alternating untraced/traced solves (the
// first traced solve gives the layer breakdown, the pairs give the tracing
// overhead), then the replays.
std::vector<Metric> per_layer_run(const Config& cfg, const Gate& gate, Tally& tally,
                                  double seconds) {
  const double t0 = now_s();
  std::vector<double> basis, grid, integ, poisson;
  do {
    place(cfg, basis.size());
    const SetupTimes t = run_setup(cfg.mol, cfg.opt);
    basis.push_back(t.basis);
    grid.push_back(t.grid);
    integ.push_back(t.integrator);
    poisson.push_back(t.poisson);
  } while (basis.size() < 5 || now_s() - t0 < 1.0);
  std::vector<Metric> m = {{"basis.build_s", median(basis), "s"},
                           {"grid.build_s", median(grid), "s"},
                           {"scf.integrator_build_s", median(integ), "s"},
                           {"poisson.build_s", median(poisson), "s"},
                           {"mem.setup_mb", vm_hwm_mb(), "MB"}};

  std::vector<double> untraced, traced, pair;
  std::vector<Metric> layers;
  std::optional<scf::ScfResult> ground;
  double mem_scf = 0.0, mem_cpscf = 0.0;
  do {
    const double p0 = now_s();
    place(cfg, pair.size());
    if (const auto s = operation(cfg, gate, tally, false, &ground)) {
      untraced.push_back(s->scf_s + s->cpscf_s);
      if (mem_scf == 0.0) {
        mem_scf = s->hwm_scf_mb;
        mem_cpscf = s->hwm_cpscf_mb;
      }
    }
    obs::set_mode(obs::TraceMode::Summary);
    obs::reset();
    obs::reset_counters();
    const Usage u0 = usage();
    const double w0 = now_s();
    const auto s = operation(cfg, gate, tally);
    const double wall = now_s() - w0;
    const Usage u1 = usage();
    obs::set_mode(obs::TraceMode::Off);
    if (s) {
      traced.push_back(s->scf_s + s->cpscf_s);
      if (layers.empty())
        layers = layer_metrics(cfg, *s, wall, {u1.cpu_s - u0.cpu_s, u1.nivcsw - u0.nivcsw});
    }
    obs::reset();
    pair.push_back(now_s() - p0);
  } while (now_s() - t0 + median(pair) <= seconds);
  AEQP_CHECK(!layers.empty() && ground, "no traced solve succeeded");
  std::printf("# %zu untraced/traced pairs in %.1f s\n", pair.size(), now_s() - t0);

  m.insert(m.end(), layers.begin(), layers.end());
  const std::vector<Metric> replays = replay_metrics(*ground);
  m.insert(m.end(), replays.begin(), replays.end());
  m.push_back({"mem.scf_mb", mem_scf, "MB"});
  m.push_back({"mem.cpscf_mb", mem_cpscf, "MB"});
  m.push_back({"grid.points", static_cast<double>(ground->grid->size()), "count"});
  m.push_back({"basis.functions", static_cast<double>(ground->basis->size()), "count"});
  m.push_back({"trace.overhead", median(traced) / median(untraced) - 1.0, "ratio"});
  return m;
}

// Variables that change what the library runs. The benchmark measures the
// defaults, so a set variable is refused rather than silently measured.
constexpr const char* kPinnedEnv[] = {
    "AEQP_TRACE",  "AEQP_FLIGHT",     "AEQP_MEMAUDIT", "AEQP_MEM_BUDGET",
    "AEQP_MEM_SOFT_PCT", "AEQP_TUNE_FILE", "AEQP_GUARDS", "AEQP_ADAPTIVE_TIMEOUT",
    "AEQP_NUM_THREADS"};

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "alpha_bench: %s\nusage: alpha_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --reference <file>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage_error("expected --option value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage_error("expected --option value pairs");
  for (const char* key : {"workload", "seed", "seconds", "trace", "reference"})
    if (args.count(key) == 0) return usage_error("missing an option");
  for (const char* var : kPinnedEnv)
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "alpha_bench: refusing to run with %s set\n", var);
      return 2;
    }

  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (args["workload"] == w.name) wl = &w;
  if (wl == nullptr) return usage_error("unknown workload");

  try {
    Config cfg;
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const bool trace = args["trace"] == "1";
    if (!trace && args["trace"] != "0") return usage_error("--trace takes 0 or 1");
    cfg.mol = rotated(molecule(wl->molecule), seed);
    cfg.opt = cli_options();
    cfg.cpus = allowed_cpus();
    const std::size_t cores = cfg.cpus.size();
    if (wl->ranks) {
      // One pool thread per rank ("divide the pool down"): with a shared
      // pool the ranks race for it and most run inline anyway.
      cfg.ranks = std::max<std::size_t>(2, cores);
      cfg.ranks_per_node = 2;
      cfg.threads = std::max<std::size_t>(1, cores / cfg.ranks);
    } else {
      cfg.threads = wl->all_threads ? cores : 1;
    }
    exec::ThreadPool::set_global_threads(cfg.threads);
    obs::set_mode(obs::TraceMode::Off);

    Gate gate{load_reference(args["reference"], wl->molecule), seed, std::nullopt};
    const basis::BasisSet basis(cfg.mol, cfg.opt.tier, cfg.opt.r_cut);
    const grid::MolecularGrid grid = grid::MolecularGrid::build(cfg.mol, cfg.opt.grid);
    std::printf(
        "# config: workload=%s seed=%llu trace=%d seconds=%g nproc=%zu threads=%zu "
        "ranks=%zu ranks_per_node=%zu atoms=%zu grid_points=%zu basis_functions=%zu\n",
        wl->name, static_cast<unsigned long long>(seed), trace ? 1 : 0, seconds,
        cores, cfg.threads, cfg.ranks, cfg.ranks_per_node, cfg.mol.size(), grid.size(),
        basis.size());

    Tally tally;
    warm_up(cfg, seconds);
    if (cfg.ranks > 0) gate.serial_twin = operation(cfg, gate, tally, true);
    const std::vector<Metric> metrics = trace ? per_layer_run(cfg, gate, tally, seconds)
                                              : end_to_end_run(cfg, gate, tally, seconds);
    std::fflush(stdout);
    print_result(tally, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alpha_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
