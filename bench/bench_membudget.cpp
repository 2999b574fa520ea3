// Memory-budget governor microbench: the cost of the oom_probe fast path.
//
// The governor's whole design rests on one promise: with no budget armed a
// probe is a single relaxed atomic load, cheap enough to leave compiled
// into the hot allocation sites of core and comm unconditionally. This
// harness measures that promise in nanoseconds (idle, armed-with-budget,
// and injector-armed), prices the admission estimator, and then runs one
// governed CPSCF recovery under a permanent injected allocation failure to
// report the end-to-end cost of walking the relief ladder. The JSON lands
// in BENCH_membudget.json for the perf-regression sentinel
// (scripts/bench_history.py): the probe overheads are gated metrics --
// creeping fat on the idle path is exactly the regression this file exists
// to catch.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_output.hpp"
#include "common/table.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "grid/structure.hpp"
#include "obs/memaudit.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/membudget.hpp"
#include "resilience/recovery.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::resilience;
using Clock = std::chrono::steady_clock;

grid::Structure h2() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

scf::ScfResult light_ground() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 30;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  return scf::ScfSolver(h2(), opt).run();
}

/// Nanoseconds per oom_probe over `iters` calls in the CURRENT governor
/// state (caller arms/disarms around this).
double probe_ns(std::size_t iters) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    oom_probe("bench/probe", 0);
    benchmark::ClobberMemory();
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(iters);
}

void governor_run() {
  // --- Probe fast-path costs ------------------------------------------
  // Idle: no budget, no hook. The contract is one relaxed load.
  set_mem_budget(0);
  install_oom_hook(nullptr);
  const double idle_ns = probe_ns(20'000'000);

  // Armed with a generous budget: the slow path consults the live memaudit
  // gauges on every probe. Populate a realistic handful of gauges first.
  obs::set_memaudit(true);
  obs::mem_track("bench/gauge_a", 1 << 20);
  obs::mem_track("bench/gauge_b", 2 << 20);
  obs::mem_track("bench/gauge_c", 3 << 20);
  set_mem_budget(std::int64_t{1} << 34);  // 16 GiB: never trips
  const double armed_ns = probe_ns(2'000'000);
  set_mem_budget(0);

  // Injector-armed (no byte ceiling): the chaos-testing configuration. An
  // empty plan is a benign hook, so this prices pure bookkeeping.
  OomInjector injector((OomPlan()));
  install_oom_hook(&injector);
  const double injector_ns = probe_ns(2'000'000);
  install_oom_hook(nullptr);
  obs::mem_track("bench/gauge_a", -(1 << 20));
  obs::mem_track("bench/gauge_b", -(2 << 20));
  obs::mem_track("bench/gauge_c", -(3 << 20));

  // --- Admission estimator --------------------------------------------
  std::int64_t sink = 0;
  const auto e0 = Clock::now();
  constexpr std::size_t kEstimates = 1'000'000;
  for (std::size_t i = 0; i < kEstimates; ++i) {
    sink += estimate_job_memory(2 + i % 62, 1 + i % 8);
    benchmark::DoNotOptimize(sink);
  }
  const double estimate_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - e0).count() /
      static_cast<double>(kEstimates);

  // --- One governed recovery under injected allocation failure --------
  // A permanent failure at the point-eval cache: every attempt that caches
  // dies, so the relief ladder must shed the cache and re-evaluate on the
  // fly. Reports the wall cost of that detection + relief + recovery cycle
  // and asserts the correctness rail (recovered == reference).
  const auto ground = light_ground();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);

  OomPlan plan;
  plan.add({"dfpt/point_cache", /*invocation=*/0, /*rank=*/-1,
            /*transient=*/false});
  OomInjector chaos(std::move(plan));
  ScopedOomInjector scoped(chaos);

  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;
  const auto dir =
      std::filesystem::temp_directory_path() / "aeqp_bench_membudget";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir);
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  RecoveryDriver driver(store, ropt);

  const auto r0 = Clock::now();
  const auto rec = driver.solve_direction_parallel(ground, popt, 2);
  const double recovery_seconds =
      std::chrono::duration<double>(Clock::now() - r0).count();
  const double max_diff = rec.direction.p1.max_abs_diff(ref.p1);
  const auto& rstats = driver.last_stats();
  if (!rec.direction.converged || max_diff > 1e-8) {
    std::fprintf(stderr,
                 "bench_membudget: governed recovery FAILED the correctness "
                 "rail (converged=%d max_diff=%g)\n",
                 rec.direction.converged ? 1 : 0, max_diff);
    std::exit(1);
  }

  // --- Report ----------------------------------------------------------
  Table t({"idle probe (ns)", "armed probe (ns)", "injector probe (ns)",
           "estimate (ns)"});
  t.add_row({Table::num(idle_ns, 2), Table::num(armed_ns, 2),
             Table::num(injector_ns, 2), Table::num(estimate_ns, 2)});
  t.print("oom_probe fast-path cost by governor state (idle = one relaxed "
          "atomic load; armed pays a gauge walk)");

  Table g({"oom events", "relief actions", "retries", "recovery (s)",
           "max |diff| vs ref"});
  g.add_row({std::to_string(rstats.oom_events),
             std::to_string(rstats.relief_actions),
             std::to_string(rstats.retries), Table::num(recovery_seconds, 3),
             Table::num(max_diff, 3)});
  g.print("Governed CPSCF under a permanent injected allocation failure: "
          "relief ladder sheds the point cache, recovered == reference");

  std::string path;
  if (std::FILE* f = benchio::open_bench("BENCH_membudget.json", &path)) {
    benchio::write_envelope(f, "membudget_governor");
    std::fprintf(
        f,
        "  \"idle_probe_overhead_ns\": %.4f,\n"
        "  \"armed_probe_overhead_ns\": %.4f,\n"
        "  \"injector_probe_overhead_ns\": %.4f,\n"
        "  \"estimate_overhead_ns\": %.4f,\n"
        "  \"governed_recovery_oom_events\": %zu,\n"
        "  \"governed_recovery_relief_actions\": %zu,\n"
        "  \"governed_recovery_retries\": %zu,\n"
        "  \"governed_recovery_max_diff\": %.3e\n}\n",
        idle_ns, armed_ns, injector_ns, estimate_ns, rstats.oom_events,
        rstats.relief_actions, rstats.retries, max_diff);
    std::fclose(f);
    std::printf("Wrote %s\n", path.c_str());
  }
}

/// Google-benchmark probes for interactive tuning (the JSON numbers above
/// come from the deterministic loop, not these).
void BM_OomProbeIdle(benchmark::State& state) {
  set_mem_budget(0);
  install_oom_hook(nullptr);
  for (auto _ : state) {
    oom_probe("bench/probe", 0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OomProbeIdle);

void BM_OomProbeArmed(benchmark::State& state) {
  set_mem_budget(std::int64_t{1} << 34);
  for (auto _ : state) {
    oom_probe("bench/probe", 0);
    benchmark::ClobberMemory();
  }
  set_mem_budget(0);
}
BENCHMARK(BM_OomProbeArmed);

}  // namespace

int main(int argc, char** argv) {
  governor_run();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
