// Integration benchmark: the paper's full parallel decomposition executing
// for real on the threaded simmpi runtime -- distributed Sumup/H phases,
// replicated Poisson producers, packed (hierarchical) synthesis of the
// response Hamiltonian -- across rank counts and reduce schemes. Everything
// here is measured, not modeled; the table shows how the communication-
// count savings materialize in the real DFPT cycle. (The dense-vs-CSR
// storage axis of Fig. 3 is bench_fig09b_dense_access's.)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench_output.hpp"
#include "common/table.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "linalg/abft.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/fault.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/guards.hpp"
#include "resilience/recovery.hpp"
#include "resilience/sdc_inject.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

const scf::ScfResult& ground_state() {
  static const scf::ScfResult res = [] {
    grid::Structure s;
    s.add_atom(1, {0, 0, -0.7});
    s.add_atom(1, {0, 0, 0.7});
    scf::ScfOptions opt;
    opt.tier = basis::BasisTier::Light;
    opt.grid.radial_points = 36;
    opt.grid.angular_degree = 9;
    opt.poisson.radial_points = 72;
    opt.mixer = scf::Mixer::Diis;
    return scf::ScfSolver(s, opt).run();
  }();
  return res;
}

void print_table() {
  const auto& ground = ground_state();
  if (!ground.converged) {
    std::printf("ground state failed to converge\n");
    return;
  }

  Table t({"ranks", "reduce", "alpha_zz", "iters", "collectives/rank",
           "wall (s)"});
  struct Case {
    std::size_t ranks;
    comm::ReduceMode mode;
    const char* mode_name;
  };
  const Case cases[] = {
      {1, comm::ReduceMode::Flat, "flat"},
      {2, comm::ReduceMode::Flat, "flat"},
      {4, comm::ReduceMode::Flat, "flat"},
      {4, comm::ReduceMode::Hierarchical, "hierarchical"},
      {8, comm::ReduceMode::Hierarchical, "hierarchical"},
  };
  for (const auto& c : cases) {
    ParallelDfptOptions opt;
    opt.ranks = c.ranks;
    opt.ranks_per_node = 4;
    opt.reduce_mode = c.mode;
    opt.batch_points = 96;
    // Wall time from the per-rank "cpscf/parallel_direction" span the
    // solver records (the max over ranks is the run's critical path).
    obs::reset();
    const auto r = solve_direction_parallel(ground, opt, 2);
    double wall = 0.0;
    for (const auto& a : obs::aggregate_spans())
      if (a.name == std::string("cpscf/parallel_direction"))
        wall = a.ranks > 0 ? a.max_rank_s : a.total_s;
    t.add_row({std::to_string(c.ranks), c.mode_name,
               Table::num(r.direction.dipole_response.z, 6),
               std::to_string(r.direction.iterations),
               std::to_string(r.stats.collectives), Table::num(wall, 2)});
  }
  t.print("Distributed DFPT on the threaded simmpi runtime (H2, light "
          "settings) -- identical physics across all configurations");
  obs::write_phase_report(std::cout,
                          "bench_distributed_dfpt (last configuration)");
}

// Degraded-mode run: the same molecule, but one rank dies permanently a
// few iterations in. The elastic RecoveryDriver restores from a buddy
// replica, shrinks the world, re-maps the orphaned batches and finishes on
// the survivors; the cost breakdown (wasted iterations, re-map time,
// survivor count) lands in BENCH_elastic.json.
void elastic_degraded_run() {
  const auto& ground = ground_state();
  if (!ground.converged) return;

  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 0;  // the checkpoint writer: forces the buddy-restore path
  ev.collective = 40;
  ev.transient = false;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  ParallelDfptOptions opt;
  opt.ranks = 4;
  opt.ranks_per_node = 4;
  opt.batch_points = 96;
  opt.fault_injector = &injector;

  const auto dir =
      std::filesystem::temp_directory_path() / "aeqp_bench_elastic";
  std::filesystem::remove_all(dir);
  resilience::CheckpointStore store(dir);
  resilience::RecoveryOptions ropt;
  ropt.elastic = true;
  ropt.max_retries = 6;
  ropt.mixing_damping = 1.0;
  resilience::RecoveryDriver driver(store, ropt);

  obs::reset();
  const auto rec = driver.solve_direction_parallel(ground, opt, 2);
  const auto& s = rec.stats;

  Table t({"survivors", "shrinks", "buddy restores", "wasted iters",
           "batches moved", "re-map (ms)", "alpha_zz"});
  t.add_row({std::to_string(s.survivor_ranks), std::to_string(s.shrinks),
             std::to_string(s.buddy_restores),
             std::to_string(s.wasted_iterations),
             std::to_string(s.remap_batches_moved),
             Table::num(s.remap_seconds * 1e3, 3),
             Table::num(rec.direction.dipole_response.z, 6)});
  t.print("Elastic recovery after a permanent rank-0 loss (4 -> 3 ranks): "
          "buddy-restore + shrink + re-map + resume");

  std::string path;
  if (std::FILE* f = benchio::open_bench("BENCH_elastic.json", &path)) {
    benchio::write_envelope(f, "elastic_recovery");
    std::fprintf(
        f,
        "  \"ranks\": %zu,\n"
        "  \"survivor_ranks\": %zu,\n  \"lost_ranks\": %zu,\n"
        "  \"shrinks\": %zu,\n  \"buddy_restores\": %zu,\n"
        "  \"retries\": %zu,\n  \"wasted_iterations\": %zu,\n"
        "  \"remap_batches_moved\": %zu,\n  \"remap_seconds\": %.6f,\n"
        "  \"converged\": %s,\n  \"alpha_zz\": %.9f\n}\n",
        opt.ranks, s.survivor_ranks, s.lost_ranks, s.shrinks,
        s.buddy_restores, s.retries, s.wasted_iterations,
        s.remap_batches_moved, s.remap_seconds,
        rec.direction.converged ? "true" : "false",
        rec.direction.dipole_response.z);
    std::fclose(f);
    std::printf("Wrote %s\n", path.c_str());
  }
}

// SDC-injected run: the same molecule under a compute-site fault plan --
// one bit flip inside the DM-build matmul (healed in place by ABFT) and
// one NaN in a multipole density channel (tripping a physics guard and
// escalating to checkpoint rollback). The table and BENCH_sdc.json report
// correction-vs-rollback counts, detection latency (iterations discarded
// by the rollback), and the wall-clock overhead of running with the guard
// and ABFT layers on versus fully off.
void sdc_injected_run() {
  const auto& ground = ground_state();
  if (!ground.converged) return;
  using clock = std::chrono::steady_clock;

  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;

  // Overhead of the defense layers on a fault-free run: guards + ABFT on
  // (the shipped default) vs everything off.
  resilience::set_guards(true);
  const auto t0 = clock::now();
  const auto guarded = core::DfptSolver(ground, dopt).solve_direction(2);
  const double guards_on_s =
      std::chrono::duration<double>(clock::now() - t0).count();

  resilience::set_guards(false);
  core::DfptOptions plain = dopt;
  plain.abft = false;
  const auto t1 = clock::now();
  const auto unguarded = core::DfptSolver(ground, plain).solve_direction(2);
  const double guards_off_s =
      std::chrono::duration<double>(clock::now() - t1).count();
  resilience::set_guards(true);
  const double overhead_pct =
      guards_off_s > 0.0 ? 100.0 * (guards_on_s - guards_off_s) / guards_off_s
                         : 0.0;

  // The injected run, wrapped in the recovery ladder.
  resilience::SdcPlan plan;
  plan.add({resilience::SdcKind::BitFlip, "cpscf/dm_matmul",
            /*invocation=*/2, /*element=*/1, /*bit=*/62});
  resilience::SdcEvent nan_ev;
  nan_ev.kind = resilience::SdcKind::NanPayload;
  nan_ev.site = "poisson/rho_multipole";
  nan_ev.invocation = 40;
  nan_ev.element = 3;
  plan.add(nan_ev);
  resilience::SdcInjector injector(std::move(plan));
  resilience::ScopedSdcInjector scoped(injector);

  const auto dir = std::filesystem::temp_directory_path() / "aeqp_bench_sdc";
  std::filesystem::remove_all(dir);
  resilience::CheckpointStore store(dir);
  resilience::RecoveryOptions ropt;
  ropt.max_retries = 4;
  resilience::RecoveryDriver driver(store, ropt);
  const auto abft_before = linalg::abft_stats();
  const auto rec = driver.solve_direction(ground, dopt, 2);
  const auto abft_after = linalg::abft_stats();
  const auto& s = driver.last_stats();
  const double alpha_err =
      std::abs(rec.dipole_response.z - unguarded.dipole_response.z);

  Table t({"abft corrections", "guard violations", "rollbacks",
           "detect latency (iters)", "guards-on (s)", "guards-off (s)",
           "overhead", "|alpha err|"});
  t.add_row({std::to_string(s.abft_corrections),
             std::to_string(s.invariant_violations), std::to_string(s.restores),
             std::to_string(s.wasted_iterations), Table::num(guards_on_s, 2),
             Table::num(guards_off_s, 2),
             Table::num(overhead_pct, 1) + "%", Table::num(alpha_err, 12)});
  t.print("SDC defense under injected faults (H2): ABFT heals the matmul "
          "flip in place; the multipole NaN trips a guard and rolls back");

  std::string path;
  if (std::FILE* f = benchio::open_bench("BENCH_sdc.json", &path)) {
    benchio::write_envelope(f, "sdc_defense");
    std::fprintf(
        f,
        "  \"abft_checks\": %zu,\n  \"abft_detections\": %zu,\n"
        "  \"abft_corrections\": %zu,\n  \"invariant_violations\": %zu,\n"
        "  \"rollbacks\": %zu,\n  \"retries\": %zu,\n"
        "  \"detection_latency_iterations\": %zu,\n"
        "  \"guards_on_seconds\": %.6f,\n  \"guards_off_seconds\": %.6f,\n"
        "  \"overhead_percent\": %.3f,\n  \"converged\": %s,\n"
        "  \"alpha_zz\": %.9f,\n  \"alpha_abs_error\": %.3e\n}\n",
        abft_after.checks - abft_before.checks,
        abft_after.detections - abft_before.detections, s.abft_corrections,
        s.invariant_violations, s.restores, s.retries, s.wasted_iterations,
        guards_on_s, guards_off_s, overhead_pct,
        rec.converged ? "true" : "false", rec.dipole_response.z, alpha_err);
    std::fclose(f);
    std::printf("Wrote %s\n", path.c_str());
  }
  (void)guarded;
}

void BM_DistributedIteration(benchmark::State& state) {
  const auto& ground = ground_state();
  ParallelDfptOptions opt;
  opt.ranks = static_cast<std::size_t>(state.range(0));
  opt.ranks_per_node = 4;
  opt.dfpt.max_iterations = 3;  // fixed small cycle count per measurement
  opt.dfpt.tolerance = 0.0;
  for (auto _ : state) {
    auto r = solve_direction_parallel(ground, opt, 2);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DistributedIteration)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (obs::mode() == obs::TraceMode::Off) obs::set_mode(obs::TraceMode::Summary);
  print_table();
  elastic_degraded_run();
  sdc_injected_run();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
