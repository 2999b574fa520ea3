// Distributed DFPT demo: the paper's parallel decomposition running on the
// simulated MPI cluster -- locality-mapped grid batches, distributed
// Sumup/H phases and Rho projection, packed hierarchical synthesis of the
// response Hamiltonian and rho_multipole -- checked against the serial
// solver.
//
//   ./example_distributed_dfpt
//
// Profiling: AEQP_TRACE=summary prints the per-phase report on exit;
// AEQP_TRACE=full additionally writes trace.json (chrome://tracing /
// Perfetto) with one lane per simulated rank. See docs/observability.md.

#include <cmath>
#include <cstdio>

#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "obs/report.hpp"
#include "scf/scf_solver.hpp"

int main() {
  using namespace aeqp;
  obs::ScopedRunProfile profile("distributed_dfpt example");

  const grid::Structure h2o = core::water();
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 36;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  opt.mixer = scf::Mixer::Diis;

  std::printf("Ground-state SCF for H2O...\n");
  const scf::ScfResult ground = scf::ScfSolver(h2o, opt).run();
  if (!ground.converged) {
    std::printf("SCF failed to converge\n");
    return 1;
  }

  std::printf("Serial DFPT (z direction)...\n");
  const core::DfptSolver serial(ground, {});
  const auto ref = serial.solve_direction(2);
  std::printf("  alpha_zz = %.6f bohr^3 in %d iterations\n",
              ref.dipole_response.z, ref.iterations);

  core::ParallelDfptOptions popt;
  popt.ranks = 8;
  popt.ranks_per_node = 4;
  popt.reduce_mode = comm::ReduceMode::Hierarchical;
  popt.batch_points = 96;
  std::printf("Distributed DFPT on %zu simulated ranks (%zu/node, packed "
              "hierarchical reduce)...\n",
              popt.ranks, popt.ranks_per_node);
  const auto par = core::solve_direction_parallel(ground, popt, 2);
  const auto par_metrics = core::register_metrics(par.stats);

  std::printf("  alpha_zz = %.6f bohr^3 in %d iterations\n",
              par.direction.dipole_response.z, par.direction.iterations);
  std::printf("  batches: %zu, load (max/mean points): %.2f\n",
              par.stats.batches, par.stats.max_rank_points_share);
  std::printf("  packed collectives per rank: %zu (synthesizing %zu matrix "
              "rows)\n",
              par.stats.collectives, par.stats.rows_reduced);

  const double diff =
      std::fabs(par.direction.dipole_response.z - ref.dipole_response.z);
  std::printf("  |serial - distributed| = %.2e  -> %s\n", diff,
              diff < 1e-7 ? "PASS" : "FAIL");
  // Emit the report while the run-stats metrics source is still registered
  // (it deregisters when par_metrics goes out of scope).
  profile.finish();
  return diff < 1e-7 ? 0 : 1;
}
