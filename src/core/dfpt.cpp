#include "core/dfpt.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "core/cpscf.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/abft.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"

namespace aeqp::core {

using linalg::Matrix;
using linalg::Vector;

std::string phase_name(Phase p) {
  switch (p) {
    case Phase::DM: return "DM";
    case Phase::Sumup: return "Sumup";
    case Phase::Rho: return "Rho";
    case Phase::H: return "H";
    case Phase::Sternheimer: return "Sternheimer";
  }
  return "?";
}

ResponseOrbitals sternheimer_update(const Matrix& h1, const Matrix& c_occ,
                                    const Matrix& c_virt,
                                    const Vector& eigenvalues, double omega,
                                    bool abft) {
  const std::size_t n_occ = c_occ.cols();
  const std::size_t n_virt = c_virt.cols();
  // The Sternheimer contraction H^(1)_ai = C_virt^T (H^(1) C_occ): with
  // ABFT on, both products carry Huang-Abraham checksums, so a single
  // corrupted element is corrected in place before it can steer the
  // whole CPSCF trajectory.
  const Matrix h1_vo =
      abft ? linalg::abft_matmul_tn(
                 c_virt, linalg::abft_matmul(h1, c_occ, "cpscf/sternheimer_matmul"),
                 "cpscf/sternheimer_matmul")
           : linalg::matmul_tn(c_virt, linalg::matmul(h1, c_occ));
  Matrix x(n_virt, n_occ), y(n_virt, n_occ);
  for (std::size_t a = 0; a < n_virt; ++a)
    for (std::size_t i = 0; i < n_occ; ++i) {
      const double gap = eigenvalues[i] - eigenvalues[n_occ + a];
      AEQP_CHECK(std::fabs(gap + omega) > 1e-10 && std::fabs(gap - omega) > 1e-10,
                 "CPSCF: frequency hits an excitation resonance");
      x(a, i) = h1_vo(a, i) / (gap + omega);
      y(a, i) = h1_vo(a, i) / (gap - omega);
    }
  // These products feed the DM build directly -- the paper's DM phase --
  // so they are the DM-build matmuls the ABFT layer protects.
  return {abft ? linalg::abft_matmul(c_virt, x, "cpscf/dm_matmul")
               : linalg::matmul(c_virt, x),
          abft ? linalg::abft_matmul(c_virt, y, "cpscf/dm_matmul")
               : linalg::matmul(c_virt, y)};
}

Matrix response_density_matrix(const ResponseOrbitals& c1, const Matrix& c_occ,
                               const Vector& occupations) {
  const std::size_t nb = c_occ.rows();
  const std::size_t n_occ = c_occ.cols();
  Matrix p1(nb, nb);
  exec::parallel_for_ranges(0, nb, 8, [&](std::size_t mb, std::size_t me) {
    for (std::size_t mu = mb; mu < me; ++mu) {
      double* prow = p1.data() + mu * nb;
      for (std::size_t i = 0; i < n_occ; ++i) {
        const double f = occupations[i];
        const double c1xmi = c1.plus(mu, i), cmi = c_occ(mu, i);
        for (std::size_t nu = 0; nu < nb; ++nu)
          prow[nu] += f * (c1xmi * c_occ(nu, i) + cmi * c1.minus(nu, i));
      }
    }
  });
  return p1;
}

PhaseTimes DfptResult::total_phase_seconds() const {
  PhaseTimes total;
  for (const auto& dir : directions)
    for (const auto& [phase, sec] : dir.phase_seconds) total[phase] += sec;
  return total;
}

DfptSolver::DfptSolver(const scf::ScfResult& ground, DfptOptions options)
    : ground_(ground),
      options_(std::move(options)),
      inputs_(std::make_shared<const detail::CpscfGround>(
          ground_, options_.screening_threshold)) {}

DfptDirectionResult DfptSolver::solve_direction(int j) const {
  AEQP_TRACE_SCOPE("cpscf/direction");
  AEQP_CHECK(j >= 0 && j < 3, "solve_direction: direction must be 0..2");
  // The one-rank world: flat synthesis (the sum of one contribution is the
  // contribution itself) over every integrator tile.
  ParallelDfptOptions world;
  world.dfpt = options_;
  world.ranks = 1;
  world.ranks_per_node = 1;
  world.reduce_mode = comm::ReduceMode::Flat;
  detail::CpscfRun run(*inputs_, world, j);
  const detail::RankTiles tiles(ground_.integrator->tiles());
  parallel::Cluster(1, 1).run([&](parallel::Communicator& comm) {
    const ScopedThreadRank rank_tag(0);
    detail::run_cpscf_rank(comm, run, tiles);
  });
  return run.finish("DfptSolver");
}

DfptResult DfptSolver::solve_all() const {
  DfptResult res;
  for (int j = 0; j < 3; ++j)
    res.directions[static_cast<std::size_t>(j)] = solve_direction(j);
  return res;
}

}  // namespace aeqp::core
