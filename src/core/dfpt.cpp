#include "core/dfpt.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/abft.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/guards.hpp"
#include "resilience/sdc_inject.hpp"
#include "tune/tune.hpp"
#include "xc/lda.hpp"

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
    : ground_(ground), options_(options) {
  AEQP_CHECK(ground_.converged, "DfptSolver: ground state is not converged");
  AEQP_CHECK(ground_.basis && ground_.grid && ground_.integrator && ground_.hartree,
             "DfptSolver: ground state lacks shared machinery");
  const std::size_t nb = ground_.coefficients.rows();
  const std::size_t n_occ = static_cast<std::size_t>(ground_.n_occupied);
  AEQP_CHECK(n_occ >= 1 && n_occ < nb,
             "DfptSolver: need at least one occupied and one virtual orbital");
  // Finite gap required by the sum-over-states Sternheimer solution.
  AEQP_CHECK(ground_.lumo - ground_.homo > 1e-8,
             "DfptSolver: vanishing HOMO-LUMO gap");

  c_occ_ = Matrix(nb, n_occ);
  c_virt_ = Matrix(nb, nb - n_occ);
  for (std::size_t mu = 0; mu < nb; ++mu) {
    for (std::size_t i = 0; i < n_occ; ++i) c_occ_(mu, i) = ground_.coefficients(mu, i);
    for (std::size_t a = n_occ; a < nb; ++a)
      c_virt_(mu, a - n_occ) = ground_.coefficients(mu, a);
  }

  fxc_.resize(ground_.density_samples.size());
  for (std::size_t p = 0; p < fxc_.size(); ++p)
    fxc_[p] = xc::lda_evaluate(std::max(ground_.density_samples[p], 0.0)).fxc;

  screen_radii_ = ground_.basis->screening_radii(options_.screening_threshold);

  if (options_.device) {
    // Device engine: precompute batches and per-batch basis supports once
    // (the initialization phase the paper's Fig. 11 targets).
    device_batches_ = grid::make_batches(
        *ground_.grid, tune::grid_batch_points(options_.device_batch_points));
    device_supports_ = kernels::build_batch_supports(*ground_.basis, *ground_.grid,
                                                     device_batches_);
  }
}

DfptDirectionResult DfptSolver::solve_direction(int j) const {
  AEQP_TRACE_SCOPE("cpscf/direction");
  AEQP_CHECK(j >= 0 && j < 3, "solve_direction: direction must be 0..2");
  const auto& integ = *ground_.integrator;
  const auto& grid = *ground_.grid;
  const auto& basis = *ground_.basis;
  const auto& hartree = *ground_.hartree;

  const std::size_t nb = ground_.coefficients.rows();
  const std::size_t np = grid.size();

  DfptDirectionResult res;
  auto& t = res.phase_seconds;
  t[Phase::DM] = t[Phase::Sumup] = t[Phase::Rho] = t[Phase::H] =
      t[Phase::Sternheimer] = 0.0;

  // Bare perturbation matrix: -r_J (paper Eq. 11).
  Matrix h1_ext = integ.dipole_matrix(j);
  h1_ext.scale(-1.0);

  Matrix p1(nb, nb);                   // response density matrix
  Matrix p1_fold(nb, nb);              // basis::fold_density(P^(1)) for Rho
  std::vector<double> n1(np, 0.0);     // response density on the grid
  std::vector<double> v1(np, 0.0);     // v^(1)_es,tot + v^(1)_xc on the grid
  bool have_response = false;

  // Sumup and Rho as functions of P^(1); shared by the iteration body and
  // the warm-start path (the response potential is derived state, so a
  // checkpoint only has to carry P^(1)).
  const auto compute_sumup = [&](const Matrix& p) {
    if (options_.device) {
      kernels::sumup_kernel(*options_.device, grid, device_supports_, p, n1);
    } else {
      n1 = integ.density(p);
    }
    // Compute-site probe: a planted fault corrupts the freshly accumulated
    // density batch here, exactly where a real kernel upset would land.
    resilience::sdc_probe("cpscf/rho_batch", {n1.data(), n1.size()});
  };
  const auto compute_rho = [&](const Matrix& p) {
    // Batched producer: the projection hands whole angular rings to the
    // shared basis-density callback (screened ring evaluation, folded
    // contraction).
    basis::fold_density(p, p1_fold);
    const auto v1_part =
        hartree.solve_density(poisson::basis_density(basis, screen_radii_, p1_fold));
    // Batched consumer: interpolate the partitioned potential block by
    // block. Each point's value is independent, so the block size is pure
    // cache tuning and never changes v1.
    const std::size_t block = tune::rho_block_size(options_.rho_block_size);
    exec::parallel_for_ranges(0, np, block, [&](std::size_t b, std::size_t e) {
      thread_local std::vector<Vec3> ppos;
      thread_local std::vector<double> vh;
      ppos.resize(e - b);
      vh.resize(e - b);
      for (std::size_t pt = b; pt < e; ++pt) ppos[pt - b] = grid.point(pt).pos;
      hartree.potential_batch(v1_part, ppos.data(), e - b, vh.data());
      for (std::size_t pt = b; pt < e; ++pt)
        v1[pt] = vh[pt - b] + fxc_[pt] * n1[pt];
    });
  };

  int start_iteration = 0;
  if (options_.warm_start) {
    const auto& ws = *options_.warm_start;
    AEQP_CHECK(ws.p1.rows() == nb && ws.p1.cols() == nb,
               "DfptSolver: warm start P^(1) has wrong dimensions");
    AEQP_CHECK(ws.iteration >= 1 && ws.iteration < options_.max_iterations,
               "DfptSolver: warm start iteration outside (0, max_iterations)");
    p1 = ws.p1;
    have_response = true;
    start_iteration = ws.iteration;
    compute_sumup(p1);
    compute_rho(p1);
  }

  double last_delta = 0.0;
  bool aborted = false;
  for (int iter = start_iteration + 1; iter <= options_.max_iterations; ++iter) {
    Timer timer;

    // --- H phase: response Hamiltonian H^(1) (Eqs. 10-12), on the host
    //     integrator or through the SIMT batch kernel. ---
    timer.reset();
    Matrix h1 = h1_ext;
    {
      AEQP_TRACE_SCOPE("cpscf/h");
      if (have_response) {
        if (options_.device) {
          Matrix vmat(nb, nb);
          kernels::h_kernel(*options_.device, grid, device_supports_, v1, vmat);
          h1.axpy(1.0, vmat);
        } else {
          h1.axpy(1.0, integ.potential_matrix(v1));
        }
        h1.symmetrize();
      }
      // Phase-boundary invariant: the response Hamiltonian is Hermitian by
      // construction; asymmetry or a non-finite entry is corruption.
      resilience::guard_hermitian(h1, "cpscf/h1");
    }
    t[Phase::H] += timer.seconds();

    // --- Sternheimer update. Static: U_ai = H^(1)_ai / (eps_i - eps_a).
    //     Dynamic (omega != 0): the +omega and -omega amplitudes
    //     X_ai, Y_ai of the coupled-perturbed equations. ---
    timer.reset();
    // Manual span object: the phase's output (c1) outlives the phase
    // region, so a braced scope cannot delimit it.
    obs::PhaseSpan phase_span;
    phase_span.begin("cpscf/sternheimer");
    const ResponseOrbitals c1 =
        sternheimer_update(h1, c_occ_, c_virt_, ground_.eigenvalues,
                           options_.frequency, options_.abft);
    phase_span.end();
    t[Phase::Sternheimer] += timer.seconds();

    // --- DM phase: P^(1) = sum_i f_i (C^(1)+ C^T + C C^(1)-T), the
    //     omega-generalization of Eq. (7). ---
    timer.reset();
    phase_span.begin("cpscf/dm");
    Matrix p1_new = response_density_matrix(c1, c_occ_, ground_.occupations);
    // Linear mixing stabilizes the CPSCF cycle.
    if (have_response) {
      p1_new.scale(options_.mixing);
      p1_new.axpy(1.0 - options_.mixing, p1);
    }
    const double delta = p1_new.max_abs_diff(p1);
    p1 = std::move(p1_new);
    last_delta = delta;
    // Phase-boundary invariants: P^(1) finite, and tr(P^(1) S) = 0 -- the
    // perturbation conserves the electron count, so the response DM is
    // traceless against the overlap metric.
    resilience::guard_finite(p1, "cpscf/p1");
    resilience::guard_trace_identity(p1, ground_.overlap, 0.0, "cpscf/p1");
    phase_span.end();
    t[Phase::DM] += timer.seconds();

    res.iterations = iter;
    if (options_.observer) {
      const CpscfIterationState state{j, iter, delta, options_.mixing, &p1};
      if (options_.observer(state) == CpscfAction::Abort) {
        aborted = true;
        break;
      }
    }

    // --- Sumup phase: n^(1)(r) on the grid (Eq. 8). ---
    timer.reset();
    {
      AEQP_TRACE_SCOPE("cpscf/sumup");
      compute_sumup(p1);
      // Second rung of the SDC ladder: the batch is a pure function of
      // P^(1), so a corrupted accumulation (transient by nature -- the
      // injector models an upset, not a broken unit) is repaired by one
      // local recompute, far cheaper than a checkpoint rollback. A second
      // violation means the corruption is not transient here; escalate.
      try {
        resilience::guard_finite({n1.data(), n1.size()}, "cpscf/n1");
      } catch (const InvariantViolation&) {
        obs::counter("sdc/local_recomputes").increment();
        obs::trace_instant("sdc/recompute");
        compute_sumup(p1);
        resilience::guard_finite({n1.data(), n1.size()}, "cpscf/n1");
      }
    }
    t[Phase::Sumup] += timer.seconds();

    // --- Rho phase: v^(1)_H by multipole Poisson solve (Eq. 9) plus the
    //     XC kernel term f_xc n^(1) (Eq. 12). ---
    timer.reset();
    {
      AEQP_TRACE_SCOPE("cpscf/rho");
      compute_rho(p1);
      resilience::guard_finite({v1.data(), v1.size()}, "cpscf/v1");
    }
    t[Phase::Rho] += timer.seconds();

    have_response = true;
    if (options_.verbose)
      AEQP_LOG_INFO << "DFPT dir " << j << " iter " << iter
                    << " max|dP1|=" << delta;
    if (delta < options_.tolerance && iter > 1) {
      res.converged = true;
      break;
    }
  }

  res.aborted = aborted;
  if (!res.converged && !aborted && options_.require_convergence) {
    std::ostringstream msg;
    msg << "DfptSolver: CPSCF failed to converge for direction " << j << ": "
        << res.iterations << " iterations, last max|dP1|=" << last_delta
        << ", tolerance=" << options_.tolerance
        << ", mixing=" << options_.mixing;
    AEQP_THROW(msg.str());
  }
  res.p1 = p1;
  res.n1_samples = n1;
  for (int axis = 0; axis < 3; ++axis) {
    res.dipole_response[axis] = integ.moment(n1, axis);
    // Independent path: mu_I = Tr(P D_I) => alpha_IJ = Tr(P^(1)_J D_I).
    res.dipole_response_trace[axis] =
        linalg::trace_product(p1, integ.dipole_matrix(axis));
  }
  return res;
}

DfptResult DfptSolver::solve_all() const {
  DfptResult res;
  for (int j = 0; j < 3; ++j)
    res.directions[static_cast<std::size_t>(j)] = solve_direction(j);
  return res;
}

}  // namespace aeqp::core
