#include "scf/scf_solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/eigen.hpp"
#include "obs/trace.hpp"
#include "resilience/guards.hpp"
#include "scf/diis.hpp"
#include "scf/occupations.hpp"
#include "xc/lda.hpp"

namespace aeqp::scf {

using linalg::Matrix;
using linalg::Vector;

linalg::Vector aufbau_occupations(std::size_t n_orbitals, int n_electrons) {
  AEQP_CHECK(n_electrons >= 0, "aufbau_occupations: negative electron count");
  AEQP_CHECK(static_cast<std::size_t>((n_electrons + 1) / 2) <= n_orbitals,
             "aufbau_occupations: basis too small for the electron count");
  Vector f(n_orbitals, 0.0);
  int remaining = n_electrons;
  for (std::size_t i = 0; i < n_orbitals && remaining > 0; ++i) {
    const double occ = std::min(2, remaining);
    f[i] = occ;
    remaining -= static_cast<int>(occ);
  }
  return f;
}

Matrix density_matrix_from_orbitals(const Matrix& c, const Vector& occupations) {
  const std::size_t nb = c.rows();
  AEQP_CHECK(occupations.size() == c.cols(), "density matrix: occupation mismatch");
  Matrix p(nb, nb);
  // Row-parallel: each worker owns whole rows of P, and the orbital
  // accumulation order inside a row matches the serial loop, so the result
  // is bit-identical for every thread count.
  exec::parallel_for_ranges(0, nb, 8, [&](std::size_t mb, std::size_t me) {
    for (std::size_t mu = mb; mu < me; ++mu) {
      double* prow = p.data() + mu * nb;
      for (std::size_t i = 0; i < occupations.size(); ++i) {
        const double f = occupations[i];
        if (f == 0.0) continue;
        const double cf = f * c(mu, i);
        if (cf == 0.0) continue;
        for (std::size_t nu = 0; nu < nb; ++nu) prow[nu] += cf * c(nu, i);
      }
    }
  });
  return p;
}

ScfSolver::ScfSolver(const grid::Structure& structure, ScfOptions options)
    : structure_(structure), options_(std::move(options)) {
  AEQP_CHECK(structure_.size() > 0, "ScfSolver: empty structure");
}

ScfResult ScfSolver::run() const {
  AEQP_TRACE_SCOPE("scf/run");
  ScfResult res;
  auto basis = std::make_shared<const basis::BasisSet>(structure_, options_.tier,
                                                       options_.r_cut);
  auto grid = std::make_shared<const grid::MolecularGrid>(
      grid::MolecularGrid::build(structure_, options_.grid));
  auto integ = std::make_shared<const BatchIntegrator>(basis, grid);
  auto hartree =
      std::make_shared<const poisson::HartreeSolver>(structure_, options_.poisson);

  const std::size_t nb = basis->size();
  const std::size_t np = grid->size();
  const int n_electrons = basis->electron_count();

  const Matrix s = integ->overlap();
  const Matrix t = integ->kinetic();
  const Matrix v_ext = integ->external_potential();
  Matrix h_core = t;
  h_core.axpy(1.0, v_ext);
  // Homogeneous external field: -xi . r enters the one-electron Hamiltonian
  // (paper Eq. 11's bare perturbation), used by finite-difference checks.
  for (int axis = 0; axis < 3; ++axis) {
    const double xi = options_.external_field[axis];
    if (xi != 0.0) h_core.axpy(-xi, integ->dipole_matrix(axis));
  }

  // Per-atom screening radii for the batched density evaluation (geometry +
  // threshold only, so screening is thread/rank deterministic).
  const std::vector<double> screen = basis->screening_radii(basis::kScreeningThreshold);
  // Grid point positions: the input of the initial density and of the Rho
  // consumer in every iteration.
  std::vector<Vec3> positions(np);
  for (std::size_t i = 0; i < np; ++i) positions[i] = grid->point(i).pos;

  // Initial density: superposition of spherical free atoms, as a batched
  // callback (the Hartree projection hands whole angular rings at once).
  poisson::BatchDensityFn density_fn = [&](const Vec3* pts, std::size_t m,
                                           double* outp) {
    for (std::size_t k = 0; k < m; ++k) {
      double n = 0.0;
      for (const auto& a : structure_.atoms()) {
        const double r = distance(pts[k], a.pos);
        if (r < basis->r_cut()) n += basis->free_atom_density(a.z, r);
      }
      outp[k] = n;
    }
  };

  Matrix p_mat;  // density matrix of the current iteration (empty initially)
  Matrix p_fold(nb, nb);  // basis::fold_density(p_mat), the projection's operand
  std::vector<double> n_samples(np, 0.0);
  exec::parallel_for_ranges(0, np, 64, [&](std::size_t b, std::size_t e) {
    density_fn(positions.data() + b, e - b, n_samples.data() + b);
  });

  // Density functor bound to the current density matrix; rebuilt after every
  // mixing step and on warm start (identical construction keeps a resumed
  // trajectory bit-for-bit equal to an uninterrupted one).
  const auto rebuild_density_fn = [&]() {
    basis::fold_density(p_mat, p_fold);
    density_fn = poisson::basis_density(*basis, screen, p_fold);
  };

  Vector occ;
  double e_total = 0.0;
  bool converged = false;
  int iter = 0;
  DiisMixer diis(kDiisHistory);

  int start_iteration = 0;
  if (options_.warm_start) {
    const auto& ws = *options_.warm_start;
    AEQP_CHECK(ws.density_matrix.rows() == nb && ws.density_matrix.cols() == nb,
               "ScfSolver: warm start density matrix has wrong dimensions");
    AEQP_CHECK(ws.iteration >= 1 && ws.iteration < options_.max_iterations,
               "ScfSolver: warm start iteration outside (0, max_iterations)");
    p_mat = ws.density_matrix;
    // The grid density and functor are derived state: recompute them from
    // the density matrix exactly as the iteration body does.
    n_samples = integ->density(p_mat);
    rebuild_density_fn();
    diis.import_history(ws.diis_history);
    start_iteration = ws.iteration;
  }

  for (iter = start_iteration + 1; iter <= options_.max_iterations; ++iter) {
    AEQP_TRACE_SCOPE("scf/iteration");
    obs::PhaseSpan phase_span;
    // Hartree potential of the current density (multipole Poisson solve).
    phase_span.begin("scf/hartree");
    const auto v_part = hartree->solve_density(density_fn);
    std::vector<double> v_eff(np), v_h(np), v_xc(np), exc(np);
    // The Sumup analogue of the SCF cycle: the Rho consumer interpolates
    // the partitioned potential at every grid point.
    hartree->potential_points(v_part, positions, v_h);
    exec::parallel_for_ranges(0, np, 256, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const xc::LdaPoint ldap = xc::lda_evaluate(std::max(n_samples[i], 0.0));
        v_xc[i] = ldap.vxc;
        exc[i] = ldap.exc;
        v_eff[i] = v_h[i] + v_xc[i];
      }
    });

    phase_span.begin("scf/hamiltonian");
    Matrix h = h_core;
    h.axpy(1.0, integ->potential_matrix(v_eff));
    // Phase-boundary guard: a corrupted integral poisons every eigenpair
    // downstream, so validate the Hamiltonian before diagonalization. H is
    // exactly symmetric by construction, so nothing is symmetrized away
    // before the guard looks.
    resilience::guard_hermitian(h, "scf/h");

    // DIIS extrapolates the Hamiltonian from the residual history.
    if (options_.mixer == Mixer::Diis && !p_mat.empty()) {
      h = diis.extrapolate(h, p_mat, s);
      h.symmetrize();
    }

    phase_span.begin("scf/diagonalize");
    const linalg::EigenSolution sol = linalg::generalized_symmetric_eigen(h, s);
    phase_span.begin("scf/density");
    occ = fermi_occupations(sol.eigenvalues, n_electrons, options_.smearing_sigma);
    Matrix p_new = density_matrix_from_orbitals(sol.eigenvectors, occ);

    // Linear density-matrix mixing (DIIS handles damping itself, but a few
    // damped start-up cycles keep it out of trouble).
    const bool damp = options_.mixer == Mixer::Linear || iter <= 2;
    if (!p_mat.empty() && damp) {
      p_new.scale(options_.mixing);
      p_new.axpy(1.0 - options_.mixing, p_mat);
    }
    const std::vector<double> n_new = integ->density(p_new);

    double delta = 0.0;
    for (std::size_t i = 0; i < np; ++i)
      delta = std::max(delta, std::fabs(n_new[i] - n_samples[i]));

    p_mat = std::move(p_new);
    n_samples = n_new;
    rebuild_density_fn();
    // Physics invariants at the density boundary: P finite, and the grid
    // density still integrates to the electron count (a struck density
    // matrix element shifts the norm far outside quadrature error).
    if (resilience::guards_enabled()) {
      resilience::guard_finite(p_mat, "scf/p");
      double integrated = 0.0;
      for (std::size_t i = 0; i < np; ++i)
        integrated += grid->point(i).weight * n_samples[i];
      resilience::guard_electron_count(integrated,
                                       static_cast<double>(n_electrons),
                                       "scf/density");
    }
    phase_span.end();

    // Total energy from the eigenvalue sum with double-counting corrections:
    // E = sum_i f_i eps_i - E_H - \int v_xc n + E_xc + E_nn.
    double band = 0.0;
    for (std::size_t i = 0; i < nb; ++i) band += occ[i] * sol.eigenvalues[i];
    double e_h = 0.0, e_vxc = 0.0, e_xc = 0.0;
    for (std::size_t i = 0; i < np; ++i) {
      const double w = grid->point(i).weight;
      e_h += 0.5 * w * n_samples[i] * v_h[i];
      e_vxc += w * n_samples[i] * v_xc[i];
      e_xc += w * n_samples[i] * exc[i];
    }
    e_total = band - e_h - e_vxc + e_xc + structure_.nuclear_repulsion();

    // Eq. (1) decomposition of the same state (stale by one mixing step
    // away from convergence, identical at the fixed point).
    res.components.kinetic = linalg::trace_product(p_mat, t);
    res.components.external = linalg::trace_product(p_mat, v_ext);
    res.components.hartree = e_h;
    res.components.xc = e_xc;
    res.components.nuclear = structure_.nuclear_repulsion();

    if (options_.verbose)
      AEQP_LOG_INFO << "SCF iter " << iter << " E=" << e_total
                    << " max|dn|=" << delta;

    res.eigenvalues = sol.eigenvalues;
    res.coefficients = sol.eigenvectors;
    res.hamiltonian = h;
    if (options_.observer) {
      const ScfIterationState state{iter, delta, e_total, &p_mat, &diis};
      if (options_.observer(state) == ScfAction::Abort) break;
    }
    if (delta < options_.density_tolerance) {
      converged = true;
      break;
    }
  }

  res.converged = converged;
  res.iterations = std::min(iter, options_.max_iterations);
  res.total_energy = e_total;
  res.density_matrix = p_mat;
  res.overlap = s;
  res.occupations = occ;
  res.n_occupied = 0;
  for (double f : occ) res.n_occupied += (f > 1e-6);  // smearing-tolerant
  if (res.n_occupied > 0 && static_cast<std::size_t>(res.n_occupied) < nb) {
    res.homo = res.eigenvalues[res.n_occupied - 1];
    res.lumo = res.eigenvalues[res.n_occupied];
  }
  res.density_samples = n_samples;
  for (int axis = 0; axis < 3; ++axis)
    res.dipole[axis] = integ->moment(n_samples, axis);
  res.basis = basis;
  res.grid = grid;
  res.integrator = integ;
  res.hartree = hartree;
  return res;
}

}  // namespace aeqp::scf
