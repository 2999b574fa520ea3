#pragma once

/// \file dfpt.hpp
/// Density-functional perturbation theory for homogeneous electric fields
/// (paper Sec. 2.1, Eqs. 7-13) -- the quantum perturbation self-consistency
/// cycle of Fig. 1, organized in the four OpenCL-accelerated phases of the
/// paper's artifact:
///
///   DM     response of the density matrix P^(1)            (Eq. 7)
///   Sumup  real-space response density n^(1)(r)            (Eq. 8)
///   Rho    response electrostatic potential v^(1)_es,tot   (Eq. 9)
///   H      response Hamiltonian H^(1)                      (Eqs. 10-12)
///
/// The cycle updates the coefficient response C^(1) through the Sternheimer
/// (sum-over-states) solution and iterates until self-consistency, then
/// forms the polarizability (Eq. 13). Each phase runs inside its
/// cpscf/{dm,sumup,rho,h,sternheimer} trace span, the cycle's only timing.

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "scf/diis.hpp"
#include "scf/scf_solver.hpp"
#include "simt/runtime.hpp"

namespace aeqp::core {

/// Snapshot handed to a CpscfObserver after the DM update of every CPSCF
/// iteration (P^(1) and the residual are final for the iteration at that
/// point; the Sumup/Rho phases that follow are derived from P^(1) alone).
struct CpscfIterationState {
  int direction = 0;
  int iteration = 0;
  /// max |F(P^(1)) - P^(1)| of this iteration: the unmixed residual of the
  /// P^(1) the iteration started from, whatever the mixing factor.
  double delta = 0.0;
  double mixing = 0.0;  ///< Pulay step beta in effect
  const linalg::Matrix* p1 = nullptr;  ///< response density matrix
  const scf::DiisMixer* mixer = nullptr;  ///< Pulay history (always non-null)
};

/// What the observer wants the cycle to do next. Abort ends the cycle
/// immediately (result reports converged = false); the resilience layer
/// uses it to cut off a numerically poisoned run before it wastes more
/// iterations.
enum class CpscfAction { Continue, Abort };

/// Per-iteration hook (health validation, checkpointing). In the parallel
/// solver it runs on rank 0 only and its decision is broadcast, so side
/// effects happen exactly once.
using CpscfObserver = std::function<CpscfAction(const CpscfIterationState&)>;

/// Resume point for a CPSCF cycle: the response density matrix after
/// `iteration` completed iterations plus the Pulay history. The response
/// potential is recomputed from P^(1) on resume, which reproduces the
/// uninterrupted trajectory bit-for-bit; an empty history restarts the
/// extrapolation with a plain mixing step. A resume point whose residual
/// already met the tolerance finishes converged at `iteration`, as the
/// uninterrupted run did.
struct CpscfWarmStart {
  int iteration = 0;
  linalg::Matrix p1;
  /// max |F(P^(1)) - P^(1)| of `iteration`; the default never converges.
  double last_delta = std::numeric_limits<double>::infinity();
  /// (P^(1) + beta r, r) pairs, oldest first, as exported by
  /// scf::DiisMixer::export_history().
  std::vector<std::pair<linalg::Matrix, linalg::Matrix>> diis_history;
};

/// DFPT configuration.
struct DfptOptions {
  int max_iterations = 40;
  /// Convergence threshold on the unmixed residual max |F(P^(1)) - P^(1)|,
  /// where F maps P^(1) through H -> Sternheimer -> DM; independent of
  /// `mixing`, so a damped run stops at the same accuracy.
  double tolerance = 1e-6;
  /// Pulay step beta: the next P^(1) is the combination of the last 8
  /// pairs (P^(1) + beta r, r) with the least extrapolated residual, r =
  /// F(P^(1)) - P^(1). With one pair that is linear mixing by beta.
  double mixing = 0.5;
  /// Perturbation frequency omega in hartree (0 = static response). The
  /// dynamic Sternheimer amplitudes X_ai = H1_ai/(eps_i - eps_a + omega)
  /// and Y_ai = H1_ai/(eps_i - eps_a - omega) yield the frequency-dependent
  /// polarizability alpha(omega); omega must stay below the first
  /// excitation (|eps_i - eps_a| > omega) for a real response.
  double frequency = 0.0;
  /// Execute the grid-heavy Sumup and H phases through the OpenCL-style
  /// SIMT runtime (one work-group per grid tile, __local dense blocks)
  /// instead of the host tile loops. The group bodies are the same tile
  /// operations, so results are bit-identical; the runtime's counters feed
  /// the device models. Needs a one-rank world (one runtime cannot take
  /// concurrent launches). Null = host execution.
  std::shared_ptr<simt::SimtRuntime> device;
  /// Cutoff-screening threshold tau for the batched Rho-phase evaluation
  /// (BasisSet::screening_radii). 0 disables screening entirely, which is
  /// bit-identical to the unscreened path; the default is the SCF's
  /// basis::kScreeningThreshold. Screening decisions derive from geometry
  /// and tau only, so any tau preserves the thread/rank determinism
  /// contract (docs/performance.md).
  double screening_threshold = basis::kScreeningThreshold;
  bool verbose = false;
  /// Run the Sternheimer/DM matmuls through the ABFT-checksummed variants
  /// (linalg/abft.hpp): a single corrupted product element is located and
  /// corrected in place, wider corruption raises linalg::AbftError for the
  /// recovery ladder. Fault-free the verified products are bit-identical to
  /// the plain kernels, at an O(n^2)-per-O(n^3) verification cost.
  bool abft = true;
  /// Per-iteration hook for health validation and checkpointing; may abort
  /// the cycle. Null = no observation.
  CpscfObserver observer;
  /// Resume from a previous iteration's state instead of from scratch.
  std::shared_ptr<const CpscfWarmStart> warm_start;
  /// Throw a detailed aeqp::Error (iterations, last residual, mixing) when
  /// the cycle exhausts max_iterations without converging, instead of
  /// returning converged = false.
  bool require_convergence = false;
};

/// Result of one perturbation direction J.
struct DfptDirectionResult {
  bool converged = false;
  bool aborted = false;  ///< an observer cut the cycle off (see CpscfAction)
  int iterations = 0;
  Vec3 dipole_response{};            ///< d mu_I / d xi_J via \int r_I n^(1)
  /// Same quantity via the matrix trace Tr(P^(1) D_I) -- an independent
  /// code path (density-matrix contraction instead of grid moments); the
  /// two agree to grid accuracy and are cross-checked in the tests.
  Vec3 dipole_response_trace{};
  linalg::Matrix p1;                 ///< converged P^(1)
  std::vector<double> n1_samples;    ///< n^(1) on the integration grid
};

/// Full polarizability run.
struct DfptResult {
  std::array<DfptDirectionResult, 3> directions;
  /// alpha_IJ = d mu_I / d xi_J (Eq. 13), bohr^3.
  [[nodiscard]] double polarizability(int i, int j) const {
    return directions[static_cast<std::size_t>(j)].dipole_response[i];
  }
  [[nodiscard]] double isotropic_polarizability() const {
    return (polarizability(0, 0) + polarizability(1, 1) + polarizability(2, 2)) /
           3.0;
  }
};

/// Response orbitals of one Sternheimer update: C^(1)+ = C_virt X and
/// C^(1)- = C_virt Y, with X_ai = H1_ai / (eps_i - eps_a + omega) and
/// Y_ai = H1_ai / (eps_i - eps_a - omega). Bitwise equal when omega = 0.
struct ResponseOrbitals {
  linalg::Matrix plus;
  linalg::Matrix minus;
};

/// Sternheimer update shared by DfptSolver and solve_direction_parallel:
/// H^(1)_ai = C_virt^T H^(1) C_occ, then the +-omega amplitudes and the two
/// DM-build products. With `abft` every product is checksum-verified
/// (sites cpscf/sternheimer_matmul and cpscf/dm_matmul). Throws
/// aeqp::Error when omega hits an excitation |eps_i - eps_a|.
[[nodiscard]] ResponseOrbitals sternheimer_update(const linalg::Matrix& h1,
                                                  const linalg::Matrix& c_occ,
                                                  const linalg::Matrix& c_virt,
                                                  const linalg::Vector& eigenvalues,
                                                  double omega, bool abft);

/// DM phase: P^(1) = sum_i f_i (C^(1)+ C^T + C C^(1)-^T), the omega-
/// generalization of Eq. (7); non-symmetric for omega != 0. Row-parallel
/// with each element summed over occupied orbitals in ascending order, so
/// bit-identical for every thread count.
[[nodiscard]] linalg::Matrix response_density_matrix(const ResponseOrbitals& c1,
                                                     const linalg::Matrix& c_occ,
                                                     const linalg::Vector& occupations);

namespace detail {
struct CpscfGround;
}  // namespace detail

/// DFPT driver bound to a converged ground state. Each direction runs the
/// shared CPSCF body (core/cpscf.hpp) as a one-rank simmpi world over the
/// integrator's grid tiles: the serial solver is the one-rank case of
/// solve_direction_parallel by construction.
class DfptSolver {
public:
  /// `ground` must come from a converged ScfSolver::run() on the same
  /// structure; its basis/grid/integrator/Hartree machinery is reused.
  DfptSolver(const scf::ScfResult& ground, DfptOptions options);

  /// Solve the CPSCF cycle for one field direction J in {0,1,2}.
  [[nodiscard]] DfptDirectionResult solve_direction(int j) const;

  /// All three directions -> polarizability tensor.
  [[nodiscard]] DfptResult solve_all() const;

private:
  const scf::ScfResult& ground_;
  DfptOptions options_;
  /// Orbital splits, f_xc and screening radii, built once per solver.
  std::shared_ptr<const detail::CpscfGround> inputs_;
};

}  // namespace aeqp::core
