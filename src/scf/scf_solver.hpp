#pragma once

/// \file scf_solver.hpp
/// Ground-state Kohn-Sham DFT (paper Sec. 2.1, Eqs. 1-6): the "DFT phase"
/// that supplies eigenstates C, eigenvalues eps and the ground density to
/// the DFPT phase. Closed-shell, LDA, all-electron numeric atomic orbitals.

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "common/vec3.hpp"
#include "grid/molecular_grid.hpp"
#include "grid/structure.hpp"
#include "linalg/matrix.hpp"
#include "poisson/multipole.hpp"
#include "scf/integrator.hpp"

namespace aeqp::scf {

/// Self-consistency acceleration scheme.
enum class Mixer {
  Linear,  ///< damped density-matrix mixing (robust default)
  Diis,    ///< Pulay DIIS on the Hamiltonian (faster near convergence)
};

class DiisMixer;

/// Snapshot handed to an ScfObserver at the end of every SCF iteration
/// (after mixing; the density matrix and residual are final for the
/// iteration, the convergence test has not run yet).
struct ScfIterationState {
  int iteration = 0;
  double delta = 0.0;    ///< max |n_out - n_in| of this iteration
  double energy = 0.0;   ///< total energy of this iteration
  const linalg::Matrix* density_matrix = nullptr;
  const DiisMixer* mixer = nullptr;  ///< DIIS state (always non-null)
};

/// Observer verdict; Abort ends the cycle (result reports converged=false).
enum class ScfAction { Continue, Abort };

/// Per-iteration hook (health validation, checkpointing).
using ScfObserver = std::function<ScfAction(const ScfIterationState&)>;

/// Resume point for an SCF cycle: the mixed density matrix after
/// `iteration` completed iterations plus the DIIS history (empty for the
/// linear mixer). The grid density and density functor are recomputed from
/// the density matrix, which reproduces the uninterrupted trajectory
/// bit-for-bit.
struct ScfWarmStart {
  int iteration = 0;
  linalg::Matrix density_matrix;
  /// (Hamiltonian, residual) pairs, oldest first, as exported by
  /// DiisMixer::export_history().
  std::vector<std::pair<linalg::Matrix, linalg::Matrix>> diis_history;
};

/// SCF configuration. Defaults are the "light" settings of the evaluation.
struct ScfOptions {
  basis::BasisTier tier = basis::BasisTier::Light;
  double r_cut = 7.0;                 ///< orbital confinement radius (bohr)
  grid::GridSpec grid;                ///< integration grid
  poisson::PoissonSpec poisson;       ///< Hartree solver settings
  int max_iterations = 80;
  double density_tolerance = 1e-6;    ///< max |n_out - n_in| convergence test
  double mixing = 0.35;               ///< linear density-matrix mixing factor
  Mixer mixer = Mixer::Linear;        ///< acceleration scheme
  /// Fermi-Dirac smearing width in hartree (paper Eq. 3); 0 = aufbau.
  double smearing_sigma = 0.0;
  Vec3 external_field{};              ///< homogeneous E-field (FD validation)
  bool verbose = false;
  /// Per-iteration hook for health validation and checkpointing; may abort
  /// the cycle. Null = no observation.
  ScfObserver observer;
  /// Resume from a previous iteration's state instead of from scratch.
  std::shared_ptr<const ScfWarmStart> warm_start;
};

/// Converged ground state plus the machinery DFPT reuses.
/// Breakdown of the converged total energy (paper Eq. 1's terms).
struct EnergyComponents {
  double kinetic = 0.0;        ///< T_s = Tr(P T)
  double external = 0.0;       ///< E_ext = Tr(P V_nuc)
  double hartree = 0.0;        ///< E_H = 1/2 \int n v_H
  double xc = 0.0;             ///< E_xc = \int n e_xc
  double nuclear = 0.0;        ///< E_nuc-nuc
  [[nodiscard]] double total() const {
    return kinetic + external + hartree + xc + nuclear;
  }
};

struct ScfResult {
  bool converged = false;
  int iterations = 0;
  double total_energy = 0.0;
  EnergyComponents components;  ///< Eq. (1) decomposition
  double homo = 0.0, lumo = 0.0;

  linalg::Vector eigenvalues;
  linalg::Matrix coefficients;    ///< C, columns are orbitals (Eq. 4)
  linalg::Matrix density_matrix;  ///< P of Eq. 6
  linalg::Matrix overlap;         ///< S
  linalg::Matrix hamiltonian;     ///< converged H
  linalg::Vector occupations;     ///< f_p per orbital
  int n_occupied = 0;             ///< orbitals with nonzero occupation

  std::vector<double> density_samples;  ///< n(r) on the grid
  Vec3 dipole{};                        ///< electronic dipole \int r n dV

  // Shared machinery (basis/grid/integrator/Hartree) for the DFPT phase.
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  std::shared_ptr<const BatchIntegrator> integrator;
  std::shared_ptr<const poisson::HartreeSolver> hartree;
};

/// Self-consistent field driver.
class ScfSolver {
public:
  ScfSolver(const grid::Structure& structure, ScfOptions options);

  /// Run to self-consistency; throws on non-convergence only if the caller
  /// asked for strict mode via options (result.converged reports status).
  [[nodiscard]] ScfResult run() const;

private:
  grid::Structure structure_;
  ScfOptions options_;
};

/// Build the density matrix P = C f C^T restricted to occupied columns
/// (paper Eq. 6).
linalg::Matrix density_matrix_from_orbitals(const linalg::Matrix& c,
                                            const linalg::Vector& occupations);

/// Closed-shell occupations: 2 per orbital, fractional HOMO for odd counts.
linalg::Vector aufbau_occupations(std::size_t n_orbitals, int n_electrons);

}  // namespace aeqp::scf
