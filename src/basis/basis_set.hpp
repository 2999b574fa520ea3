#pragma once

/// \file basis_set.hpp
/// The molecular basis set: every atom contributes the numeric atomic
/// orbitals of its element, chi_mu(r) = R(|r-R_A|) * Y_lm(r-R_A). This is
/// the finite basis of paper Eq. (4); overlap/Hamiltonian/density matrices
/// are indexed by mu over this set.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "basis/element.hpp"
#include "basis/radial_function.hpp"
#include "common/vec3.hpp"
#include "grid/radial_grid.hpp"
#include "grid/structure.hpp"
#include "linalg/matrix.hpp"
#include "obs/memaudit.hpp"

namespace aeqp::basis {

/// Metadata of one basis function.
struct BasisFunction {
  std::uint32_t atom = 0;    ///< owning atom index in the structure
  std::uint32_t radial = 0;  ///< index into BasisSet radial table
  int l = 0;
  int m = 0;
};

/// Scratch/result container for evaluating all nonzero basis functions at a
/// point. Reused across points to avoid allocation in the integration loop.
struct PointEval {
  std::vector<std::uint32_t> indices;  ///< global basis indices mu
  std::vector<double> values;          ///< chi_mu(point)
  std::vector<double> laplacians;      ///< nabla^2 chi_mu(point) (if requested)
  void clear() {
    indices.clear();
    values.clear();
    laplacians.clear();
  }
};

/// Result + scratch of one batched basis evaluation: the nonzero basis
/// values of a whole block of points in one CSR-like SoA layout
/// (offsets/indices/values), plus the per-point working buffers the batch
/// kernel reuses across calls. Keeping the container alive across batches
/// eliminates the per-point heap traffic (ylm vector, PointEval push_back
/// growth) of the per-point path.
struct BatchEval {
  std::vector<std::uint32_t> offsets;  ///< size n_points + 1
  std::vector<std::uint32_t> indices;  ///< global basis index per entry
  std::vector<double> values;          ///< chi values per entry

  [[nodiscard]] std::size_t points() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  // Internal scratch (sized by the batch kernel; contents transient).
  std::vector<double> ylm;      ///< one point's Y_lm values
  std::vector<double> radial;   ///< one point's radial shell values
};

/// All-electron numeric atomic orbital basis over a structure.
class BasisSet {
public:
  /// Build the basis. `r_cut` is the orbital confinement radius in bohr and
  /// controls the sparsity/locality trade-off.
  BasisSet(const grid::Structure& structure, BasisTier tier, double r_cut = 7.0);

  [[nodiscard]] std::size_t size() const { return functions_.size(); }
  [[nodiscard]] const BasisFunction& function(std::size_t mu) const {
    return functions_[mu];
  }
  [[nodiscard]] const NumericRadialFunction& radial(std::size_t idx) const {
    return *radials_[idx];
  }
  [[nodiscard]] const grid::Structure& structure() const { return structure_; }
  [[nodiscard]] double r_cut() const { return r_cut_; }
  [[nodiscard]] BasisTier tier() const { return tier_; }

  /// Contiguous [first, last) basis-function range of atom a.
  [[nodiscard]] std::pair<std::size_t, std::size_t> atom_range(std::size_t a) const;

  /// Highest angular momentum over all elements present.
  [[nodiscard]] int l_max() const { return l_max_; }

  /// Evaluate every basis function that is nonzero at `p`; optionally also
  /// the Laplacians needed for kinetic-energy integrals.
  void evaluate(const Vec3& p, bool with_laplacian, PointEval& out) const;

  /// Per-atom screening radii for the batched evaluation path: atom a may
  /// be skipped for a whole point block when every block point is at least
  /// radii[a] away from it. At tau = 0 the radius is exactly r_cut (the
  /// support of the orbitals), so screening drops only exact zeros and the
  /// batched path stays bit-identical to the per-point one. At tau > 0 the
  /// radius shrinks to the outermost mesh point where any shell's |R|
  /// envelope still exceeds tau, dropping contributions of magnitude
  /// <= ~tau. The radii depend on geometry and tau only -- never on thread
  /// count, rank count, or block partition -- preserving the determinism
  /// contract (docs/performance.md).
  [[nodiscard]] std::vector<double> screening_radii(double tau) const;

  /// Evaluate a block of points at once into `out` (values only, the Rho
  /// hot path). Per point, the emitted (index, value) entries and their
  /// order are identical to evaluate(p, false, ev) -- same atom/shell/m
  /// order, same v == 0 skip -- so per-point consumers are bit-identical.
  /// `screen` is either empty (no screening) or one radius per atom from
  /// screening_radii(). Screening decisions are made per (atom, block)
  /// from geometry alone; obs counters rho/screen/* record them.
  void evaluate_batch(const Vec3* pts, std::size_t n,
                      std::span<const double> screen, BatchEval& out) const;

  /// Spherical free-atom density n_atom(r) of element z (occupied shells,
  /// 1/(4 pi) angular average); the SCF initial guess superposes these.
  [[nodiscard]] double free_atom_density(int z, double r) const;

  /// Number of electrons for the neutral system.
  [[nodiscard]] int electron_count() const { return structure_.total_charge(); }

private:
  struct ElementEntry {
    ElementBasis def;
    std::vector<std::size_t> radial_indices;  // one per shell
    /// Shell splines packed channel-contiguous (all share mesh_): one
    /// interval search serves every shell of the element at a point.
    SplineBundle radial_bundle;
    /// Suffix maximum of max_s |R_s(r_i)| over the mesh -- the tail
    /// envelope screening_radii() thresholds against.
    std::vector<double> tail_envelope;
  };

  grid::Structure structure_;
  BasisTier tier_;
  double r_cut_;
  grid::RadialGrid mesh_;
  std::map<int, ElementEntry> elements_;
  std::vector<std::unique_ptr<NumericRadialFunction>> radials_;
  std::vector<BasisFunction> functions_;
  std::vector<std::size_t> atom_first_;  // first function of each atom, +sentinel
  /// Per-atom element entry, resolved once at construction so the hot
  /// paths never touch the elements_ map (satellite of ISSUE 7).
  std::vector<const ElementEntry*> atom_entries_;
  int l_max_ = 0;
  /// Memory-audit registrations (released when the BasisSet dies):
  /// per-element spline/envelope tables vs per-function O(N) tables.
  obs::MemScope spline_mem_{"basis/spline_tables"};
  obs::MemScope table_mem_{"basis/function_table"};
};

/// Density contraction n(p) = sum_{mu,nu} P_mu_nu chi_mu(p) chi_nu(p) for
/// every point of a batched evaluation (Eq. 8 -- serves both n and the
/// response n^(1)). The per-point accumulation runs over the point's entry
/// pairs in ascending order with the exact multiply order of the per-point
/// path, so results are bit-identical to it. The bitwise reference the
/// solvers' folded kernel (contract_density_folded) is tested against.
void contract_density(const linalg::Matrix& p, const BatchEval& ev, double* out);

/// Fold a density matrix for the half-pair contraction: F_ab = P_ab + P_ba
/// for a != b and F_aa = P_aa, so sum_{a,b} P_ab chi_a chi_b equals
/// sum_{a<=b} F_ab chi_a chi_b exactly for any P -- including the
/// non-symmetric response P^(1) of alpha(omega). `f` must already have P's
/// shape: callers allocate it once and refold every iteration.
void fold_density(const linalg::Matrix& p, linalg::Matrix& f);

/// Folded density contraction over a CSR basis evaluation:
/// out[k] = sum_{a<=b} F(idx_a, idx_b) chi_a chi_b, with F = fold_density(P),
/// over the half of the entry pairs with a <= b (entry order within a point
/// is free: F is symmetric off the diagonal). Rows run in pairs on split
/// partial sums, so a point's pair updates no longer form one dependent
/// chain of adds. The result depends only on F and the point's
/// own entries -- identical for every thread and rank count -- but rounds
/// differently from contract_density's single chain. `offsets[0..n_points]`
/// index `indices`/`values` absolutely, so a caller contracts a sub-range
/// of a larger CSR by advancing `offsets`.
void contract_density_folded(const linalg::Matrix& f, const std::uint32_t* offsets,
                             std::size_t n_points, const std::uint32_t* indices,
                             const double* values, double* out);

/// The same folded kernel against a dense row-major block `f` of leading
/// dimension `ld`, addressed by 16-bit local indices: the grid-tile form
/// (scf/tiles.hpp). Rounds exactly like the global-index form over the
/// same entries and the same F values.
void contract_density_folded(const double* f, std::size_t ld,
                             const std::uint32_t* offsets, std::size_t n_points,
                             const std::uint16_t* indices, const double* values,
                             double* out);

/// contract_density_folded over every point of a batched evaluation.
void contract_density_folded(const linalg::Matrix& f, const BatchEval& ev,
                             double* out);

}  // namespace aeqp::basis
