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

/// Basis values of a block of points held densely against the block's
/// columns: the per-batch "small dense block" of paper Fig. 3(b). The
/// projection rings (BatchEval) and the grid tiles (scf::GridTile) share
/// this layout, and every density contraction runs on it (block_density).
struct DenseBlock {
  std::vector<std::uint32_t> basis_ids;  ///< column -> global basis index, ascending
  /// Point-major chi: phi[k * ld + i] = chi_{basis_ids[i]}(point k),
  /// exactly 0 where chi vanishes and in the padding columns.
  std::vector<double> phi;
  std::size_t ld = 0;        ///< row stride of phi: basis_ids.size() rounded up to 4
  std::size_t n_points = 0;  ///< rows of phi

  [[nodiscard]] std::size_t points() const { return n_points; }
  /// Shape phi as `n` rows against the current basis_ids, every value 0.
  void reset(std::size_t n);
};

/// Result + scratch of one batched basis evaluation (BasisSet::
/// evaluate_batch): the block's dense values, plus the working buffers the
/// batch kernel reuses across calls, so a thread-local BatchEval evaluates
/// ring after ring without heap traffic.
struct BatchEval : DenseBlock {
  // Internal scratch (sized by the batch kernel; contents transient).
  std::vector<double> ylm;      ///< one point's Y_lm values
  std::vector<double> radial;   ///< one point's radial shell values
  std::vector<std::uint32_t> active;     ///< the block's active atoms
  std::vector<std::uint32_t> first_col;  ///< each active atom's first column
};

/// The solvers' cutoff-screening threshold tau (BasisSet::screening_radii):
/// it drops contributions of magnitude <= ~1e-12, far below the 1e-6
/// CPSCF tolerance.
inline constexpr double kScreeningThreshold = 1e-12;

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
  /// hot path). The columns are the functions of the block's active atoms,
  /// in global order; row k holds point k's values, and its nonzeros, in
  /// column order, are exactly the entries of evaluate(p, false, ev) -- same
  /// values, same order -- so per-point consumers stay bit-identical.
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
/// response n^(1)). Each row's nonzeros are read in column order -- the
/// per-point evaluation order -- and accumulated over their pairs with the
/// exact multiply order of the per-point path, so results are bit-identical
/// to it. The bitwise reference the solvers' kernel (block_density) is
/// tested against.
void contract_density(const linalg::Matrix& p, const BatchEval& ev, double* out);

/// Fold a density matrix for the half-pair contraction: F_ab = P_ab + P_ba
/// for a != b and F_aa = P_aa, so sum_{a,b} P_ab chi_a chi_b equals
/// sum_{a<=b} F_ab chi_a chi_b exactly for any P -- including the
/// non-symmetric response P^(1) of alpha(omega). `f` must already have P's
/// shape: callers allocate it once and refold every iteration.
void fold_density(const linalg::Matrix& p, linalg::Matrix& f);

/// The block's gathered upper triangle of F = fold_density(P), nloc rows
/// of stride ld: u[i * ld + j] = F(basis_ids[i], basis_ids[j]) for i <= j <
/// nloc, exactly 0 below the diagonal and in the padding columns.
void gather_upper(const linalg::Matrix& f, const DenseBlock& block, double* u);

/// The one density kernel: out[k] = sum_{i<=j} U_ij phi_ki phi_kj for every
/// point k of the block, against U = gather_upper(F). Register blocks of 4
/// points x 4 columns form G_kj = sum_{i<=j} phi_ki U_ij, i ascending, and
/// each point then adds phi_kj G_kj in column order. A zero phi or U term
/// adds an exact 0, so a point's value depends only on F and its own
/// nonzero entries: identical in every block that holds the point, for
/// every thread and rank count. It rounds differently from
/// contract_density's single chain. Exact for non-symmetric P.
void contract_upper(const double* u, const DenseBlock& block, double* out);

/// gather_upper + contract_upper through a per-thread scratch U: the
/// density of every point of a ring or a tile from the folded matrix.
void block_density(const linalg::Matrix& folded, const DenseBlock& block, double* out);

/// Multiply-adds contract_upper spends on each point: column block jb costs
/// min(jb + 4, nloc) rows of 4 products, and the final sum ld products.
[[nodiscard]] std::size_t upper_pairs(const DenseBlock& block);

}  // namespace aeqp::basis
