#pragma once

/// \file integrator.hpp
/// Batch-based real-space integration of matrix elements over the molecular
/// grid: overlap, kinetic (via the radial-spline Laplacian), external
/// potential, and arbitrary multiplicative-potential matrices, plus density
/// synthesis n(r) = sum_{mu,nu} P_mu_nu chi_mu chi_nu (paper Eqs. 3, 8).
///
/// Basis values at grid points are evaluated once and cached in a sparse
/// per-point layout (indices + values), because the SCF and DFPT loops
/// revisit every point dozens of times with different potentials/density
/// matrices. This cache is exactly the per-batch working set an OpenCL
/// work-group holds in the paper's kernels.
///
/// Matrix accumulation is tiled: contiguous point ranges form tiles, each
/// with the sorted union of its active basis functions. A tile accumulates
/// into a dense local block indexed by that union (the paper's Sec. 4.3
/// indirect-access elimination applied on the host -- no m(mu, indices[j])
/// scatter in the inner loop) and the blocks are flushed to the global
/// matrix in tile order. Tiles run across the exec thread pool; the ordered
/// flush makes the result bit-identical for every thread count.

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "grid/molecular_grid.hpp"
#include "linalg/matrix.hpp"

namespace aeqp::scf {

/// Grid integrator bound to one (basis, grid) pair.
class BatchIntegrator {
public:
  BatchIntegrator(std::shared_ptr<const basis::BasisSet> basis,
                  std::shared_ptr<const grid::MolecularGrid> grid);

  [[nodiscard]] const basis::BasisSet& basis() const { return *basis_; }
  [[nodiscard]] const grid::MolecularGrid& grid() const { return *grid_; }

  /// Overlap matrix S_mu_nu = \int chi_mu chi_nu.
  [[nodiscard]] linalg::Matrix overlap() const;

  /// Kinetic matrix T_mu_nu = -1/2 \int chi_mu nabla^2 chi_nu (symmetrized).
  [[nodiscard]] linalg::Matrix kinetic() const;

  /// External (nuclear attraction) potential matrix:
  /// V_mu_nu = \int chi_mu (sum_A -Z_A/|r-R_A|) chi_nu.
  /// The per-point nuclear potential samples are computed once on first use
  /// and reused across SCF/CPSCF iterations (they depend only on geometry).
  [[nodiscard]] linalg::Matrix external_potential() const;

  /// Matrix of an arbitrary local potential sampled on the grid:
  /// V_mu_nu = \int chi_mu v(r) chi_nu.
  [[nodiscard]] linalg::Matrix potential_matrix(
      std::span<const double> v_samples) const;

  /// Electric dipole operator matrix D_mu_nu = \int chi_mu r_axis chi_nu.
  [[nodiscard]] linalg::Matrix dipole_matrix(int axis) const;

  /// Density samples on the grid from a density matrix (Eq. 3 / Eq. 8 --
  /// the same contraction serves n and the response n^(1)). P is folded
  /// once per call and contracted over half the pairs of each point's
  /// cached entries (basis::contract_density_folded).
  [[nodiscard]] std::vector<double> density(const linalg::Matrix& p) const;

  /// \int r_axis * f(r) dV for grid-sampled f (dipole moments, Eq. 13).
  [[nodiscard]] double moment(std::span<const double> samples, int axis) const;

  /// \int f dV.
  [[nodiscard]] double integrate(std::span<const double> samples) const;

  /// Number of grid points with at least one basis function in range.
  [[nodiscard]] std::size_t active_points() const;

private:
  std::shared_ptr<const basis::BasisSet> basis_;
  std::shared_ptr<const grid::MolecularGrid> grid_;

  // Sparse per-point cache.
  std::vector<std::uint32_t> offsets_;   // size n_points + 1
  std::vector<std::uint32_t> indices_;   // basis index per entry
  std::vector<double> values_;           // chi values per entry
  std::vector<double> laplacians_;       // matching Laplacians

  /// One accumulation tile: a contiguous point range plus the dense local
  /// index space of every basis function active anywhere in it.
  struct Tile {
    std::uint32_t p_begin = 0, p_end = 0;
    std::vector<std::uint32_t> basis_ids;  ///< sorted union of global ids
    /// Local index of each sparse cache entry in
    /// [offsets_[p_begin], offsets_[p_end]).
    std::vector<std::uint16_t> local_index;
  };
  std::vector<Tile> tiles_;

  // Nuclear potential samples, built lazily (geometry-only, so shared by
  // every SCF and CPSCF iteration).
  mutable std::once_flag vnuc_once_;
  mutable std::vector<double> vnuc_samples_;

  /// Accumulate M += w * x y^T tile by tile (pool-parallel compute, ordered
  /// flush).
  template <typename Getter>
  [[nodiscard]] linalg::Matrix accumulate_weighted(Getter&& point_factor,
                                                   bool use_laplacian) const;
};

}  // namespace aeqp::scf
