#pragma once

/// \file integrator.hpp
/// Batch-based real-space integration of matrix elements over the molecular
/// grid: overlap, kinetic (via the radial-spline Laplacian), external
/// potential, and arbitrary multiplicative-potential matrices, plus density
/// synthesis n(r) = sum_{mu,nu} P_mu_nu chi_mu chi_nu (paper Eqs. 3, 8).
///
/// Basis values at grid points are evaluated once and cached as grid tiles
/// (scf/tiles.hpp): the cut-plane batches of grid::make_batches at
/// tune::kGridBatchPoints -- the same tiling the distributed CPSCF solver maps
/// onto ranks -- each holding its points' values densely against a local
/// basis block. The SCF and DFPT loops revisit every point dozens of times
/// with different potentials/density matrices; this cache is exactly the
/// per-batch working set an OpenCL work-group holds in the paper's kernels.
/// No Laplacian is cached: the constructor's one evaluation pass builds the
/// kinetic matrix from per-thread Laplacian scratch as it builds the tiles.
/// Matrix accumulation and density synthesis run through the tile engine:
/// pool-parallel tiles, tile-order flush, bit-identical for every thread
/// count; every accumulated matrix is exactly symmetric.

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "grid/molecular_grid.hpp"
#include "linalg/matrix.hpp"
#include "scf/tiles.hpp"

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

  /// Kinetic matrix T_mu_nu = -1/2 \int chi_mu nabla^2 chi_nu (symmetrized),
  /// built once by the constructor.
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
  /// Each axis is built on its first use and kept (geometry only, so the
  /// SCF field runs and every CPSCF direction share the three builds).
  [[nodiscard]] const linalg::Matrix& dipole_matrix(int axis) const;

  /// Density samples on the grid from a density matrix (Eq. 3 / Eq. 8 --
  /// the same contraction serves n and the response n^(1)). P is folded
  /// once per call and every tile runs the one blocked density kernel
  /// (basis::block_density).
  [[nodiscard]] std::vector<double> density(const linalg::Matrix& p) const;

  /// \int r_axis * f(r) dV for grid-sampled f (dipole moments, Eq. 13).
  [[nodiscard]] double moment(std::span<const double> samples, int axis) const;

  /// \int f dV.
  [[nodiscard]] double integrate(std::span<const double> samples) const;

  /// The cached grid tiles, in tile (flush) order; they cover every grid
  /// point exactly once.
  [[nodiscard]] const std::vector<GridTile>& tiles() const { return tiles_; }

private:
  std::shared_ptr<const basis::BasisSet> basis_;
  std::shared_ptr<const grid::MolecularGrid> grid_;

  std::vector<GridTile> tiles_;
  linalg::Matrix kinetic_;

  // Nuclear potential samples, built lazily (geometry-only, so shared by
  // every SCF and CPSCF iteration).
  mutable std::once_flag vnuc_once_;
  mutable std::vector<double> vnuc_samples_;
  // Dipole matrices, one per axis, built lazily the same way.
  mutable std::array<std::once_flag, 3> dipole_once_;
  mutable std::array<linalg::Matrix, 3> dipole_;

  /// M = sum_p w_p f(p) chi chi^T over every tile.
  template <typename Factor>
  [[nodiscard]] linalg::Matrix accumulate_weighted(Factor&& point_factor) const;
};

}  // namespace aeqp::scf
