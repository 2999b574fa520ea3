#pragma once

/// \file multipole.hpp
/// Per-atom multipole decomposition of a density and the partitioned
/// Hartree potential (paper Eqs. 8-9 and the Rho phase of Fig. 1).
///
/// Pipeline (identical for the ground-state density and the DFPT response
/// density):
///   1. project():  partition the density with Becke weights and project
///      each atom's share onto Y_lm per radial shell -> rho_multipole,
///      splined as rho_multipole_spl (the producer kernel's first output).
///      Each shell's ring uses the angular rule the integration grid's ramp
///      gives it (grid::shell_rules at degree 2 l_max + 2): small rules near
///      the nucleus, the full rule outside. A ring projects only the
///      channels its rule integrates exactly, l <= min(l_max, degree / 2);
///      every channel above that cap stays exactly 0 on that shell.
///   2. solve():    integrate the radial Poisson equation per (atom, l, m)
///      with the Adams-Moulton integrator -> delta_v_hart_part_spl
///      (the producer kernel's second output).
///   3. potential(): interpolate and sum the per-atom splines at arbitrary
///      points (the consumer kernel).

#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "basis/spline.hpp"
#include "common/vec3.hpp"
#include "grid/angular_grid.hpp"
#include "grid/partition.hpp"
#include "grid/radial_grid.hpp"
#include "grid/structure.hpp"
#include "obs/memaudit.hpp"

namespace aeqp::basis {
class BasisSet;
}
namespace aeqp::linalg {
class Matrix;
}

namespace aeqp::poisson {

/// Density callback n(r) evaluated at arbitrary Cartesian points.
using DensityFn = std::function<double(const Vec3&)>;

/// Batched density callback: evaluate n at `n` points into out[0..n). The
/// Rho-phase hot path hands whole angular rings to the callback at once so
/// the basis layer can amortize screening and scratch across the ring.
using BatchDensityFn =
    std::function<void(const Vec3* pts, std::size_t n, double* out)>;

/// The Rho producer's density callback for a density matrix, shared by the
/// SCF and the CPSCF: each ring is evaluated into its dense block in
/// thread-local scratch (the screened BasisSet::evaluate_batch), then
/// contracted by the one blocked density kernel (basis::block_density).
/// `folded` is basis::fold_density(P).
/// `basis`, `screen` and `folded` are captured by reference and must
/// outlive the callback; refolding `folded` in place retargets it.
[[nodiscard]] BatchDensityFn basis_density(const basis::BasisSet& basis,
                                           std::span<const double> screen,
                                           const linalg::Matrix& folded);

/// Configuration of the multipole Poisson solver.
struct PoissonSpec {
  int l_max = 4;                  ///< multipole expansion order
  std::size_t radial_points = 96; ///< radial mesh points per atom
  double r_min = 1e-4;
  double r_max = 12.0;            ///< radial mesh extent (covers the density)
};

/// rho_multipole: per atom, per (l,m), the radial profile of the Becke-
/// partitioned density component, plus its spline (rho_multipole_spl).
struct MultipoleDensity {
  // samples[a][lm][i] on the solver's radial mesh.
  std::vector<std::vector<std::vector<double>>> samples;
  // rho_multipole_spl[a][lm]
  std::vector<std::vector<basis::CubicSpline>> splines;

  [[nodiscard]] std::size_t atom_count() const { return samples.size(); }
  /// Payload bytes of all splines (Fig. 12(a) volume accounting).
  [[nodiscard]] std::size_t spline_bytes() const;
};

/// The partitioned Hartree potential: per atom, per (l,m), a radial spline
/// (delta_v_hart_part_spl) plus the far-field multipole moment.
struct PartitionedPotential {
  std::vector<std::vector<basis::CubicSpline>> splines;  // [a][lm]
  std::vector<std::vector<double>> moments;              // [a][lm] outer moments
  /// splines[a] repacked channel-contiguous: one interval search serves all
  /// (l,m) channels of an atom in the consumer kernel (potential_batch).
  std::vector<basis::SplineBundle> bundles;              // [a]
  int l_max = 0;
  double r_max = 0.0;
};

/// Multipole-expansion Hartree solver over a fixed structure.
class HartreeSolver {
public:
  HartreeSolver(const grid::Structure& structure, const PoissonSpec& spec);

  /// Step 1: project a density onto per-atom multipole components. The
  /// batched overload hands each (atom, radial shell)'s full angular ring to
  /// the callback in one call; the per-point overload wraps the density in a
  /// ring-at-a-time adapter, so both produce bit-identical projections.
  [[nodiscard]] MultipoleDensity project(const BatchDensityFn& density) const;
  [[nodiscard]] MultipoleDensity project(const DensityFn& density) const;

  /// Number of independent projection rows -- the (atom-major) x (radial
  /// shell) task list -- the unit of distribution for project_rows.
  [[nodiscard]] std::size_t projection_row_count() const;

  /// Ring points before each projection row (projection_row_count() + 1
  /// entries): row r evaluates ring_offsets()[r + 1] - ring_offsets()[r]
  /// density points, and one projection evaluates ring_offsets().back().
  /// Rows near a nucleus hold fewer points than the outer rows, so a share
  /// of rows is priced by its points, not by its length.
  [[nodiscard]] const std::vector<std::size_t>& ring_offsets() const {
    return ring_offsets_;
  }

  /// Step 1, partial: project only rows [row_begin, row_end) of the task
  /// list; every other row's samples stay exactly 0.0 and no splines are
  /// fitted. Each owned row runs the same arithmetic in the same order as
  /// project(), so summing disjoint partial projections across ranks
  /// reproduces project() bit-for-bit (x + 0 is exact in IEEE addition).
  /// The CPSCF's Rho phase runs it on every rank over the rank's share of
  /// the rows (core/cpscf.hpp). Call finalize_splines on the summed samples
  /// before solve().
  [[nodiscard]] MultipoleDensity project_rows(const BatchDensityFn& density,
                                              std::size_t row_begin,
                                              std::size_t row_end) const;

  /// Fit rho_multipole_spl from complete samples: SDC probe + finiteness
  /// guard + cubic-spline fit per (atom, lm) channel -- the tail of
  /// project(), split out so the CPSCF can run it after the ranks' partial
  /// projections have been summed.
  void finalize_splines(MultipoleDensity& rho) const;

  /// Step 2: radial Poisson solve for every (atom, l, m) channel.
  [[nodiscard]] PartitionedPotential solve(const MultipoleDensity& rho) const;

  /// Step 3: evaluate the summed potential at a point. Delegates to
  /// potential_batch with a single-point block.
  [[nodiscard]] double potential(const PartitionedPotential& v, const Vec3& p) const;

  /// Step 3, batched: evaluate the summed potential at a block of points
  /// into out[0..n). Per point the accumulation order (atom-major, then lm,
  /// with the ylm == 0 skip) matches the scalar potential() exactly, so the
  /// two are bit-identical. Whole blocks provably inside/outside an atom's
  /// spline span skip the per-point near/far branch (geometry-only
  /// classification; counters under rho/screen/*).
  void potential_batch(const PartitionedPotential& v, const Vec3* pts,
                       std::size_t n, double* out) const;

  /// Step 3 over a point set, the one Rho consumer of the SCF and the
  /// CPSCF: out[k] = v at pts[k], through potential_batch over the fixed
  /// blocks of tune::kRhoBlockSize consecutive points, the blocks spread
  /// over the pool. The partition depends on the point count alone, so the
  /// values and the rho/screen/potential_* counters are the same for every
  /// thread count.
  void potential_points(const PartitionedPotential& v, std::span<const Vec3> pts,
                        std::span<double> out) const;

  /// Convenience: all three steps.
  [[nodiscard]] PartitionedPotential solve_density(const DensityFn& density) const;
  [[nodiscard]] PartitionedPotential solve_density(const BatchDensityFn& density) const;

  [[nodiscard]] const PoissonSpec& spec() const { return spec_; }
  [[nodiscard]] const grid::RadialGrid& mesh() const { return mesh_; }
  [[nodiscard]] const grid::Structure& structure() const { return structure_; }

  /// Total charge contained in a projected density (l=0 moments); a cheap
  /// consistency diagnostic.
  [[nodiscard]] double total_charge(const MultipoleDensity& rho) const;

private:
  /// One angular rule of the ramp and the Y_lm of the channels it
  /// projects, l <= min(l_max, degree / 2).
  struct RingRule {
    grid::AngularGrid ang;
    std::size_t nlm = 0;      ///< channels projected on this rule
    std::vector<double> ylm;  ///< [k * nlm + lm]
  };

  grid::Structure structure_;
  PoissonSpec spec_;
  grid::RadialGrid mesh_;
  grid::BeckePartition partition_;
  std::vector<RingRule> rules_;
  std::vector<std::size_t> rule_of_shell_;  ///< [shell] -> index into rules_
  std::vector<std::size_t> ring_offsets_;

  /// Becke weight of every projection point, [ring_offsets_[row] + k] with
  /// row = atom * n_shells + shell. Geometry only, so it is built once, on
  /// the first projection (never in the constructor: solvers that never
  /// project pay nothing), and read by every projection after it.
  void build_ring_weights() const;
  mutable std::once_flag ring_weights_once_;
  mutable std::vector<double> ring_weights_;
  mutable obs::MemScope ring_weights_mem_{"poisson/ring_weights"};
};

}  // namespace aeqp::poisson
