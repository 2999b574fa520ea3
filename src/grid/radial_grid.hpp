#pragma once

/// \file radial_grid.hpp
/// Logarithmic radial meshes for all-electron atom-centered integration and
/// for tabulating numeric atomic orbitals.
///
/// All-electron densities have nuclear cusps, so the mesh must be dense near
/// r = 0 and sparse far out: r_i = r_min * exp(i*h). The same mesh carries
/// the radial quadrature weights (including the r^2 Jacobian) and is where
/// the Adams-Moulton radial Poisson integration (src/poisson) runs.

#include <cstddef>
#include <functional>
#include <vector>

namespace aeqp::grid {

/// Logarithmic radial mesh r_i = r_min * exp(i * h), i = 0 .. n-1.
class RadialGrid {
public:
  /// Build a mesh with n points spanning [r_min, r_max].
  RadialGrid(std::size_t n, double r_min, double r_max);

  [[nodiscard]] std::size_t size() const { return r_.size(); }
  [[nodiscard]] double r(std::size_t i) const { return r_[i]; }
  [[nodiscard]] const std::vector<double>& points() const { return r_; }
  [[nodiscard]] double r_min() const { return r_.front(); }
  [[nodiscard]] double r_max() const { return r_.back(); }
  [[nodiscard]] double log_step() const { return h_; }

  /// Quadrature weight for \int f(r) r^2 dr  (volume integrals of spherical
  /// shells): w_i = r_i^3 * h with trapezoid end corrections.
  [[nodiscard]] double volume_weight(std::size_t i) const { return w_vol_[i]; }

  /// \int f(r) r^2 dr over the mesh span.
  [[nodiscard]] double integrate_volume(const std::vector<double>& f) const;

  /// \int f(r) dr over the mesh span.
  [[nodiscard]] double integrate_line(const std::vector<double>& f) const;

  /// Tabulate a callable on the mesh.
  [[nodiscard]] std::vector<double> tabulate(
      const std::function<double(double)>& f) const;

  /// Index of the largest mesh point <= r (clamped to [0, n-2]); the
  /// fractional offset within the log step is returned through t.
  [[nodiscard]] std::size_t locate(double r, double& t) const;

private:
  std::vector<double> r_;
  std::vector<double> w_vol_;
  std::vector<double> w_line_;
  double h_ = 0.0;
};

}  // namespace aeqp::grid
