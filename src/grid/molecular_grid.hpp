#pragma once

/// \file molecular_grid.hpp
/// Assembly of the discretized 3-D integration grid of paper Fig. 2:
/// non-uniform radial-spherical shells centered on every nucleus, weighted
/// by the Becke partition of unity, then flattened into one array of grid
/// points ready to be cut into batches.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vec3.hpp"
#include "grid/angular_grid.hpp"
#include "grid/partition.hpp"
#include "grid/radial_grid.hpp"
#include "grid/structure.hpp"

namespace aeqp::grid {

/// One integration point. `atom` is the atom whose shells generated it
/// (the "grid points of atom X" coloring in the paper's Fig. 2).
struct GridPoint {
  Vec3 pos{};
  double weight = 0.0;  ///< radial x angular x Becke weight
  std::uint32_t atom = 0;
};

/// Knobs for grid construction. Defaults correspond to the "light" settings
/// the paper's evaluation uses.
struct GridSpec {
  std::size_t radial_points = 36;     ///< log-mesh points per atom
  double r_min = 1e-4;                ///< innermost shell radius (bohr)
  double r_max = 10.0;                ///< outermost shell radius (bohr)
  std::size_t angular_degree = 9;     ///< outer-region angular exactness
  bool becke_weights = true;          ///< false: positions only (mapping studies)
  double weight_cutoff = 1e-12;       ///< drop points with tinier weights
};

/// The flattened molecular integration grid.
class MolecularGrid {
public:
  static MolecularGrid build(const Structure& structure, const GridSpec& spec);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] const GridPoint& point(std::size_t i) const { return points_[i]; }
  [[nodiscard]] const std::vector<GridPoint>& points() const { return points_; }
  [[nodiscard]] const GridSpec& spec() const { return spec_; }

  /// \int f dV as sum of w_i * f_i over samples aligned with points().
  [[nodiscard]] double integrate(const std::vector<double>& samples) const;

private:
  std::vector<GridPoint> points_;
  GridSpec spec_;
};

/// Angular exactness used for the shell at radial index i of n: small rules
/// near the nucleus, the full requested degree outside (FHI-aims-style ramp).
std::size_t angular_degree_for_shell(std::size_t i, std::size_t n,
                                     std::size_t outer_degree);

/// The ramp's rule table for n shells: the distinct rules it requests, in
/// order of first use, and each shell's index into them. The integration
/// grid and the Hartree solver's projection rings build their shells from
/// it.
struct ShellRules {
  std::vector<AngularGrid> rules;
  std::vector<std::size_t> rule_of_shell;  ///< [shell] -> index into rules
};
ShellRules shell_rules(std::size_t n, std::size_t outer_degree);

}  // namespace aeqp::grid
