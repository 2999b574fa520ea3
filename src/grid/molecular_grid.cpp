#include "grid/molecular_grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aeqp::grid {

std::size_t angular_degree_for_shell(std::size_t i, std::size_t n,
                                     std::size_t outer_degree) {
  const double frac = static_cast<double>(i) / static_cast<double>(n);
  if (frac < 0.25) return std::min<std::size_t>(3, outer_degree);
  if (frac < 0.45) return std::min<std::size_t>(5, outer_degree);
  if (frac < 0.65) return std::min<std::size_t>(7, outer_degree);
  return outer_degree;
}

ShellRules shell_rules(std::size_t n, std::size_t outer_degree) {
  ShellRules out;
  std::vector<std::size_t> degrees;
  out.rule_of_shell.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t deg = angular_degree_for_shell(i, n, outer_degree);
    const auto it = std::find(degrees.begin(), degrees.end(), deg);
    out.rule_of_shell[i] = static_cast<std::size_t>(it - degrees.begin());
    if (it == degrees.end()) {
      degrees.push_back(deg);
      out.rules.push_back(AngularGrid::for_degree(deg));
    }
  }
  return out;
}

MolecularGrid MolecularGrid::build(const Structure& structure, const GridSpec& spec) {
  AEQP_CHECK(structure.size() > 0, "MolecularGrid: empty structure");
  MolecularGrid grid;
  grid.spec_ = spec;

  const RadialGrid radial(spec.radial_points, spec.r_min, spec.r_max);
  const ShellRules ramp = shell_rules(spec.radial_points, spec.angular_degree);

  const BeckePartition* partition = nullptr;
  Structure trivial;
  trivial.add_atom(1, {0.0, 0.0, 0.0});
  const BeckePartition becke_storage(spec.becke_weights ? structure : trivial);
  if (spec.becke_weights) partition = &becke_storage;

  for (std::size_t a = 0; a < structure.size(); ++a) {
    const Vec3 center = structure.atom(a).pos;
    for (std::size_t i = 0; i < spec.radial_points; ++i) {
      const AngularGrid& ang = ramp.rules[ramp.rule_of_shell[i]];
      const double r = radial.r(i);
      const double wr = radial.volume_weight(i);
      for (std::size_t k = 0; k < ang.size(); ++k) {
        GridPoint p;
        p.pos = center + r * ang.direction(k);
        p.atom = static_cast<std::uint32_t>(a);
        double w = wr * ang.weight(k);
        if (partition) w *= partition->weight(a, p.pos);
        if (w < spec.weight_cutoff) continue;
        p.weight = w;
        grid.points_.push_back(p);
      }
    }
  }
  return grid;
}

double MolecularGrid::integrate(const std::vector<double>& samples) const {
  AEQP_CHECK(samples.size() == points_.size(), "integrate: sample count mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) s += points_[i].weight * samples[i];
  return s;
}

}  // namespace aeqp::grid
