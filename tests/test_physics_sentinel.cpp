// Physics sentinel: the polarizability the solver must keep while its
// numerics change underneath it.
//
//  - DFPT alpha equals a Richardson-extrapolated finite-difference
//    derivative of field-perturbed SCF dipoles, with the SCF and the CPSCF
//    both converged to 1e-10. The two share one Hartree kernel, so this
//    identity holds for any quadrature: it is the check a change of the
//    Poisson or grid machinery must pass.
//  - Golden alpha: H2 and CH4 at the example_aeqp_run settings with default
//    options match the committed perfbench/reference.txt tensors to 1e-6 of
//    the largest element -- the benchmark's own gate, so tier 1 fails
//    wherever the benchmark would (a changed SCF default included).
//  - A damped CPSCF (mixing 0.0625, the recovery ladder's fourth retry)
//    stops at the alpha of a tightly converged one.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>

#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

using Tensor = std::array<std::array<double, 3>, 3>;  // alpha[I][J]

grid::Structure molecule(const std::string& key) {
  if (key == "ch4") return core::methane();
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

/// The example_aeqp_run settings, which perfbench's workloads use.
scf::ScfOptions example_options() {
  scf::ScfOptions opt;
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 80;
  return opt;
}

/// An SCF converged far below the finite-difference truncation error.
scf::ScfOptions tight_options() {
  scf::ScfOptions opt = example_options();
  opt.mixer = scf::Mixer::Diis;
  opt.density_tolerance = 1e-10;
  opt.max_iterations = 200;
  return opt;
}

/// Ground states at the example settings (default ScfOptions otherwise),
/// one per molecule and shared by the tests below.
const scf::ScfResult& example_ground(const std::string& key) {
  static std::map<std::string, scf::ScfResult> cache;
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, scf::ScfSolver(molecule(key), example_options()).run()).first;
  return it->second;
}

double max_abs(const Tensor& t) {
  double m = 0.0;
  for (const auto& row : t)
    for (const double v : row) m = std::max(m, std::fabs(v));
  return m;
}

/// The seed-0 tensor of `key` in perfbench/reference.txt.
Tensor reference_alpha(const std::string& key) {
  std::ifstream in(AEQP_ALPHA_REFERENCE);
  EXPECT_TRUE(in.good()) << "cannot open " << AEQP_ALPHA_REFERENCE;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    double iso_tolerance = 0.0;
    fields >> name >> iso_tolerance;
    if (name != key) continue;
    Tensor alpha{};
    for (auto& row : alpha)
      for (double& v : row) fields >> v;
    EXPECT_FALSE(fields.fail()) << "malformed reference line: " << line;
    return alpha;
  }
  ADD_FAILURE() << "no reference for " << key;
  return {};
}

/// d mu / d xi_J from SCF dipoles at fields +-xi and +-2 xi along J: the
/// central differences D(h) = (mu(h) - mu(-h)) / 2h, Richardson-combined
/// as (4 D(xi) - D(2 xi)) / 3 to cancel their O(xi^2) error.
Vec3 fd_dipole_derivative(const grid::Structure& s, int j, double xi) {
  const auto dipole_at = [&](double field) {
    scf::ScfOptions opt = tight_options();
    opt.external_field[j] = field;
    const scf::ScfResult r = scf::ScfSolver(s, opt).run();
    EXPECT_TRUE(r.converged) << "field " << field << " along " << j;
    return r.dipole;
  };
  const auto central = [&](double h) {
    return (dipole_at(h) - dipole_at(-h)) / (2.0 * h);
  };
  return (4.0 * central(xi) - central(2.0 * xi)) / 3.0;
}

/// Richardson FD against DFPT for the directions in `dirs`; the largest
/// component difference of each column, relative to its largest element,
/// must stay below `bound`.
void expect_dfpt_matches_fd(const std::string& key, std::initializer_list<int> dirs,
                            double bound) {
  const grid::Structure s = molecule(key);
  const scf::ScfResult ground = scf::ScfSolver(s, tight_options()).run();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions dopt;
  dopt.tolerance = 1e-10;
  const core::DfptSolver dfpt(ground, dopt);
  for (const int j : dirs) {
    const core::DfptDirectionResult r = dfpt.solve_direction(j);
    ASSERT_TRUE(r.converged) << key << " direction " << j;
    const Vec3 fd = fd_dipole_derivative(s, j, 1e-3);
    double scale = 0.0, diff = 0.0;
    for (int i = 0; i < 3; ++i) {
      scale = std::max(scale, std::fabs(r.dipole_response[i]));
      diff = std::max(diff, std::fabs(r.dipole_response[i] - fd[i]));
    }
    EXPECT_LT(diff, bound * scale)
        << key << " direction " << j << ": DFPT " << r.dipole_response
        << " vs Richardson FD " << fd << " (relative " << diff / scale << ")";
  }
}

TEST(PhysicsSentinel, H2DfptMatchesRichardsonFdInEveryDirection) {
  expect_dfpt_matches_fd("h2", {0, 1, 2}, 1e-7);
}

TEST(PhysicsSentinel, Ch4DfptMatchesRichardsonFd) {
  expect_dfpt_matches_fd("ch4", {2}, 5e-5);
}

class GoldenAlpha : public ::testing::TestWithParam<const char*> {};

// Default ScfOptions/DfptOptions at the example settings land on the
// committed benchmark tensor.
TEST_P(GoldenAlpha, MatchesCommittedReference) {
  const std::string key = GetParam();
  const scf::ScfResult& ground = example_ground(key);
  ASSERT_TRUE(ground.converged);
  const core::DfptResult result = core::DfptSolver(ground, {}).solve_all();
  Tensor alpha{};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) alpha[i][j] = result.polarizability(i, j);
  const Tensor ref = reference_alpha(key);
  const double bound = 1e-6 * max_abs(ref);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_NEAR(alpha[i][j], ref[i][j], bound)
          << key << " alpha[" << i << "][" << j << "]";
}

INSTANTIATE_TEST_SUITE_P(Molecules, GoldenAlpha, ::testing::Values("h2", "ch4"));

// The convergence test reads the unmixed residual, so a damped run (the
// recovery ladder's fourth retry) stops as close to the answer as an
// undamped one.
TEST(PhysicsSentinel, DampedCpscfReachesTheConvergedAlpha) {
  const scf::ScfResult& ground = example_ground("ch4");
  ASSERT_TRUE(ground.converged);
  core::DfptOptions tight;
  tight.tolerance = 1e-11;
  const auto converged = core::DfptSolver(ground, tight).solve_direction(2);
  ASSERT_TRUE(converged.converged);
  core::DfptOptions damped;
  damped.mixing = 0.0625;
  const auto run = core::DfptSolver(ground, damped).solve_direction(2);
  ASSERT_TRUE(run.converged);
  const double alpha_zz = converged.dipole_response.z;
  EXPECT_NEAR(run.dipole_response.z, alpha_zz, 1e-7 * std::fabs(alpha_zz));
}

}  // namespace
