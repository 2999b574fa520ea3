// Tests for src/core/dfpt.cpp: the DFPT/CPSCF cycle. The headline property
// test validates the DFPT polarizability against a finite-difference dipole
// derivative of field-perturbed SCF runs -- the strongest end-to-end
// correctness check in the repository (DESIGN.md item 5).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/constants.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

scf::ScfOptions fast_options() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 80;
  opt.poisson.l_max = 4;
  opt.max_iterations = 150;
  opt.density_tolerance = 1e-7;
  return opt;
}

grid::Structure h2() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

TEST(Dfpt, RequiresConvergedGroundState) {
  scf::ScfResult fake;
  fake.converged = false;
  EXPECT_THROW(DfptSolver(fake, {}), Error);
}

TEST(Dfpt, H2ParallelPolarizabilityMatchesFiniteDifference) {
  const auto structure = h2();
  const auto opt = fast_options();
  const scf::ScfResult ground = scf::ScfSolver(structure, opt).run();
  ASSERT_TRUE(ground.converged);

  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptSolver dfpt(ground, dopt);
  const DfptDirectionResult rz = dfpt.solve_direction(2);
  ASSERT_TRUE(rz.converged);
  const double alpha_zz = rz.dipole_response.z;

  // Finite difference: alpha_zz = d mu_z / d xi at xi = 0.
  const double xi = 2e-3;
  auto opt_p = opt;
  opt_p.external_field = {0, 0, +xi};
  auto opt_m = opt;
  opt_m.external_field = {0, 0, -xi};
  const scf::ScfResult rp = scf::ScfSolver(structure, opt_p).run();
  const scf::ScfResult rm = scf::ScfSolver(structure, opt_m).run();
  ASSERT_TRUE(rp.converged);
  ASSERT_TRUE(rm.converged);
  const double alpha_fd = (rp.dipole.z - rm.dipole.z) / (2.0 * xi);

  EXPECT_GT(alpha_zz, 0.0);
  EXPECT_NEAR(alpha_zz, alpha_fd, 0.02 * std::fabs(alpha_fd))
      << "DFPT=" << alpha_zz << " FD=" << alpha_fd;
}

TEST(Dfpt, H2PerpendicularDirectionAlsoMatchesFd) {
  const auto structure = h2();
  const auto opt = fast_options();
  const scf::ScfResult ground = scf::ScfSolver(structure, opt).run();
  ASSERT_TRUE(ground.converged);

  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult rx = dfpt.solve_direction(0);
  ASSERT_TRUE(rx.converged);

  const double xi = 2e-3;
  auto opt_p = opt;
  opt_p.external_field = {+xi, 0, 0};
  auto opt_m = opt;
  opt_m.external_field = {-xi, 0, 0};
  const scf::ScfResult rp = scf::ScfSolver(structure, opt_p).run();
  const scf::ScfResult rm = scf::ScfSolver(structure, opt_m).run();
  const double alpha_fd = (rp.dipole.x - rm.dipole.x) / (2.0 * xi);

  EXPECT_NEAR(rx.dipole_response.x, alpha_fd, 0.03 * std::fabs(alpha_fd));
  // Perpendicular response is smaller than parallel for H2.
  const DfptDirectionResult rz = dfpt.solve_direction(2);
  EXPECT_LT(rx.dipole_response.x, rz.dipole_response.z);
}

TEST(Dfpt, TraceFormulaAgreesWithGridMoment) {
  // alpha via \int r n^(1) and via Tr(P^(1) D) are independent code paths
  // over the same converged response; they must agree to grid accuracy.
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult r = dfpt.solve_direction(2);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_NEAR(r.dipole_response[axis], r.dipole_response_trace[axis], 1e-6)
        << "axis " << axis;
}

TEST(Dfpt, ResponseDensityIntegratesToZero) {
  // The perturbation conserves electron number: \int n^(1) = 0.
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult r = dfpt.solve_direction(2);
  EXPECT_NEAR(ground.integrator->integrate(r.n1_samples), 0.0, 1e-6);
}

TEST(Dfpt, OffDiagonalSymmetryForSymmetricMolecule) {
  // For H2 along z, alpha_xz must vanish by symmetry.
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const DfptDirectionResult rz = dfpt.solve_direction(2);
  EXPECT_NEAR(rz.dipole_response.x, 0.0, 1e-5);
  EXPECT_NEAR(rz.dipole_response.y, 0.0, 1e-5);
}

// The cpscf/* trace spans are the cycle's only phase timing: a traced
// direction records every phase once per iteration, and Rho once per
// iteration but the last (the converged iteration skips it).
TEST(Dfpt, TraceSpansCoverEveryPhaseOfEveryIteration) {
  const scf::ScfResult ground = scf::ScfSolver(h2(), fast_options()).run();
  ASSERT_TRUE(ground.converged);
  const DfptSolver dfpt(ground, {});
  const obs::TraceMode mode = obs::mode();
  obs::set_mode(obs::TraceMode::Summary);
  obs::reset();
  const DfptDirectionResult r = dfpt.solve_direction(2);
  std::map<std::string, int> count;
  for (const obs::CompletedSpan& span : obs::completed_spans()) ++count[span.name];
  obs::set_mode(mode);
  obs::reset();
  ASSERT_TRUE(r.converged);
  for (const char* name : {"cpscf/h", "cpscf/sternheimer", "cpscf/dm", "cpscf/sumup"})
    EXPECT_EQ(count[name], r.iterations) << name;
  EXPECT_EQ(count["cpscf/rho"], r.iterations - 1);
}

TEST(Structures, WaterGeometry) {
  const auto w = water();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.atom(0).z, 8);
  const double roh = distance(w.atom(0).pos, w.atom(1).pos);
  EXPECT_NEAR(roh, 0.9572 * constants::angstrom_to_bohr, 1e-10);
}

TEST(Structures, PolyethyleneCountsMatchPaper) {
  EXPECT_EQ(polyethylene_chain(1).size(), 8u);
  EXPECT_EQ(polyethylene_chain(5000).size(), 30002u);   // paper system
  EXPECT_EQ(polyethylene_chain(10000).size(), 60002u);  // paper system
}

TEST(Structures, PolyethyleneBondLengthsSane) {
  const auto p = polyethylene_chain(3);
  // No two atoms closer than ~0.9 bohr; C-C neighbors near 2.91 bohr.
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t j = i + 1; j < p.size(); ++j)
      EXPECT_GT(distance(p.atom(i).pos, p.atom(j).pos), 0.9);
}

TEST(Structures, RbdClusterStatistics) {
  const auto c = rbd_like_cluster(3006, 11);
  EXPECT_EQ(c.size(), 3006u);
  // Composition roughly protein-like.
  std::size_t h = 0, heavy = 0;
  for (const auto& a : c.atoms()) (a.z == 1 ? h : heavy)++;
  EXPECT_GT(h, 1200u);
  EXPECT_LT(h, 1800u);
  // Minimum separation respected.
  const auto nb = c.neighbors_of(0, 1.89);
  EXPECT_TRUE(nb.empty());
}

TEST(Structures, RbdClusterDeterministicPerSeed) {
  const auto a = rbd_like_cluster(200, 5);
  const auto b = rbd_like_cluster(200, 5);
  const auto c = rbd_like_cluster(200, 6);
  EXPECT_DOUBLE_EQ(a.atom(17).pos.x, b.atom(17).pos.x);
  EXPECT_NE(a.atom(17).pos.x, c.atom(17).pos.x);
}

TEST(Structures, LigandLikeHas49Atoms) {
  const auto l = ligand_like();
  EXPECT_EQ(l.size(), 49u);
  bool has_heavy = false, has_h = false;
  for (const auto& a : l.atoms()) {
    if (a.z > 1) has_heavy = true;
    if (a.z == 1) has_h = true;
  }
  EXPECT_TRUE(has_heavy);
  EXPECT_TRUE(has_h);
}

}  // namespace
