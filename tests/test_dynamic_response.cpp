// Tests for the frequency-dependent DFPT extension: alpha(omega) from the
// dynamic Sternheimer amplitudes, on the serial and the distributed solver.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"
#include "simt/runtime.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::core;

const scf::ScfResult& ground_h2() {
  static const scf::ScfResult res = [] {
    grid::Structure s;
    s.add_atom(1, {0, 0, -0.7});
    s.add_atom(1, {0, 0, 0.7});
    scf::ScfOptions opt;
    opt.tier = basis::BasisTier::Light;
    opt.grid.radial_points = 36;
    opt.grid.angular_degree = 9;
    opt.poisson.radial_points = 72;
    opt.mixer = scf::Mixer::Diis;
    return scf::ScfSolver(s, opt).run();
  }();
  return res;
}

double alpha_zz_at(double omega) {
  DfptOptions opt;
  opt.frequency = omega;
  opt.tolerance = 1e-8;
  const DfptSolver dfpt(ground_h2(), opt);
  const auto r = dfpt.solve_direction(2);
  EXPECT_TRUE(r.converged) << "omega=" << omega;
  return r.dipole_response.z;
}

TEST(DynamicResponse, ZeroFrequencyReproducesStaticPath) {
  DfptOptions stat;
  stat.tolerance = 1e-9;
  DfptOptions dyn = stat;
  dyn.frequency = 0.0;
  const DfptSolver a(ground_h2(), stat), b(ground_h2(), dyn);
  const auto ra = a.solve_direction(2);
  const auto rb = b.solve_direction(2);
  EXPECT_NEAR(ra.dipole_response.z, rb.dipole_response.z, 1e-10);
}

TEST(DynamicResponse, DispersionIsNormalBelowFirstExcitation) {
  // alpha(omega) rises monotonically with omega below the first pole
  // (normal dispersion, Kramers-Kronig).
  const double a0 = alpha_zz_at(0.0);
  const double a1 = alpha_zz_at(0.05);
  const double a2 = alpha_zz_at(0.10);
  const double a3 = alpha_zz_at(0.15);
  EXPECT_GT(a1, a0);
  EXPECT_GT(a2, a1);
  EXPECT_GT(a3, a2);
  // Dispersion is quadratic at small omega: the Cauchy expansion
  // alpha(w) ~ alpha(0) + S(-4) w^2 predicts (a2-a0) ~ 4 (a1-a0).
  EXPECT_NEAR((a2 - a0) / (a1 - a0), 4.0, 0.5);
}

TEST(DynamicResponse, GrowsRapidlyApproachingResonance) {
  const auto& g = ground_h2();
  const double gap = g.lumo - g.homo;
  ASSERT_GT(gap, 0.2);
  const double near = alpha_zz_at(0.8 * gap);
  const double mid = alpha_zz_at(0.4 * gap);
  EXPECT_GT(near, 1.5 * mid);
}

TEST(DynamicResponse, ResonanceFrequencyRejected) {
  const auto& g = ground_h2();
  DfptOptions opt;
  opt.frequency = g.lumo - g.homo;  // exactly on the HOMO->LUMO pole
  const DfptSolver dfpt(g, opt);
  EXPECT_THROW(dfpt.solve_direction(2), Error);
}

TEST(DynamicResponse, TraceAndMomentStillAgree) {
  DfptOptions opt;
  opt.frequency = 0.08;
  const DfptSolver dfpt(ground_h2(), opt);
  const auto r = dfpt.solve_direction(2);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_NEAR(r.dipole_response[axis], r.dipole_response_trace[axis], 1e-8);
}

ParallelDfptOptions two_ranks(const DfptOptions& dfpt) {
  ParallelDfptOptions popt;
  popt.dfpt = dfpt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;
  popt.batch_points = 96;
  return popt;
}

TEST(DynamicResponse, DistributedMatchesSerialBelowFirstPole) {
  const auto& g = ground_h2();
  DfptOptions opt;
  opt.frequency = 0.3 * (g.lumo - g.homo);
  opt.tolerance = 1e-8;
  const auto serial = DfptSolver(g, opt).solve_direction(2);
  const auto par = solve_direction_parallel(g, two_ranks(opt), 2);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(par.direction.converged);
  EXPECT_EQ(par.direction.iterations, serial.iterations);
  EXPECT_NEAR(par.direction.dipole_response.z, serial.dipole_response.z, 1e-7);

  // The ranked path really solved at omega (not the static problem), on a
  // non-symmetric P^(1) -- the case the folded Rho contraction must get
  // exactly right.
  DfptOptions stat = opt;
  stat.frequency = 0.0;
  const auto par_static = solve_direction_parallel(g, two_ranks(stat), 2);
  EXPECT_GT(par.direction.dipole_response.z,
            par_static.direction.dipole_response.z + 1e-3);
  const auto& p1 = par.direction.p1;
  double asym = 0.0;
  for (std::size_t i = 0; i < p1.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      asym = std::max(asym, std::fabs(p1(i, j) - p1(j, i)));
  EXPECT_GT(asym, 1e-6);
}

TEST(DynamicResponse, DistributedRejectsResonanceAndDevice) {
  const auto& g = ground_h2();
  DfptOptions opt;
  opt.frequency = g.lumo - g.homo;
  EXPECT_THROW(solve_direction_parallel(g, two_ranks(opt), 2), Error);

  DfptOptions dev;
  dev.device = std::make_shared<simt::SimtRuntime>(simt::DeviceModel::gcn_gpu());
  EXPECT_THROW(solve_direction_parallel(g, two_ranks(dev), 2), Error);
}

}  // namespace
