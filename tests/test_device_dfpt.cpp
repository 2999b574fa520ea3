// Tests for the device-engine DFPT path: the Sumup/H phases executed
// through the OpenCL-style SIMT runtime must reproduce the host-integrator
// results, while the runtime accumulates the architectural counters the
// device models consume.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"
#include "simt/device.hpp"

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
    opt.grid.radial_points = 30;
    opt.grid.angular_degree = 9;
    opt.poisson.radial_points = 72;
    opt.mixer = scf::Mixer::Diis;
    return scf::ScfSolver(s, opt).run();
  }();
  return res;
}

class DeviceEngine : public ::testing::TestWithParam<bool> {};

TEST_P(DeviceEngine, MatchesHostIntegratorPath) {
  const bool sunway = GetParam();
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);

  DfptOptions host;
  host.tolerance = 1e-8;
  const DfptSolver serial(ground, host);
  const auto ref = serial.solve_direction(2);

  DfptOptions dev = host;
  dev.device = std::make_shared<simt::SimtRuntime>(
      sunway ? simt::DeviceModel::sw39010() : simt::DeviceModel::gcn_gpu());
  const DfptSolver on_device(ground, dev);
  const auto got = on_device.solve_direction(2);

  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_NEAR(got.dipole_response.z, ref.dipole_response.z, 1e-9);
  EXPECT_LT(got.p1.max_abs_diff(ref.p1), 1e-10);
  ASSERT_EQ(got.n1_samples.size(), ref.n1_samples.size());
  for (std::size_t i = 0; i < ref.n1_samples.size(); ++i)
    ASSERT_NEAR(got.n1_samples[i], ref.n1_samples[i], 1e-11);

  // The runtime really executed kernels: two launches per CPSCF iteration
  // past the first (Sumup on every iteration, H once v1 exists).
  const auto& stats = dev.device->stats();
  EXPECT_GT(stats.launches, static_cast<std::size_t>(got.iterations));
  EXPECT_GT(stats.offchip_read_bytes, 0u);
  EXPECT_GT(stats.barriers, 0u);
  EXPECT_GT(dev.device->modeled_seconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Devices, DeviceEngine, ::testing::Bool());

// The kernels' group bodies are the host's tile operations over the same
// tiles, so the device run is the host run bit for bit.
TEST(DeviceEngineIdentity, EqualsHostRunBitForBit) {
  const auto& ground = ground_h2();
  DfptOptions host;
  host.tolerance = 1e-8;
  const auto ref = DfptSolver(ground, host).solve_direction(2);

  DfptOptions dev = host;
  dev.device = std::make_shared<simt::SimtRuntime>(simt::DeviceModel::gcn_gpu());
  const auto got = DfptSolver(ground, dev).solve_direction(2);

  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.p1.max_abs_diff(ref.p1), 0.0);
  ASSERT_EQ(got.n1_samples.size(), ref.n1_samples.size());
  for (std::size_t i = 0; i < ref.n1_samples.size(); ++i)
    ASSERT_EQ(got.n1_samples[i], ref.n1_samples[i]) << i;
}

// A one-rank distributed run takes a device too: at the default batch size
// its rank tile cache holds the integrator's tiles, so it reproduces the
// serial device run.
TEST(DeviceEngineIdentity, OneRankDistributedRunEqualsSerial) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.dfpt.device = std::make_shared<simt::SimtRuntime>(simt::DeviceModel::gcn_gpu());
  popt.ranks = 1;
  const auto ref = DfptSolver(ground, popt.dfpt).solve_direction(2);
  const auto got = solve_direction_parallel(ground, popt, 2).direction;
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.p1.max_abs_diff(ref.p1), 0.0);
  EXPECT_EQ(got.dipole_response.z, ref.dipole_response.z);
}

TEST(DeviceEngineCounts, LaunchCountMatchesPhaseStructure) {
  const auto& ground = ground_h2();
  DfptOptions dev;
  dev.device = std::make_shared<simt::SimtRuntime>(simt::DeviceModel::gcn_gpu());
  const DfptSolver solver(ground, dev);
  const auto r = solver.solve_direction(0);
  // Sumup launches every iteration; H launches from iteration 2 onward.
  const std::size_t expected =
      static_cast<std::size_t>(r.iterations) +
      static_cast<std::size_t>(r.iterations - 1);
  EXPECT_EQ(dev.device->stats().launches, expected);
}

}  // namespace
