// Tests for kernels/batch_kernels.hpp: the Sumup and H phases in the
// OpenCL-style batch execution model, validated against the serial
// BatchIntegrator on real molecules.

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/structures.hpp"
#include "grid/batch.hpp"
#include "kernels/batch_kernels.hpp"
#include "scf/integrator.hpp"
#include "simt/device.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::kernels;

struct Workbench {
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  std::vector<grid::Batch> batches;
  std::vector<scf::GridTile> supports;
  std::unique_ptr<scf::BatchIntegrator> integ;
};

Workbench make_workbench(const grid::Structure& s, std::size_t batch_points = 96) {
  Workbench setup;
  setup.basis =
      std::make_shared<const basis::BasisSet>(s, basis::BasisTier::Minimal);
  grid::GridSpec spec;
  spec.radial_points = 28;
  spec.angular_degree = 9;
  setup.grid = std::make_shared<const grid::MolecularGrid>(
      grid::MolecularGrid::build(s, spec));
  setup.batches = grid::make_batches(*setup.grid, batch_points);
  setup.supports = scf::build_tiles(*setup.basis, *setup.grid, setup.batches);
  setup.integ = std::make_unique<scf::BatchIntegrator>(setup.basis, setup.grid);
  return setup;
}

linalg::Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) m(i, j) = m(j, i) = rng.uniform(-1, 1);
  return m;
}

TEST(BatchSupports, CoverEveryPointOnce) {
  const Workbench s = make_workbench(core::water());
  std::vector<int> seen(s.grid->size(), 0);
  for (const auto& sup : s.supports) {
    EXPECT_EQ(sup.offsets.size(), sup.point_ids.size() + 1);
    for (auto pid : sup.point_ids) seen[pid]++;
    // Local indices stay within the block.
    for (auto li : sup.local_index) EXPECT_LT(li, sup.basis_ids.size());
    // Global basis ids are sorted and unique.
    for (std::size_t i = 1; i < sup.basis_ids.size(); ++i)
      EXPECT_LT(sup.basis_ids[i - 1], sup.basis_ids[i]);
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

class BatchKernelDevices : public ::testing::TestWithParam<bool> {};

TEST_P(BatchKernelDevices, SumupMatchesIntegrator) {
  const bool sunway = GetParam();
  const Workbench s = make_workbench(core::water());
  const auto p1 = random_symmetric(s.basis->size(), 42);

  simt::SimtRuntime rt(sunway ? simt::DeviceModel::sw39010()
                              : simt::DeviceModel::gcn_gpu());
  std::vector<double> n1(s.grid->size(), 0.0);
  sumup_kernel(rt, *s.grid, s.supports, p1, n1);

  const auto reference = s.integ->density(p1);
  ASSERT_EQ(n1.size(), reference.size());
  for (std::size_t i = 0; i < n1.size(); ++i)
    EXPECT_NEAR(n1[i], reference[i], 1e-12) << i;
  EXPECT_EQ(rt.stats().launches, 1u);
  EXPECT_GT(rt.stats().barriers, 0u);
}

TEST_P(BatchKernelDevices, HKernelMatchesIntegrator) {
  const bool sunway = GetParam();
  const Workbench s = make_workbench(core::water());
  Rng rng(43);
  std::vector<double> v(s.grid->size());
  for (auto& x : v) x = rng.uniform(-0.5, 0.5);

  simt::SimtRuntime rt(sunway ? simt::DeviceModel::sw39010()
                              : simt::DeviceModel::gcn_gpu());
  linalg::Matrix h(s.basis->size(), s.basis->size());
  h_kernel(rt, *s.grid, s.supports, v, h);

  const auto reference = s.integ->potential_matrix(v);
  EXPECT_LT(h.max_abs_diff(reference), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Devices, BatchKernelDevices, ::testing::Bool());

TEST(BatchKernels, AccumulationComposesAcrossCalls) {
  // Two successive h_kernel calls add their contributions.
  const Workbench s = make_workbench(core::water());
  std::vector<double> v(s.grid->size(), 0.2);
  simt::SimtRuntime rt(simt::DeviceModel::gcn_gpu());
  linalg::Matrix h(s.basis->size(), s.basis->size());
  h_kernel(rt, *s.grid, s.supports, v, h);
  h_kernel(rt, *s.grid, s.supports, v, h);
  auto reference = s.integ->potential_matrix(v);
  reference.scale(2.0);
  EXPECT_LT(h.max_abs_diff(reference), 1e-12);
}

TEST(BatchKernels, WorksOnMethaneWithManyBatches) {
  const Workbench s = make_workbench(core::methane(), 48);
  EXPECT_GT(s.supports.size(), 8u);
  const auto p1 = random_symmetric(s.basis->size(), 44);
  simt::SimtRuntime rt(simt::DeviceModel::sw39010());
  std::vector<double> n1(s.grid->size(), 0.0);
  sumup_kernel(rt, *s.grid, s.supports, p1, n1);
  const auto reference = s.integ->density(p1);
  for (std::size_t i = 0; i < n1.size(); ++i) EXPECT_NEAR(n1[i], reference[i], 1e-12);
}

TEST(BatchKernels, ShapeValidation) {
  const Workbench s = make_workbench(core::water());
  simt::SimtRuntime rt(simt::DeviceModel::gcn_gpu());
  std::vector<double> wrong(3, 0.0);
  const auto p1 = random_symmetric(s.basis->size(), 45);
  EXPECT_THROW(sumup_kernel(rt, *s.grid, s.supports, p1, wrong), Error);
  linalg::Matrix h(2, 3);
  std::vector<double> v(s.grid->size(), 0.0);
  EXPECT_THROW(h_kernel(rt, *s.grid, s.supports, v, h), Error);
}

}  // namespace
