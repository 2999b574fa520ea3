// Tests for kernels/batch_kernels.hpp: the Sumup and H phases in the
// OpenCL-style batch execution model, validated against the serial
// BatchIntegrator on real molecules -- and for the tile engine under both
// (scf/tiles.hpp): the dense tile layout, the symmetric rank-k update
// against a per-point scalar scatter, and the kinetic matrix the
// integrator builds in its one tile pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

/// Row k's nonzero entries, (global id, value), in column order.
std::vector<std::pair<std::uint32_t, double>> row_entries(const basis::DenseBlock& b,
                                                          std::size_t k) {
  std::vector<std::pair<std::uint32_t, double>> out;
  for (std::size_t i = 0; i < b.basis_ids.size(); ++i)
    if (const double v = b.phi[k * b.ld + i]; v != 0.0) out.emplace_back(b.basis_ids[i], v);
  return out;
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
    EXPECT_EQ(sup.points(), sup.point_ids.size());
    for (auto pid : sup.point_ids) seen[pid]++;
    // Global basis ids are sorted and unique.
    for (std::size_t i = 1; i < sup.basis_ids.size(); ++i)
      EXPECT_LT(sup.basis_ids[i - 1], sup.basis_ids[i]);
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(BatchSupports, DenseRowsHoldExactlyTheListedValues) {
  const Workbench s = make_workbench(core::water());
  basis::PointEval ev;
  for (const auto& tile : s.supports) {
    const std::size_t nloc = tile.basis_ids.size();
    EXPECT_EQ(tile.ld % 4, 0u);
    EXPECT_GE(tile.ld, nloc);
    EXPECT_LT(tile.ld, nloc + 4);
    ASSERT_EQ(tile.phi.size(), tile.size() * tile.ld);
    for (std::size_t k = 0; k < tile.size(); ++k) {
      // Row k is the point's basis evaluation: its nonzeros, in column
      // order, are exactly the point's nonzero values in evaluation order,
      // and the padding stays 0.
      s.basis->evaluate(s.grid->point(tile.point_ids[k]).pos, false, ev);
      std::vector<std::pair<std::uint32_t, double>> want;
      for (std::size_t i = 0; i < ev.indices.size(); ++i)
        if (ev.values[i] != 0.0) want.emplace_back(ev.indices[i], ev.values[i]);
      ASSERT_EQ(row_entries(tile, k), want) << "point " << k;
      for (std::size_t i = nloc; i < tile.ld; ++i) ASSERT_EQ(tile.phi[k * tile.ld + i], 0.0);
    }
  }
}

/// How far a kernel's sums may sit from a test-local reference with the
/// same per-(i, j) order, relative to the largest entry: exactly 0 in the
/// portable build. A target with fused multiply-add (-march=native) lets
/// the compiler contract the two loops' multiply-adds differently, and
/// there they agree to rounding.
#ifdef __FP_FAST_FMA
constexpr double kSumTolerance = 1e-14;
#else
constexpr double kSumTolerance = 0.0;
#endif

class TileEngine : public ::testing::TestWithParam<bool> {
protected:
  [[nodiscard]] Workbench bench() const {
    return GetParam() ? make_workbench(core::methane(), 48) : make_workbench(core::water());
  }
};

// The symmetric rank-k update sums, per (i, j), the same products in the
// same point order as a scalar scatter over every point's nonzero entries
// -- so its upper triangle matches that reference bit for bit (see
// kSumTolerance) -- and mirrors it, so the block is exactly symmetric.
TEST_P(TileEngine, RankKUpdateMatchesPerPointScatterBitForBit) {
  const Workbench s = bench();
  Rng rng(46);
  bool odd_block = false, zero_weight = false;
  std::vector<double> w, blk;
  for (const auto& tile : s.supports) {
    const std::size_t nloc = tile.basis_ids.size();
    odd_block = odd_block || nloc % 4 != 0;
    // Random potential values, with an exact zero on every fifth point.
    scf::tile_weights(*s.grid, tile,
                      [&](std::size_t k) { return k % 5 == 2 ? 0.0 : rng.uniform(-1, 1); }, w);
    std::vector<double> ref(nloc * nloc, 0.0);
    for (std::size_t k = 0; k < tile.size(); ++k) {
      if (w[k] == 0.0) {
        zero_weight = true;
        continue;
      }
      // The point's nonzero entries, read along the row in column order.
      const double* phi = tile.phi.data() + k * tile.ld;
      for (std::size_t i = 0; i < nloc; ++i) {
        if (phi[i] == 0.0) continue;
        for (std::size_t j = 0; j < nloc; ++j)
          if (phi[j] != 0.0) ref[i * nloc + j] += (phi[i] * w[k]) * phi[j];
      }
    }
    scf::accumulate_tile(tile, w.data(), blk);
    ASSERT_EQ(blk.size(), nloc * nloc);
    double scale = 0.0;
    for (const double r : ref) scale = std::max(scale, std::abs(r));
    for (std::size_t i = 0; i < nloc; ++i)
      for (std::size_t j = i; j < nloc; ++j) {
        ASSERT_LE(std::abs(blk[i * nloc + j] - ref[i * nloc + j]), kSumTolerance * scale)
            << i << "," << j;
        ASSERT_EQ(blk[j * nloc + i], blk[i * nloc + j]) << i << "," << j;
      }
  }
  EXPECT_TRUE(odd_block) << "no tile with nloc % 4 != 0";
  EXPECT_TRUE(zero_weight) << "no point with w == 0";
}

// T is built in the integrator's tile pass from Laplacian scratch; a
// test-local scatter over BasisSet::evaluate(..., true, ...) on the same
// tiles, flushed in tile order and symmetrized, gives the same bits (see
// kSumTolerance).
TEST_P(TileEngine, KineticEqualsLaplacianScatterOverTheSameTiles) {
  const Workbench s = bench();
  const std::size_t nb = s.basis->size();
  linalg::Matrix ref(nb, nb);
  basis::PointEval ev;
  for (const auto& tile : s.integ->tiles()) {
    const std::size_t nloc = tile.basis_ids.size();
    const auto local = [&](std::uint32_t mu) {
      return static_cast<std::size_t>(
          std::lower_bound(tile.basis_ids.begin(), tile.basis_ids.end(), mu) -
          tile.basis_ids.begin());
    };
    std::vector<double> blk(nloc * nloc, 0.0);
    for (std::size_t k = 0; k < tile.size(); ++k) {
      const grid::GridPoint& gp = s.grid->point(tile.point_ids[k]);
      const double w = gp.weight * -0.5;
      if (w == 0.0) continue;
      s.basis->evaluate(gp.pos, true, ev);
      // The tile's entry filter: nonzero values only.
      for (std::size_t a = 0; a < ev.indices.size(); ++a) {
        if (ev.values[a] == 0.0) continue;
        const double x = ev.values[a] * w;
        for (std::size_t b = 0; b < ev.indices.size(); ++b) {
          if (ev.values[b] == 0.0) continue;
          blk[local(ev.indices[a]) * nloc + local(ev.indices[b])] += x * ev.laplacians[b];
        }
      }
    }
    for (std::size_t i = 0; i < nloc; ++i)
      for (std::size_t j = 0; j < nloc; ++j)
        ref(tile.basis_ids[i], tile.basis_ids[j]) += blk[i * nloc + j];
  }
  ref.symmetrize();
  EXPECT_LE(s.integ->kinetic().max_abs_diff(ref), kSumTolerance * ref.max_abs());
}

// The H kernel counts the flops of the dense update it runs: every point
// it does not skip costs the 4x4 blocks of the upper block triangle.
TEST_P(TileEngine, HKernelCountsTheDenseUpdateFlops) {
  const Workbench s = bench();
  Rng rng(47);
  std::vector<double> v(s.grid->size());
  for (std::size_t p = 0; p < v.size(); ++p) v[p] = p % 7 == 3 ? 0.0 : rng.uniform(-1, 1);
  std::size_t expected = 0;
  for (const auto& tile : s.supports) {
    const std::size_t blocks = (tile.basis_ids.size() + 3) / 4;
    std::size_t live = 0;
    for (const std::uint32_t pid : tile.point_ids)
      live += v[pid] != 0.0 && s.grid->point(pid).weight != 0.0;
    expected += 2 * live * 16 * (blocks * (blocks + 1) / 2);
  }
  simt::SimtRuntime rt(simt::DeviceModel::gcn_gpu());
  linalg::Matrix h(s.basis->size(), s.basis->size());
  h_kernel(rt, *s.grid, s.supports, v, h);
  EXPECT_EQ(rt.stats().flops, expected);
}

// The Sumup kernel counts the flops of the blocked density kernel: every
// point pays its tile's dense pairs -- min(jb + 4, nloc) rows of 4
// products per column block jb, and ld products in the final sum.
TEST_P(TileEngine, SumupKernelCountsTheDensePairFlops) {
  const Workbench s = bench();
  std::size_t expected = 0;
  for (const auto& tile : s.supports) {
    const std::size_t nloc = tile.basis_ids.size();
    std::size_t pairs = tile.ld;
    for (std::size_t jb = 0; jb < tile.ld; jb += 4) pairs += 4 * std::min(jb + 4, nloc);
    expected += 2 * pairs * tile.size();
  }
  simt::SimtRuntime rt(simt::DeviceModel::gcn_gpu());
  std::vector<double> n(s.grid->size(), 0.0);
  sumup_kernel(rt, *s.grid, s.supports, random_symmetric(s.basis->size(), 49), n);
  EXPECT_EQ(rt.stats().flops, expected);
}

// Every grid matrix comes out exactly symmetric: mirrored tile blocks,
// flushed elementwise.
TEST_P(TileEngine, GridMatricesAreExactlySymmetric) {
  const Workbench s = bench();
  Rng rng(48);
  std::vector<double> v(s.grid->size());
  for (auto& x : v) x = rng.uniform(-0.5, 0.5);
  simt::SimtRuntime rt(simt::DeviceModel::sw39010());
  linalg::Matrix hk(s.basis->size(), s.basis->size());
  h_kernel(rt, *s.grid, s.supports, v, hk);
  const linalg::Matrix mats[] = {s.integ->overlap(),          s.integ->kinetic(),
                                 s.integ->external_potential(), s.integ->potential_matrix(v),
                                 s.integ->dipole_matrix(0),     s.integ->dipole_matrix(1),
                                 s.integ->dipole_matrix(2),     hk};
  for (const auto& m : mats)
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = i + 1; j < m.cols(); ++j) ASSERT_EQ(m(i, j), m(j, i)) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(WaterAndMethane, TileEngine, ::testing::Bool());

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
