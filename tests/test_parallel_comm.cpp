// Tests for src/parallel (simmpi runtime, machine cost models) and src/comm
// (packed and hierarchical collectives). Property tests compare every
// communication algorithm against the flat reference bit-for-bit.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "comm/hierarchical.hpp"
#include "comm/packed.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/cluster.hpp"
#include "parallel/machine_model.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::parallel;
using namespace aeqp::comm;

TEST(Cluster, TopologyMapping) {
  Cluster cluster(10, 4);
  EXPECT_EQ(cluster.node_count(), 3u);
  std::atomic<int> checks{0};
  cluster.run([&](Communicator& c) {
    EXPECT_EQ(c.size(), 10u);
    EXPECT_EQ(c.node(), c.rank() / 4);
    EXPECT_EQ(c.node_rank(), c.rank() % 4);
    if (c.node() == 2) {
      EXPECT_EQ(c.node_size(), 2u);  // 10 = 4+4+2
    }
    checks++;
  });
  EXPECT_EQ(checks.load(), 10);
}

TEST(Cluster, AllreduceSumsAcrossRanks) {
  Cluster cluster(8, 4);
  cluster.run([&](Communicator& c) {
    std::vector<double> v = {static_cast<double>(c.rank()), 1.0,
                             static_cast<double>(c.rank()) * 0.5};
    c.allreduce_sum(v);
    EXPECT_DOUBLE_EQ(v[0], 28.0);  // 0+..+7
    EXPECT_DOUBLE_EQ(v[1], 8.0);
    EXPECT_DOUBLE_EQ(v[2], 14.0);
  });
}

TEST(Cluster, RepeatedAllreducesDoNotInterfere) {
  Cluster cluster(6, 3);
  cluster.run([&](Communicator& c) {
    for (int round = 1; round <= 5; ++round) {
      std::vector<double> v = {static_cast<double>(round)};
      c.allreduce_sum(v);
      EXPECT_DOUBLE_EQ(v[0], 6.0 * round);
    }
  });
}

TEST(Cluster, BroadcastFromEveryRoot) {
  Cluster cluster(5, 2);
  cluster.run([&](Communicator& c) {
    for (std::size_t root = 0; root < c.size(); ++root) {
      std::vector<double> v = {c.rank() == root ? 42.5 : 0.0};
      c.broadcast(v, root);
      EXPECT_DOUBLE_EQ(v[0], 42.5);
    }
  });
}

TEST(Cluster, NodeWindowIsSharedWithinNode) {
  Cluster cluster(8, 4);
  cluster.run([&](Communicator& c) {
    auto w = c.node_window(4);
    c.node_critical([&] { w[0] += 1.0; });
    c.node_barrier();
    EXPECT_DOUBLE_EQ(w[0], static_cast<double>(c.node_size()));
  });
}

TEST(Cluster, LeaderAllreduceOnlySumsLeaders) {
  Cluster cluster(8, 4);
  cluster.run([&](Communicator& c) {
    std::vector<double> v = {1000.0 + static_cast<double>(c.node())};
    c.allreduce_sum_leaders(v);
    if (c.node_rank() == 0) {
      EXPECT_DOUBLE_EQ(v[0], 2001.0);  // nodes 0 and 1
    }
  });
}

TEST(AllreduceMax, FindsGlobalMaximum) {
  Cluster cluster(6, 3);
  cluster.run([&](Communicator& c) {
    std::vector<double> v = {static_cast<double>(c.rank()),
                             -static_cast<double>(c.rank())};
    c.allreduce_max(v);
    EXPECT_DOUBLE_EQ(v[0], 5.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
  });
}

TEST(AllreduceMax, WorksWithNegativeValuesOnly) {
  Cluster cluster(3, 3);
  cluster.run([&](Communicator& c) {
    std::vector<double> v = {-10.0 - static_cast<double>(c.rank())};
    c.allreduce_max(v);
    EXPECT_DOUBLE_EQ(v[0], -10.0);
  });
}

// Floating-point addition is not associative: with contributions
// {1, 2^-53, 2^-53, 0} the rank-order sum rounds to exactly 1, while
// adding the two tiny terms first gives 1 + 2^-52. Rank 0 arrives last
// here, so a sum taken in arrival order would return the latter; the sum
// collectives must add in rank order whatever the arrival order.
TEST(Cluster, SumCollectivesAddInRankOrderWhateverTheArrivalOrder) {
  const double tiny = std::ldexp(1.0, -53);
  const double contribution[] = {1.0, tiny, tiny, 0.0};
  for (const bool leaders : {false, true}) {
    // One rank per node makes every rank a leader.
    Cluster cluster(4, leaders ? 1 : 4);
    cluster.run([&](Communicator& c) {
      if (c.rank() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::vector<double> v = {contribution[c.rank()]};
      if (leaders)
        c.allreduce_sum_leaders(v);
      else
        c.allreduce_sum(v);
      EXPECT_EQ(v[0], 1.0) << (leaders ? "allreduce_sum_leaders" : "allreduce_sum");
    });
  }
}

class HierarchicalProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(HierarchicalProperty, MatchesFlatAllreduce) {
  const auto [ranks, per_node, elems] = GetParam();
  Cluster cluster(ranks, per_node);
  cluster.run([&](Communicator& c) {
    Rng rng(1000 + c.rank());
    std::vector<double> data(elems), reference(elems);
    for (std::size_t i = 0; i < elems; ++i) data[i] = rng.uniform(-1, 1);
    reference = data;

    hierarchical_allreduce_sum(c, data);
    c.allreduce_sum(reference);
    for (std::size_t i = 0; i < elems; ++i)
      EXPECT_NEAR(data[i], reference[i], 1e-12) << "i=" << i;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalProperty,
    ::testing::Values(std::tuple<std::size_t, std::size_t, std::size_t>{4, 2, 16},
                      std::tuple<std::size_t, std::size_t, std::size_t>{8, 4, 7},
                      std::tuple<std::size_t, std::size_t, std::size_t>{12, 4, 33},
                      std::tuple<std::size_t, std::size_t, std::size_t>{6, 6, 5},
                      std::tuple<std::size_t, std::size_t, std::size_t>{9, 4, 64},
                      std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 3}));

TEST(Packed, PacksManyRowsIntoFewCollectives) {
  Cluster cluster(4, 2);
  cluster.run([&](Communicator& c) {
    std::vector<std::vector<double>> rows(100, std::vector<double>(8));
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t i = 0; i < 8; ++i)
        rows[r][i] = static_cast<double>(c.rank() + r) + 0.25 * i;

    PackedAllReducer packer(c, ReduceMode::Flat, /*max_bytes=*/25 * 8 * sizeof(double));
    for (auto& row : rows) packer.add(row);
    packer.flush();

    EXPECT_EQ(packer.rows_packed(), 100u);
    EXPECT_EQ(packer.collective_count(), 4u);  // 100 rows / 25-row budget

    // Values must equal the flat per-row reduction.
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t i = 0; i < 8; ++i) {
        const double expect = 4.0 * (static_cast<double>(r) + 0.25 * i) + 6.0;
        EXPECT_NEAR(rows[r][i], expect, 1e-12);
      }
  });
}

TEST(Packed, HierarchicalModeMatchesFlat) {
  Cluster cluster(8, 4);
  cluster.run([&](Communicator& c) {
    Rng rng(77 + c.rank());
    std::vector<std::vector<double>> a(20, std::vector<double>(5)), b;
    for (auto& row : a)
      for (auto& v : row) v = rng.uniform(-2, 2);
    b = a;

    PackedAllReducer flat(c, ReduceMode::Flat);
    for (auto& row : a) flat.add(row);
    flat.flush();

    PackedAllReducer hier(c, ReduceMode::Hierarchical);
    for (auto& row : b) hier.add(row);
    hier.flush();

    for (std::size_t r = 0; r < a.size(); ++r)
      for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(a[r][i], b[r][i], 1e-12);
  });

  // A one-rank world reduces flat at the default Hierarchical mode: one
  // collective per flush, and the same bits as the flat mode.
  Cluster one(1, 1);
  one.run([&](Communicator& c) {
    Rng rng(77);
    std::vector<std::vector<double>> a(20, std::vector<double>(5)), b;
    for (auto& row : a)
      for (auto& v : row) v = rng.uniform(-2, 2);
    a[0][0] = -0.0;
    b = a;

    std::size_t before = c.collective_index();
    PackedAllReducer flat(c, ReduceMode::Flat);
    for (auto& row : a) flat.add(row);
    flat.flush();
    EXPECT_EQ(c.collective_index() - before, 1u);

    before = c.collective_index();
    PackedAllReducer hier(c, ReduceMode::Hierarchical);
    for (auto& row : b) hier.add(row);
    hier.flush();
    EXPECT_EQ(c.collective_index() - before, 1u);

    for (std::size_t r = 0; r < a.size(); ++r)
      for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[r][i]),
                  std::bit_cast<std::uint64_t>(b[r][i]));
  });
}

TEST(Packed, OversizedSingleRowStillGoesOut) {
  Cluster cluster(2, 2);
  cluster.run([&](Communicator& c) {
    std::vector<double> big(64, 1.0);
    PackedAllReducer packer(c, ReduceMode::Flat, /*max_bytes=*/16);
    packer.add(big);
    EXPECT_EQ(packer.collective_count(), 1u);  // auto-flushed
    EXPECT_DOUBLE_EQ(big[0], 2.0);
    packer.flush();  // no-op
    EXPECT_EQ(packer.collective_count(), 1u);
  });
}

TEST(MachineModel, PackingWinsAndGrowsWithScale) {
  const CommCostModel model(MachineModel::hpc2_amd());
  const std::size_t row = 8192;  // bytes
  const std::size_t c = 512;
  double prev_speedup = 1.0;
  for (std::size_t ranks : {256u, 1024u, 4096u}) {
    const double base = model.repeated_allreduce_seconds(row, c, ranks);
    const double packed = model.packed_allreduce_seconds(row, c, ranks);
    const double speedup = base / packed;
    EXPECT_GT(speedup, prev_speedup);  // grows with rank count (Fig. 10)
    prev_speedup = speedup;
  }
  EXPECT_GT(prev_speedup, 50.0);
}

TEST(MachineModel, HierarchyHelpsOnHpc2Only) {
  const CommCostModel hpc2(MachineModel::hpc2_amd());
  const std::size_t row = 8192, c = 512, ranks = 4096;
  const double packed = hpc2.packed_allreduce_seconds(row, c, ranks);
  const auto hier = hpc2.packed_hierarchical_seconds(row, c, ranks);
  EXPECT_LT(hier.total(), packed);  // hierarchical wins at scale
  EXPECT_GT(hier.local_update, 0.0);

  const CommCostModel hpc1(MachineModel::hpc1_sunway());
  EXPECT_THROW((void)hpc1.packed_hierarchical_seconds(row, c, ranks), Error);
}

TEST(MachineModel, SingleRankCostsNothing) {
  const CommCostModel model(MachineModel::hpc1_sunway());
  EXPECT_DOUBLE_EQ(model.allreduce_seconds(1024, 1), 0.0);
  EXPECT_DOUBLE_EQ(model.barrier_seconds(1), 0.0);
}

}  // namespace
