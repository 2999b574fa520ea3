// Integration tests for the distributed DFPT driver: the parallel
// decomposition (distributed Sumup/H, replicated Sternheimer/Poisson,
// packed hierarchical synthesis) must reproduce the serial DfptSolver.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "core/structures.hpp"
#include "scf/scf_solver.hpp"

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
    return scf::ScfSolver(s, opt).run();
  }();
  return res;
}

class ParallelDfptTopology
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, comm::ReduceMode>> {};

TEST_P(ParallelDfptTopology, MatchesSerialSolver) {
  const auto [ranks, per_node, mode] = GetParam();
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);

  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptSolver serial(ground, dopt);
  const DfptDirectionResult ref = serial.solve_direction(2);
  ASSERT_TRUE(ref.converged);

  ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = ranks;
  popt.ranks_per_node = per_node;
  popt.reduce_mode = mode;
  popt.batch_points = 96;
  const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);

  EXPECT_TRUE(par.direction.converged);
  EXPECT_EQ(par.direction.iterations, ref.iterations);
  EXPECT_NEAR(par.direction.dipole_response.z, ref.dipole_response.z, 1e-7);
  EXPECT_LT(par.direction.p1.max_abs_diff(ref.p1), 1e-8);
  // The distributed response density matches point by point.
  ASSERT_EQ(par.direction.n1_samples.size(), ref.n1_samples.size());
  double max_dn = 0.0;
  for (std::size_t i = 0; i < ref.n1_samples.size(); ++i)
    max_dn = std::max(max_dn,
                      std::fabs(par.direction.n1_samples[i] - ref.n1_samples[i]));
  EXPECT_LT(max_dn, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ParallelDfptTopology,
    ::testing::Values(
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            1, 1, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            2, 2, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            4, 2, comm::ReduceMode::Hierarchical},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            8, 4, comm::ReduceMode::Hierarchical}));

TEST(ParallelDfpt, DistributedRhoProducerMatchesSerialSolver) {
  // distribute_rho splits the Poisson producer's projection rows across
  // ranks and synthesizes them with a packed rho_multipole AllReduce; the
  // result must match the serial reference exactly like the replicated
  // producer does, with or without speed-weighted shares.
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);
  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptSolver serial(ground, dopt);
  const DfptDirectionResult ref = serial.solve_direction(2);

  ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Hierarchical;
  popt.batch_points = 96;
  popt.distribute_rho = true;
  const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);
  EXPECT_TRUE(par.direction.converged);
  EXPECT_EQ(par.direction.iterations, ref.iterations);
  EXPECT_LT(par.direction.p1.max_abs_diff(ref.p1), 1e-8);

  // Weighted shares change which rank computes which rows, never the sum.
  ParallelDfptOptions wopt = popt;
  wopt.rank_speed_weights = {1.0, 0.125, 1.0, 1.0};
  const ParallelDfptResult wpar = solve_direction_parallel(ground, wopt, 2);
  EXPECT_TRUE(wpar.direction.converged);
  EXPECT_LT(wpar.direction.p1.max_abs_diff(ref.p1), 1e-8);
}

TEST(ParallelDfpt, StatsReportLoadAndCommunication) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  popt.ranks = 4;
  popt.batch_points = 64;
  const ParallelDfptResult par = solve_direction_parallel(ground, popt, 2);
  EXPECT_GT(par.stats.batches, 4u);
  EXPECT_GT(par.stats.collectives, 0u);
  EXPECT_GT(par.stats.rows_reduced, 0u);
  // Median-split batches keep the point load within ~2x of the mean.
  EXPECT_LT(par.stats.max_rank_points_share, 2.0);
  EXPECT_GE(par.stats.max_rank_points_share, 1.0);
}

// The serial solver is the one-rank world of the distributed body over the
// same tiles (the default batch size is the integrator's tiling), so the
// two agree bit for bit.
TEST(ParallelDfpt, OneRankEqualsSerialSolverBitForBit) {
  const auto& ground = ground_h2();
  DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const DfptDirectionResult ref = DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 1;
  const DfptDirectionResult par = solve_direction_parallel(ground, popt, 2).direction;
  EXPECT_TRUE(par.converged);
  EXPECT_EQ(par.iterations, ref.iterations);
  EXPECT_EQ(par.p1.max_abs_diff(ref.p1), 0.0);
  ASSERT_EQ(par.n1_samples.size(), ref.n1_samples.size());
  for (std::size_t i = 0; i < ref.n1_samples.size(); ++i)
    ASSERT_EQ(par.n1_samples[i], ref.n1_samples[i]) << i;
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_EQ(par.dipole_response[axis], ref.dipole_response[axis]);
    EXPECT_EQ(par.dipole_response_trace[axis], ref.dipole_response_trace[axis]);
  }
}

// Collective sums add rank contributions in rank order, so a multi-rank
// run repeats itself bit for bit.
TEST(ParallelDfpt, FlatFourRankRunIsBitReproducible) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 4;
  popt.ranks_per_node = 4;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 64;
  const auto first = solve_direction_parallel(ground, popt, 2).direction;
  const auto second = solve_direction_parallel(ground, popt, 2).direction;
  ASSERT_TRUE(first.converged);
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_EQ(second.p1.max_abs_diff(first.p1), 0.0);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_EQ(second.dipole_response[axis], first.dipole_response[axis]);
}

// Rebuilding each tile on the fly (the memory relief rung) runs the same
// tile builder as the cache, so the answer is the cached one bit for bit.
TEST(ParallelDfpt, OnTheFlyTilesEqualTheCacheBitForBit) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 2;
  const auto cached = solve_direction_parallel(ground, popt, 2).direction;
  popt.cache_point_evals = false;
  const auto on_the_fly = solve_direction_parallel(ground, popt, 2).direction;
  ASSERT_TRUE(cached.converged);
  EXPECT_EQ(on_the_fly.iterations, cached.iterations);
  EXPECT_EQ(on_the_fly.p1.max_abs_diff(cached.p1), 0.0);
  for (std::size_t i = 0; i < cached.n1_samples.size(); ++i)
    ASSERT_EQ(on_the_fly.n1_samples[i], cached.n1_samples[i]) << i;
  EXPECT_EQ(on_the_fly.dipole_response.z, cached.dipole_response.z);
}

// DfptOptions::verbose holds on every path: rank 0 logs one line per
// iteration of a distributed solve.
TEST(ParallelDfpt, VerboseLogsOneLinePerIteration) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  popt.dfpt.verbose = true;
  popt.ranks = 2;
  const LogLevel prev = Log::level();
  Log::set_level(LogLevel::Info);
  std::vector<std::string> lines;
  Log::set_sink([&lines](LogLevel, const std::string& line) {
    if (line.find("DFPT dir 2 iter") != std::string::npos) lines.push_back(line);
  });
  const auto par = solve_direction_parallel(ground, popt, 2).direction;
  Log::set_sink({});
  Log::set_level(prev);
  ASSERT_TRUE(par.converged);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(par.iterations));
  EXPECT_NE(lines.front().find("r0]"), std::string::npos) << lines.front();
}

TEST(ParallelDfpt, RejectsBadArguments) {
  const auto& ground = ground_h2();
  ParallelDfptOptions popt;
  EXPECT_THROW(solve_direction_parallel(ground, popt, 3), Error);
  popt.ranks = 100000;  // more ranks than batches
  EXPECT_THROW(solve_direction_parallel(ground, popt, 0), Error);
}

}  // namespace
