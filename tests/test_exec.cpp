// Tests for src/exec: the work-stealing thread pool and its scheduling
// contract, plus the determinism guarantee of the parallel execution layer
// -- SCF + CPSCF results and SIMT KernelStats counters must be bit-for-bit
// identical for every thread count (the resilience layer's warm-start
// guarantee depends on it).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dfpt.hpp"
#include "exec/thread_pool.hpp"
#include "grid/batch.hpp"
#include "grid/structure.hpp"
#include "kernels/batch_kernels.hpp"
#include "scf/scf_solver.hpp"
#include "simt/runtime.hpp"

namespace {

using namespace aeqp;

/// Restores the default global pool when a test that resizes it exits.
struct PoolGuard {
  ~PoolGuard() { exec::ThreadPool::set_global_threads(0); }
};

TEST(ThreadPool, EmptyRangeRunsNothing) {
  exec::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleItemRunsOnCaller) {
  exec::ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(3, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 3u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, MoreTasksThanThreadsCoversEveryIndexOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 10007;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ChunkedRangesPartitionTheRange) {
  exec::ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  pool.parallel_for_ranges(0, kN, 16, [&](std::size_t b, std::size_t e) {
    ASSERT_LT(b, e);
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ExceptionFromWorkerPropagatesToCaller) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1024,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial) {
  exec::ThreadPool pool(4);
  std::atomic<int> nested_parallel{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    EXPECT_TRUE(exec::ThreadPool::in_worker());
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(0, 64, [&](std::size_t) {
      if (std::this_thread::get_id() != outer) ++nested_parallel;
    });
  });
  EXPECT_EQ(nested_parallel.load(), 0);
  EXPECT_FALSE(exec::ThreadPool::in_worker());
}

TEST(ThreadPool, SizeOneIsSerialFallback) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  pool.parallel_for(0, 100, [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(ThreadPool, GlobalPoolResizes) {
  const PoolGuard guard;
  exec::ThreadPool::set_global_threads(3);
  EXPECT_EQ(exec::ThreadPool::global().size(), 3u);
  exec::ThreadPool::set_global_threads(1);
  EXPECT_EQ(exec::ThreadPool::global().size(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism: parallel == serial, bit for bit.

scf::ScfOptions tiny_options() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 30;
  opt.grid.angular_degree = 7;
  opt.poisson.radial_points = 60;
  opt.poisson.l_max = 2;
  opt.max_iterations = 60;
  opt.density_tolerance = 1e-7;
  return opt;
}

grid::Structure h2() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

struct ScfDfptRun {
  scf::ScfResult ground;
  core::DfptDirectionResult response;
};

ScfDfptRun run_scf_dfpt() {
  ScfDfptRun run;
  run.ground = scf::ScfSolver(h2(), tiny_options()).run();
  EXPECT_TRUE(run.ground.converged);
  core::DfptOptions dopt;
  dopt.tolerance = 1e-7;
  dopt.max_iterations = 12;
  dopt.require_convergence = false;
  run.response = core::DfptSolver(run.ground, dopt).solve_direction(2);
  return run;
}

TEST(Determinism, ScfAndCpscfAreBitIdenticalAcrossThreadCounts) {
  const PoolGuard guard;
  exec::ThreadPool::set_global_threads(1);
  const ScfDfptRun serial = run_scf_dfpt();
  exec::ThreadPool::set_global_threads(4);
  const ScfDfptRun parallel = run_scf_dfpt();

  EXPECT_EQ(serial.ground.total_energy, parallel.ground.total_energy);
  EXPECT_EQ(serial.ground.iterations, parallel.ground.iterations);
  EXPECT_EQ(serial.ground.density_matrix.max_abs_diff(
                parallel.ground.density_matrix),
            0.0);
  ASSERT_EQ(serial.ground.density_samples.size(),
            parallel.ground.density_samples.size());
  for (std::size_t i = 0; i < serial.ground.density_samples.size(); ++i)
    ASSERT_EQ(serial.ground.density_samples[i],
              parallel.ground.density_samples[i]);

  EXPECT_EQ(serial.response.iterations, parallel.response.iterations);
  EXPECT_EQ(serial.response.p1.max_abs_diff(parallel.response.p1), 0.0);
  EXPECT_EQ(serial.response.dipole_response.z, parallel.response.dipole_response.z);
}

void expect_stats_equal(const simt::KernelStats& a, const simt::KernelStats& b) {
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.work_items, b.work_items);
  EXPECT_EQ(a.offchip_read_bytes, b.offchip_read_bytes);
  EXPECT_EQ(a.offchip_write_bytes, b.offchip_write_bytes);
  EXPECT_EQ(a.dependent_accesses, b.dependent_accesses);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.host_transfer_bytes, b.host_transfer_bytes);
  EXPECT_EQ(a.wavefront_steps, b.wavefront_steps);
}

TEST(Determinism, SimtKernelStatsAndResultsMatchSerialLaunch) {
  const PoolGuard guard;
  const auto structure = h2();
  const auto opt = tiny_options();
  exec::ThreadPool::set_global_threads(1);
  const scf::ScfResult ground = scf::ScfSolver(structure, opt).run();
  ASSERT_TRUE(ground.converged);

  const auto batches = grid::make_batches(*ground.grid, 64);
  const auto supports =
      scf::build_tiles(*ground.basis, *ground.grid, batches);
  const std::size_t np = ground.grid->size();
  const std::size_t nb = ground.density_matrix.rows();
  const std::vector<double> v(np, 0.25);

  auto run_kernels = [&](std::size_t threads) {
    exec::ThreadPool::set_global_threads(threads);
    simt::SimtRuntime rt(simt::DeviceModel::sw39010());
    std::vector<double> n1(np, 0.0);
    kernels::sumup_kernel(rt, *ground.grid, supports, ground.density_matrix, n1);
    linalg::Matrix h(nb, nb);
    kernels::h_kernel(rt, *ground.grid, supports, v, h);
    return std::make_tuple(rt.stats(), std::move(n1), std::move(h));
  };

  const auto [stats1, n1_serial, h_serial] = run_kernels(1);
  const auto [stats4, n1_parallel, h_parallel] = run_kernels(4);

  expect_stats_equal(stats1, stats4);
  ASSERT_EQ(n1_serial.size(), n1_parallel.size());
  for (std::size_t i = 0; i < n1_serial.size(); ++i)
    ASSERT_EQ(n1_serial[i], n1_parallel[i]) << i;
  EXPECT_EQ(h_serial.max_abs_diff(h_parallel), 0.0);
}

}  // namespace
