// Straggler-defense tests: the adaptive per-class collective deadline
// estimator, the per-rank arrival-lag ledger and degraded-rank classifier,
// the Slowdown fault kind (persistent and intermittent), the weighted
// rebalance re-mapping, and the recovery ladder's rebalance-before-shrink
// rung end to end. The acceptance bar: with a persistent 8x Slowdown on one
// rank the governed run completes at FULL world size -- no shrink, the
// rebalance rung engaged -- and matches the fault-free serial reference to
// 1e-8; with adaptive deadlines on and no injection, a clean run sees zero
// spurious timeouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "comm/packed.hpp"
#include "grid/batch.hpp"
#include "mapping/task_mapping.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "parallel/straggler.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/recovery.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// DeadlineEstimator

TEST(DeadlineEstimator, LearnsPerClassAndClamps) {
  parallel::DeadlineEstimator::Options opt;
  opt.window = 16;
  opt.mad_k = 2.0;
  opt.min_samples = 4;
  opt.floor_ms = 1.0;
  opt.ceiling_ms = 50.0;
  opt.recompute_every = 4;
  parallel::DeadlineEstimator est(opt);
  const auto fallback = std::chrono::milliseconds(30000);

  // No samples at all: the fixed timeout stays in charge.
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::AllreduceSum, fallback),
            fallback);

  // Uniform 10 ms samples: MAD is zero, so the deadline converges on the
  // median itself (above the floor, below the ceiling).
  for (int i = 0; i < 8; ++i)
    est.record(parallel::CollectiveClass::AllreduceSum, 10.0);
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::AllreduceSum, fallback)
                .count(),
            10);
  EXPECT_EQ(est.sample_count(parallel::CollectiveClass::AllreduceSum), 8u);

  // A service deadline clamp below the estimate must still win.
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::AllreduceSum,
                         std::chrono::milliseconds(5))
                .count(),
            5);

  // Ceiling: a pathological class never waits longer than ceiling_ms.
  for (int i = 0; i < 8; ++i)
    est.record(parallel::CollectiveClass::Barrier, 1000.0);
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::Barrier, fallback).count(),
            50);

  // Floor: microsecond-scale collectives never get a hair-trigger deadline.
  for (int i = 0; i < 8; ++i)
    est.record(parallel::CollectiveClass::Broadcast, 0.001);
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::Broadcast, fallback)
                .count(),
            1);

  est.reset();
  EXPECT_EQ(est.total_samples(), 0u);
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::AllreduceSum, fallback),
            fallback);
}

TEST(DeadlineEstimator, UndersampledClassDefersToGlobalRing) {
  parallel::DeadlineEstimator::Options opt;
  opt.window = 16;
  opt.mad_k = 2.0;
  opt.min_samples = 4;
  opt.floor_ms = 1.0;
  opt.ceiling_ms = 10000.0;
  opt.recompute_every = 4;
  parallel::DeadlineEstimator est(opt);
  const auto fallback = std::chrono::milliseconds(30000);

  // Only barriers have run so far; the broadcast class is empty, so its
  // deadline comes from the all-classes ring instead of the raw fallback.
  for (int i = 0; i < 8; ++i)
    est.record(parallel::CollectiveClass::Barrier, 20.0);
  EXPECT_EQ(est.sample_count(parallel::CollectiveClass::Broadcast), 0u);
  EXPECT_EQ(est.deadline(parallel::CollectiveClass::Broadcast, fallback)
                .count(),
            20);
}

TEST(DeadlineEstimator, ValidatesOptions) {
  parallel::DeadlineEstimator::Options bad;
  bad.window = 2;
  EXPECT_THROW(parallel::DeadlineEstimator{bad}, Error);
  bad = {};
  bad.floor_ms = 10.0;
  bad.ceiling_ms = 5.0;
  EXPECT_THROW(parallel::DeadlineEstimator{bad}, Error);
}

// ---------------------------------------------------------------------------
// StragglerDetector

parallel::StragglerDetector::Options fast_detector_opts() {
  parallel::StragglerDetector::Options opt;
  opt.min_window_ms = 1.0;
  return opt;
}

TEST(StragglerDetector, DegradesAfterConsecutiveWindowsAndRecovers) {
  parallel::StragglerDetector det(4, fast_detector_opts());
  EXPECT_FALSE(det.any_degraded());

  // Rank 2 runs 4x slower than the pack. One window is not enough
  // (hysteresis), the second consecutive one is.
  for (std::size_t r = 0; r < 4; ++r)
    det.record_work(r, r == 2 ? 40.0 : 10.0);
  det.classify();
  EXPECT_FALSE(det.any_degraded());
  for (std::size_t r = 0; r < 4; ++r)
    det.record_work(r, r == 2 ? 40.0 : 10.0);
  EXPECT_TRUE(det.classify());
  EXPECT_TRUE(det.any_degraded());
  EXPECT_EQ(det.degraded_ranks(), (std::vector<std::size_t>{2}));

  // Measured speed weight: median / own window = 10 / 40.
  const auto w = det.speed_weights();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[2], 0.25);

  // Two clean windows recover the rank and restore its weight.
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < 4; ++r) det.record_work(r, 10.0);
    det.classify();
  }
  EXPECT_FALSE(det.any_degraded());
  EXPECT_DOUBLE_EQ(det.speed_weights()[2], 1.0);

  const auto stats = det.stats();
  EXPECT_EQ(stats.degrade_events, 1u);
  EXPECT_EQ(stats.recover_events, 1u);
  EXPECT_EQ(stats.windows, 4u);
  EXPECT_EQ(stats.samples, 16u);
}

TEST(StragglerDetector, WeightFloorBoundsTheSlowestRank) {
  parallel::StragglerDetector det(4, fast_detector_opts());
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 1 ? 1000.0 : 10.0);
    det.classify();
  }
  ASSERT_TRUE(det.any_degraded());
  // 10/1000 would be 0.01; the floor keeps the target share sane.
  EXPECT_DOUBLE_EQ(det.speed_weights()[1], 1.0 / 16.0);
}

TEST(StragglerDetector, NoiseFloorAndLonelyWindowsCarryNoSignal) {
  parallel::StragglerDetector det(4);  // default min_window_ms = 10
  // Median window under the noise floor: a 100x outlier means nothing when
  // the pack's work is microscopic.
  for (int k = 0; k < 3; ++k) {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 2 ? 100.0 : 0.5);
    EXPECT_FALSE(det.classify());
  }
  EXPECT_FALSE(det.any_degraded());

  // A window where only one rank moved has no peers to be slower than.
  parallel::StragglerDetector lonely(4, fast_detector_opts());
  for (int k = 0; k < 3; ++k) {
    lonely.record_work(0, 500.0);
    EXPECT_FALSE(lonely.classify());
  }
  EXPECT_FALSE(lonely.any_degraded());
}

TEST(StragglerDetector, SubFloorWindowsCarryUntilTheyClassify) {
  // Short iterations (4 ms of pack work per call, under the default 10 ms
  // floor) must not blind the ledger: each sub-floor window stays open, so
  // every third call classifies a 12 ms window -- and an 8x rank degrades
  // after two such windows.
  parallel::StragglerDetector det(4);
  const auto call = [&det] {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 2 ? 32.0 : 4.0);
    return det.classify();
  };
  for (int k = 0; k < 5; ++k) {
    EXPECT_FALSE(call()) << "call " << k;
    EXPECT_FALSE(det.any_degraded()) << "call " << k;
  }
  EXPECT_EQ(det.snapshot()[2].last_window_ms, 96.0);  // the first 3-call window
  EXPECT_TRUE(call());
  EXPECT_EQ(det.degraded_ranks(), (std::vector<std::size_t>{2}));
  // Measured over the carried window: 12 ms median / 96 ms.
  EXPECT_DOUBLE_EQ(det.speed_weights()[2], 0.125);

  // Every call counts as a window; samples count once, when classified.
  const auto stats = det.stats();
  EXPECT_EQ(stats.windows, 6u);
  EXPECT_EQ(stats.samples, 24u);
  EXPECT_EQ(det.snapshot()[0].samples, 6u);
}

TEST(StragglerDetector, MinRelativeGuardsZeroMadWindows) {
  // Three identical ranks make MAD zero; without the relative guard any
  // epsilon above the median would classify. 1.9x median stays healthy,
  // 2.5x degrades.
  parallel::StragglerDetector det(4, fast_detector_opts());
  for (int k = 0; k < 3; ++k) {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 3 ? 19.0 : 10.0);
    det.classify();
  }
  EXPECT_FALSE(det.any_degraded());
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 3 ? 25.0 : 10.0);
    det.classify();
  }
  EXPECT_TRUE(det.any_degraded());
}

TEST(StragglerDetector, RetainDropsRanksAndClearsStaleVerdicts) {
  parallel::StragglerDetector det(4, fast_detector_opts());
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 3 ? 50.0 : 10.0);
    det.classify();
  }
  ASSERT_EQ(det.degraded_ranks(), (std::vector<std::size_t>{3}));

  // The shrink rung retires original rank 3: its verdict must not outlive
  // it -- no stale degraded flag, no biased weight.
  det.retain({0, 1, 2});
  EXPECT_FALSE(det.any_degraded());
  EXPECT_TRUE(det.degraded_ranks().empty());
  EXPECT_DOUBLE_EQ(det.speed_weights()[3], 1.0);
  const auto rows = det.snapshot();
  EXPECT_FALSE(rows[3].active);
  EXPECT_TRUE(rows[0].active);

  // A retired rank's late samples are ignored by classification.
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < 4; ++r)
      det.record_work(r, r == 3 ? 80.0 : 10.0);
    det.classify();
  }
  EXPECT_FALSE(det.any_degraded());

  EXPECT_THROW(det.retain({7}), Error);
  EXPECT_THROW(parallel::StragglerDetector(0), Error);
}

// ---------------------------------------------------------------------------
// Slowdown fault kind

TEST(SlowdownFault, AddValidatesFactorAndJitter) {
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Slowdown;
  ev.slow_factor = 0.5;  // a speed-UP is a plan bug
  EXPECT_THROW(plan.add(ev), Error);
  ev.slow_factor = 4.0;
  ev.slow_jitter = 1.0;  // jitter must stay in [0, 1)
  EXPECT_THROW(plan.add(ev), Error);
  ev.slow_jitter = 0.3;
  EXPECT_NO_THROW(plan.add(ev));
}

TEST(SlowdownFault, PersistentRefiresAndTransientHonoursRepeat) {
  const std::atomic<bool> not_cancelled{false};
  const auto run_seqs = [&](parallel::FaultInjector& injector,
                            std::size_t n_seqs) {
    for (std::size_t seq = 0; seq < n_seqs; ++seq)
      injector.on_collective(/*rank=*/0, /*original_rank=*/0, seq, "barrier",
                             {}, [&] { return not_cancelled.load(); },
                             /*work_ms=*/20.0);
  };

  // Persistent: once fired at its start collective, it fires at EVERY later
  // collective -- a degraded node stays degraded.
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Slowdown;
  ev.rank = 0;
  ev.collective = 2;
  ev.slow_factor = 1.5;
  ev.transient = false;
  parallel::FaultInjector persistent(parallel::FaultPlan().add(ev));
  run_seqs(persistent, 6);
  EXPECT_EQ(persistent.stats().slowdowns, 4u);  // seqs 2, 3, 4, 5
  EXPECT_EQ(persistent.stats().total(), 4u);

  // Transient: `repeat` consecutive collectives, then done for good.
  ev.transient = true;
  ev.repeat = 2;
  parallel::FaultInjector transient(parallel::FaultPlan().add(ev));
  const Timer timer;
  run_seqs(transient, 6);
  EXPECT_EQ(transient.stats().slowdowns, 2u);  // seqs 2, 3 only
  EXPECT_EQ(transient.pending(), 0u);
  // Each firing sleeps (factor - 1) * work = 10 ms; two firings put a hard
  // floor under the elapsed time (scheduling noise only adds).
  EXPECT_GE(timer.seconds(), 0.015);
}

TEST(SlowdownFault, RandomPlanDrawsDistinctRanksDisjointFromKills) {
  const auto plan = parallel::FaultPlan::random(
      /*seed=*/42, /*n_events=*/2, /*n_ranks=*/6, /*first_collective=*/5,
      /*last_collective=*/50,
      {parallel::FaultKind::BitFlip}, /*permanent_kills=*/2, /*slowdowns=*/3,
      /*slow_factor=*/6.0);

  std::set<std::size_t> kill_ranks, slow_ranks;
  std::size_t corruptions = 0;
  for (const auto& ev : plan.events()) {
    if (ev.kind == parallel::FaultKind::Kill) {
      EXPECT_FALSE(ev.transient);
      kill_ranks.insert(ev.rank);
    } else if (ev.kind == parallel::FaultKind::Slowdown) {
      EXPECT_TRUE(ev.transient);
      EXPECT_DOUBLE_EQ(ev.slow_factor, 6.0);
      EXPECT_GT(ev.slow_jitter, 0.0);
      EXPECT_LT(ev.slow_jitter, 1.0);
      EXPECT_GE(ev.repeat, 2u);
      EXPECT_LE(ev.repeat, 6u);
      slow_ranks.insert(ev.rank);
    } else {
      ++corruptions;
    }
  }
  EXPECT_EQ(corruptions, 2u);
  EXPECT_EQ(kill_ranks.size(), 2u);  // distinct victims
  EXPECT_EQ(slow_ranks.size(), 3u);  // distinct victims
  for (const auto r : slow_ranks) {
    EXPECT_EQ(kill_ranks.count(r), 0u)
        << "slowdown landed on a killed rank " << r;
    EXPECT_LT(r, 6u);
  }

  // Seed-deterministic: the same draw reproduces bit-for-bit.
  const auto again = parallel::FaultPlan::random(
      42, 2, 6, 5, 50, {parallel::FaultKind::BitFlip}, 2, 3, 6.0);
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan.events()[i].rank, again.events()[i].rank);
    EXPECT_EQ(plan.events()[i].collective, again.events()[i].collective);
    EXPECT_EQ(static_cast<int>(plan.events()[i].kind),
              static_cast<int>(again.events()[i].kind));
  }

  // The cap: slowdown victims come from the ranks the kills left over.
  const auto capped = parallel::FaultPlan::random(
      7, 0, 3, 0, 10, {parallel::FaultKind::BitFlip}, 2, 5, 4.0);
  std::size_t slow = 0;
  for (const auto& ev : capped.events())
    slow += ev.kind == parallel::FaultKind::Slowdown ? 1 : 0;
  EXPECT_EQ(slow, 1u);  // 3 ranks - 2 kill victims
}

// ---------------------------------------------------------------------------
// Weighted rebalance re-mapping

std::vector<grid::Batch> uniform_batches(std::size_t n, std::size_t points) {
  std::vector<grid::Batch> batches(n);
  for (std::size_t i = 0; i < n; ++i) {
    batches[i].points.resize(points);
    batches[i].centroid = {static_cast<double>(i % 7),
                           static_cast<double>(i % 3), 0.0};
    batches[i].atoms = {static_cast<std::uint32_t>(i % 4)};
  }
  return batches;
}

TEST(Rebalance, WeightedTargetsMoveLoadOffSlowRanks) {
  const auto batches = uniform_batches(24, 10);
  const auto before = mapping::least_loaded_mapping(batches, 4);
  const std::size_t slow_before = before.points_of_rank(3, batches);

  const auto out = mapping::rebalance_for_slow_ranks(
      before, batches, {1.0, 1.0, 1.0, 0.25});

  // No renumbering: the world shape is untouched, every batch owned once.
  ASSERT_EQ(out.assignment.rank_count(), 4u);
  std::set<std::uint32_t> owned;
  std::size_t total = 0;
  for (const auto& ids : out.assignment.batches_of_rank) {
    EXPECT_GE(ids.size(), 1u);  // nobody is starved out of the world
    for (const auto id : ids) owned.insert(id);
    total += ids.size();
  }
  EXPECT_EQ(total, 24u);
  EXPECT_EQ(owned.size(), 24u);

  // The slow rank sheds toward its weighted fair share (0.25 / 3.25 of the
  // points); the healthy ranks absorb the orphans.
  const std::size_t slow_after = out.assignment.points_of_rank(3, batches);
  EXPECT_LT(slow_after, slow_before);
  EXPECT_LE(slow_after, 240 / 4);
  EXPECT_GE(out.moved_batches, 1u);
  EXPECT_EQ(out.moved_points, out.moved_batches * 10);

  // Deterministic: every rank computing its own copy agrees bit-for-bit.
  const auto again = mapping::rebalance_for_slow_ranks(
      before, batches, {1.0, 1.0, 1.0, 0.25});
  EXPECT_EQ(again.assignment.batches_of_rank,
            out.assignment.batches_of_rank);
  EXPECT_EQ(again.moved_batches, out.moved_batches);
}

TEST(Rebalance, EqualWeightsOnBalancedMappingMoveNothing) {
  const auto batches = uniform_batches(24, 10);
  const auto before = mapping::least_loaded_mapping(batches, 4);
  const auto out = mapping::rebalance_for_slow_ranks(before, batches,
                                                     {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(out.moved_batches, 0u);
  for (std::size_t r = 0; r < 4; ++r) {
    auto expect = before.batches_of_rank[r];
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(out.assignment.batches_of_rank[r], expect);
  }
}

TEST(Rebalance, ValidatesWeights) {
  const auto batches = uniform_batches(8, 10);
  const auto before = mapping::least_loaded_mapping(batches, 4);
  EXPECT_THROW((void)mapping::rebalance_for_slow_ranks(before, batches,
                                                       {1.0, 1.0}),
               Error);
  EXPECT_THROW((void)mapping::rebalance_for_slow_ranks(
                   before, batches, {1.0, 0.0, 1.0, 1.0}),
               Error);
  EXPECT_THROW((void)mapping::rebalance_for_slow_ranks(
                   before, batches, {1.0, -0.5, 1.0, 1.0}),
               Error);
}

// ---------------------------------------------------------------------------
// Adaptive deadlines on a live cluster

TEST(AdaptiveDeadlines, OffByDefaultAndEnvGateArmsConstructors) {
  parallel::Cluster plain(2, 2);
  EXPECT_FALSE(plain.adaptive_deadlines());
  EXPECT_EQ(plain.deadline_estimator(), nullptr);
  EXPECT_EQ(plain.effective_timeout(parallel::CollectiveClass::Barrier),
            plain.collective_timeout());

  parallel::set_adaptive_timeout(true);
  parallel::Cluster armed(2, 2);
  EXPECT_TRUE(armed.adaptive_deadlines());
  EXPECT_NE(armed.deadline_estimator(), nullptr);
  parallel::set_adaptive_timeout(false);
  parallel::Cluster disarmed(2, 2);
  EXPECT_FALSE(disarmed.adaptive_deadlines());
}

TEST(AdaptiveDeadlines, LearnedDeadlineCutsAStallShort) {
  parallel::Cluster cluster(2, 2);
  cluster.set_collective_timeout(std::chrono::milliseconds(30000));
  cluster.set_adaptive_deadlines(true, /*floor_ms=*/100.0);

  // Teach the estimator what a healthy barrier looks like (microseconds).
  cluster.run([](parallel::Communicator& comm) {
    for (int i = 0; i < 16; ++i) comm.barrier();
  });
  ASSERT_NE(cluster.deadline_estimator(), nullptr);
  EXPECT_GE(cluster.deadline_estimator()->sample_count(
                parallel::CollectiveClass::Barrier),
            16u);
  const auto learned =
      cluster.effective_timeout(parallel::CollectiveClass::Barrier);
  EXPECT_GE(learned.count(), 100);   // clamped up to the floor
  EXPECT_LT(learned.count(), 30000); // far below the fixed timeout

  // A 3 s stall on rank 1 blows the learned deadline long before it would
  // trouble the fixed 30 s timeout: rank 0 raises CollectiveTimeout in
  // ~100 ms instead of waiting the stall out.
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Stall;
  ev.rank = 1;
  ev.collective = 0;
  ev.stall_ms = 3000;
  parallel::FaultInjector injector(parallel::FaultPlan().add(ev));
  cluster.set_fault_injector(&injector);

  const Timer timer;
  const auto outcomes = cluster.run_collect(
      [](parallel::Communicator& comm) { comm.barrier(); });
  EXPECT_LT(timer.seconds(), 2.5);  // did not sit out the full stall
  bool timed_out = false;
  for (const auto& e : outcomes) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const parallel::CollectiveTimeout&) {
      timed_out = true;
    } catch (const parallel::RankFailure&) {
      // Secondary failure after the timeout released the barrier.
    }
  }
  EXPECT_TRUE(timed_out);
}

TEST(AdaptiveDeadlines, ClusterFeedsAttachedDetectorAtCollectives) {
  parallel::StragglerDetector det(4, fast_detector_opts());
  parallel::Cluster cluster(4, 2);
  cluster.set_straggler_detector(&det);
  EXPECT_EQ(cluster.straggler_detector(), &det);

  cluster.run([](parallel::Communicator& comm) {
    for (int i = 0; i < 4; ++i) comm.barrier();
  });
  // Every rank's arrival recorded (first barrier has no previous leave).
  const auto rows = det.snapshot();
  for (const auto& row : rows) EXPECT_GE(row.samples, 3u) << row.original_rank;
}

// ---------------------------------------------------------------------------
// End-to-end: the rebalance rung beats the shrink rung for stragglers

const scf::ScfResult& straggler_ground() {
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

core::ParallelDfptOptions straggler_popt(parallel::FaultInjector* injector) {
  core::ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-9;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 96;
  popt.fault_injector = injector;
  popt.collective_timeout_ms = 30000;
  return popt;
}

// The tentpole acceptance: one rank runs persistently 8x slow. The governed
// run must NOT shrink -- the rebalance rung classifies the rank, re-targets
// its batch share by measured speed, and the run completes at full world
// size, matching the fault-free serial reference to 1e-8.
TEST(StragglerE2E, PersistentSlowdownRebalancesAtFullWorld) {
  const auto& ground = straggler_ground();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions ref_opt;
  ref_opt.tolerance = 1e-9;
  const core::DfptDirectionResult ref =
      core::DfptSolver(ground, ref_opt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Slowdown;
  ev.rank = 1;
  ev.collective = 10;
  ev.slow_factor = 8.0;
  ev.transient = false;  // stays slow until the ladder rebalances around it
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  resilience::CheckpointStore store(fresh_dir("straggler_accept"));
  resilience::RecoveryOptions ropt;
  ropt.elastic = true;
  ropt.max_retries = 6;
  ropt.mixing_damping = 1.0;  // the fault is mechanical, not numerical
  resilience::RecoveryDriver driver(store, ropt);

  const core::ParallelDfptResult rec =
      driver.solve_direction_parallel(ground, straggler_popt(&injector), 2);

  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GE(injector.stats().slowdowns, 10u);  // it really was slow
  EXPECT_EQ(rec.stats.shrinks, 0u);            // full world kept
  EXPECT_EQ(rec.stats.survivor_ranks, 4u);
  EXPECT_GE(rec.stats.rebalances, 1u);         // the rebalance rung fired
  EXPECT_GE(rec.stats.degraded_ranks, 1u);
  EXPECT_GE(rec.stats.rebalance_batches_moved, 1u);
  EXPECT_EQ(rec.stats.faults_detected, 0u);    // a slow rank is not a fault
  EXPECT_NEAR(rec.direction.dipole_response.z, ref.dipole_response.z, 1e-8);
  EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8);

  EXPECT_EQ(driver.last_stats().shrinks, 0u);
  EXPECT_GE(driver.last_stats().rebalances, 1u);
}

// Off the checkpoint cadence the verdict iteration is checkpointed on the
// spot, so the rebalance re-entry resumes there instead of rolling back to
// the last periodic checkpoint.
TEST(StragglerE2E, RebalanceOffCheckpointCadenceWastesNoIteration) {
  const auto& ground = straggler_ground();
  core::DfptOptions ref_opt;
  ref_opt.tolerance = 1e-9;
  const auto ref = core::DfptSolver(ground, ref_opt).solve_direction(2);

  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Slowdown;
  ev.rank = 1;
  ev.collective = 10;
  ev.slow_factor = 8.0;
  ev.transient = false;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  resilience::CheckpointStore store(fresh_dir("straggler_cadence"));
  resilience::RecoveryOptions ropt;
  ropt.elastic = true;
  ropt.max_retries = 6;
  ropt.mixing_damping = 1.0;
  ropt.checkpoint_every = 1000;  // no periodic checkpoint before the verdict
  resilience::RecoveryDriver driver(store, ropt);

  const auto rec =
      driver.solve_direction_parallel(ground, straggler_popt(&injector), 2);
  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GE(rec.stats.rebalances, 1u);
  EXPECT_EQ(rec.stats.restores, rec.stats.retries);  // every re-entry resumed
  EXPECT_EQ(rec.stats.wasted_iterations, 0u);
  EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8);
}

// Observe-only contract: attaching a detector takes no part in the
// numerics -- the result agrees with the detector-free run far inside the
// 1e-8 physics bar (collective sums add in rank order, so two runs of the
// same world reproduce each other bit for bit).
TEST(StragglerE2E, DetectorIsObserveOnly) {
  const auto& ground = straggler_ground();
  const auto plain =
      core::solve_direction_parallel(ground, straggler_popt(nullptr), 2);
  ASSERT_TRUE(plain.direction.converged);

  parallel::StragglerDetector det(4);
  auto popt = straggler_popt(nullptr);
  popt.straggler_detector = &det;
  const auto observed = core::solve_direction_parallel(ground, popt, 2);

  EXPECT_TRUE(observed.direction.converged);
  EXPECT_EQ(observed.direction.iterations, plain.direction.iterations);
  EXPECT_LT(observed.direction.p1.max_abs_diff(plain.direction.p1), 1e-12);
  EXPECT_NEAR(observed.direction.dipole_response.z,
              plain.direction.dipole_response.z, 1e-12);
  std::size_t fed = 0;
  for (const auto& row : det.snapshot()) fed += row.samples;
  EXPECT_GT(fed, 0u);                // the ledger really was fed
  EXPECT_FALSE(det.any_degraded());  // and nobody was slandered
}

// ---------------------------------------------------------------------------
// Chaos soak (also run by ctest as straggler_chaos_soak with --gtest_repeat)

// Adaptive deadlines armed, no injection: a clean governed run must see
// ZERO spurious timeouts -- no faults, no retries, no shrink.
TEST(StragglerChaosSoak, AdaptiveDeadlinesCleanRunHasZeroSpuriousTimeouts) {
  const auto& ground = straggler_ground();
  auto popt = straggler_popt(nullptr);
  popt.adaptive_deadlines = 1;  // arm (estimator default floor)

  resilience::CheckpointStore store(fresh_dir("straggler_adaptive_clean"));
  resilience::RecoveryOptions ropt;
  ropt.elastic = true;
  ropt.max_retries = 3;
  resilience::RecoveryDriver driver(store, ropt);

  const auto rec = driver.solve_direction_parallel(ground, popt, 2);
  EXPECT_TRUE(rec.direction.converged);
  EXPECT_EQ(rec.stats.faults_detected, 0u);
  EXPECT_EQ(rec.stats.retries, 0u);
  EXPECT_EQ(rec.stats.shrinks, 0u);
}

// Seeded mixes of slowdowns, permanent kills and payload corruption: every
// scenario either converges to the reference or fails with a structured
// error -- never a deadlock, never a crash.
TEST(StragglerChaosSoak, SlowdownKillMixConvergesOrFailsStructurally) {
  const auto& ground = straggler_ground();
  core::DfptOptions ref_opt;
  ref_opt.tolerance = 1e-9;
  const core::DfptDirectionResult ref =
      core::DfptSolver(ground, ref_opt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  int converged = 0;
  int structured = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto plan = parallel::FaultPlan::random(
        seed, /*n_events=*/1, /*n_ranks=*/4, /*first_collective=*/5,
        /*last_collective=*/120, {parallel::FaultKind::BitFlip},
        /*permanent_kills=*/seed % 2, /*slowdowns=*/1, /*slow_factor=*/4.0);
    parallel::FaultInjector injector(std::move(plan));

    resilience::CheckpointStore store(
        fresh_dir("straggler_soak_" + std::to_string(seed)));
    resilience::RecoveryOptions ropt;
    ropt.elastic = true;
    ropt.max_retries = 8;
    ropt.mixing_damping = 1.0;
    resilience::RecoveryDriver driver(store, ropt);

    try {
      const auto rec =
          driver.solve_direction_parallel(ground, straggler_popt(&injector), 2);
      if (rec.direction.converged) {
        ++converged;
        EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8)
            << "seed " << seed;
      }
    } catch (const Error&) {
      ++structured;
    }
  }
  EXPECT_EQ(converged + structured, 3);
  EXPECT_GE(converged, 2);
}

}  // namespace
