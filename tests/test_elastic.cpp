// Elastic rank-failure recovery tests: survivor worlds with origin
// tracking, permanent (re-firing) fault semantics, locality-aware survivor
// re-mapping, buddy-replicated checkpoints, and the RecoveryDriver's
// shrink-and-continue escalation. The acceptance bar: a distributed CPSCF
// run that permanently loses a rank completes on the survivors via
// buddy-restore + shrink + re-map and matches the fault-free reference to
// 1e-8; the same scenario without elastic recovery surfaces a structured
// RankFailure instead of deadlocking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "comm/packed.hpp"
#include "grid/batch.hpp"
#include "mapping/task_mapping.hpp"
#include "obs/metrics.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "parallel/straggler.hpp"
#include "resilience/buddy.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/recovery.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::resilience;

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

linalg::Matrix test_matrix(std::size_t rows, std::size_t cols, double scale) {
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m(i, j) = scale * (1.0 + std::sin(static_cast<double>(i * cols + j)));
  return m;
}

// ---------------------------------------------------------------------------
// Survivor worlds (ULFM shrink analogue): a Cluster built with an origin map

TEST(SurvivorWorld, RenumbersSurvivorsAndTracksOrigins) {
  parallel::Cluster full(4, 2);
  EXPECT_EQ(full.original_rank(3), 3u);

  // Original ranks 0 and 1 are lost: the survivors run as ranks 0 and 1
  // and keep their original ids.
  parallel::Cluster survivors(2, 2, {2, 3});
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors.original_rank(0), 2u);
  EXPECT_EQ(survivors.original_rank(1), 3u);

  // Collectives still work on the survivor world, and every rank sees its
  // original id through the communicator.
  std::vector<double> got(2, -1.0);
  survivors.run([&](parallel::Communicator& comm) {
    std::vector<double> data{1.0};
    comm.allreduce_sum(data);
    got[comm.rank()] = data[0];
    EXPECT_EQ(comm.original_rank(), comm.rank() == 0 ? 2u : 3u);
    EXPECT_EQ(comm.original_rank_of(0), 2u);
  });
  EXPECT_EQ(got[0], 2.0);
  EXPECT_EQ(got[1], 2.0);

  // The origin map names every rank of the world exactly once: two ranks
  // with one original id would share one fault-plan address and one
  // straggler-ledger row.
  const std::vector<std::size_t> short_map{0, 2};
  EXPECT_THROW(parallel::Cluster(3, 2, short_map), Error);
  const std::vector<std::size_t> repeated{0, 2, 2};
  try {
    const parallel::Cluster world(3, 2, repeated);
    FAIL() << "a repeated original id was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("original rank 2 twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(SurvivorWorld, FeedsTheStragglerLedgerUnderOriginalIds) {
  parallel::StragglerDetector::Options dopt;
  dopt.min_window_ms = 1.0;
  parallel::StragglerDetector detector(4, dopt);
  // Original rank 1 is lost: the recovery driver retires it from the
  // ledger, and the next attempt attaches the same detector to the
  // survivor world.
  const std::vector<std::size_t> survivors{0, 2, 3};
  detector.retain(survivors);
  parallel::Cluster world(3, 2, survivors);
  world.set_straggler_detector(&detector);

  // Survivors feed the ledger under their ORIGINAL ids; the dead rank's
  // row stays quiet.
  const auto survivor_before = detector.snapshot()[3].samples;
  const auto dead_before = detector.snapshot()[1].samples;
  world.run([](parallel::Communicator& comm) {
    for (int i = 0; i < 4; ++i) comm.barrier();
  });
  EXPECT_GT(detector.snapshot()[3].samples, survivor_before);
  EXPECT_EQ(detector.snapshot()[1].samples, dead_before);
  EXPECT_FALSE(detector.snapshot()[1].active);
}

TEST(SurvivorWorld, FaultPlanKeepsAddressingOriginalRanks) {
  // The plan kills ORIGINAL rank 2. In the survivor world of original
  // ranks {0, 2, 3} it runs as rank 1 -- the fault must follow the
  // physical rank, not the slot number.
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 2;
  ev.collective = 0;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster world(3, 2, {0, 2, 3});
  world.set_fault_injector(&injector);
  const auto outcomes =
      world.run_collect([](parallel::Communicator& comm) { comm.barrier(); });
  ASSERT_EQ(outcomes.size(), 3u);
  int failures = 0;
  for (const auto& e : outcomes) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const parallel::RankFailure& f) {
      ++failures;
      EXPECT_EQ(f.failed_rank(), 1u);  // current id of original rank 2
      EXPECT_NE(std::string(f.what()).find("original rank 2"),
                std::string::npos)
          << f.what();
    }
  }
  EXPECT_GE(failures, 1);

  // Excluding the victim silences the fault entirely.
  parallel::FaultPlan plan2;
  plan2.add(ev);
  parallel::FaultInjector injector2(std::move(plan2));
  parallel::Cluster survivors(3, 2, {0, 1, 3});
  survivors.set_fault_injector(&injector2);
  std::vector<double> got(3, 0.0);
  survivors.run([&](parallel::Communicator& comm) {
    std::vector<double> data{1.0};
    comm.allreduce_sum(data);
    got[comm.rank()] = data[0];
  });
  EXPECT_EQ(got[0], 3.0);
  EXPECT_EQ(injector2.stats().kills, 0u);
}

// ---------------------------------------------------------------------------
// Permanent fault semantics

TEST(PermanentFaults, PermanentKillRefiresOnEveryRetry) {
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 1;
  ev.collective = 2;
  ev.transient = false;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  const auto attempt = [&] {
    return cluster.run_collect([](parallel::Communicator& comm) {
      for (int i = 0; i < 4; ++i) comm.barrier();
    });
  };

  // First run: fires at the planned collective #2.
  auto outcomes = attempt();
  ASSERT_TRUE(outcomes[1] != nullptr);
  EXPECT_EQ(injector.stats().kills, 1u);
  EXPECT_EQ(injector.pending(), 0u);  // fired -> no longer pending ...

  // ... but NOT exhausted: a retry at the same world size dies again, now
  // at the victim's very first collective (a dead node is dead).
  outcomes = attempt();
  ASSERT_TRUE(outcomes[1] != nullptr);
  try {
    std::rethrow_exception(outcomes[1]);
  } catch (const parallel::RankFailure& e) {
    EXPECT_EQ(e.failed_rank(), 1u);
    const std::string what = e.what();
    EXPECT_NE(what.find("permanently"), std::string::npos) << what;
    EXPECT_NE(what.find("collective #0"), std::string::npos) << what;
  }
  EXPECT_EQ(injector.stats().kills, 2u);
}

TEST(PermanentFaults, RandomPlanDrawsDistinctPermanentKills) {
  const auto a = parallel::FaultPlan::random(99, 0, 4, 5, 25, {}, 3);
  const auto b = parallel::FaultPlan::random(99, 0, 4, 5, 25, {}, 3);
  ASSERT_EQ(a.size(), 3u);
  std::set<std::size_t> victims;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& e = a.events()[i];
    EXPECT_EQ(static_cast<int>(e.kind),
              static_cast<int>(parallel::FaultKind::Kill));
    EXPECT_FALSE(e.transient);
    EXPECT_LT(e.rank, 4u);
    EXPECT_GE(e.collective, 5u);
    EXPECT_LT(e.collective, 25u);
    victims.insert(e.rank);
    EXPECT_EQ(e.rank, b.events()[i].rank);  // seed-deterministic
    EXPECT_EQ(e.collective, b.events()[i].collective);
  }
  EXPECT_EQ(victims.size(), 3u);  // distinct ranks

  // Capped at n_ranks - 1: at least one rank must survive.
  const auto capped = parallel::FaultPlan::random(99, 0, 4, 5, 25, {}, 40);
  EXPECT_EQ(capped.size(), 3u);
}

// ---------------------------------------------------------------------------
// Locality-aware survivor re-mapping

std::vector<grid::Batch> synthetic_batches(std::size_t n) {
  std::vector<grid::Batch> batches(n);
  for (std::size_t i = 0; i < n; ++i) {
    batches[i].points.resize(8 + (i % 5) * 4);  // varied sizes
    batches[i].centroid = {static_cast<double>(i % 7),
                           static_cast<double>(i % 3), 0.0};
    batches[i].atoms = {static_cast<std::uint32_t>(i % 4)};
  }
  return batches;
}

TEST(Remap, SurvivorsKeepBatchesAndOrphansAreCovered) {
  const auto batches = synthetic_batches(40);
  const auto initial = mapping::locality_enhancing_mapping(batches, 4);
  ASSERT_EQ(initial.rank_count(), 4u);

  const std::vector<std::size_t> survivors{0, 2, 3};
  const auto remap = mapping::remap_for_survivors(initial, batches, survivors);
  ASSERT_EQ(remap.assignment.rank_count(), 3u);

  // Survivors keep everything they owned (their caches stay valid).
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    for (const auto id : initial.batches_of_rank[survivors[s]]) {
      const auto& mine = remap.assignment.batches_of_rank[s];
      EXPECT_NE(std::find(mine.begin(), mine.end(), id), mine.end())
          << "survivor " << survivors[s] << " lost batch " << id;
    }
  }

  // Every batch is owned exactly once, and the move counters account for
  // exactly the dead rank's former load.
  std::set<std::uint32_t> owned;
  for (std::size_t s = 0; s < 3; ++s)
    for (const auto id : remap.assignment.batches_of_rank[s])
      EXPECT_TRUE(owned.insert(id).second) << "batch " << id << " owned twice";
  EXPECT_EQ(owned.size(), batches.size());
  EXPECT_EQ(remap.moved_batches, initial.batches_of_rank[1].size());
  EXPECT_EQ(remap.moved_points, initial.points_of_rank(1, batches));

  // Deterministic: same inputs, identical placement.
  const auto again = mapping::remap_for_survivors(initial, batches, survivors);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(again.assignment.batches_of_rank[s],
              remap.assignment.batches_of_rank[s]);

  EXPECT_THROW(
      (void)mapping::remap_for_survivors(initial, batches, {}), Error);
  EXPECT_THROW(
      (void)mapping::remap_for_survivors(initial, batches, {2, 0}), Error);
  EXPECT_THROW(
      (void)mapping::remap_for_survivors(initial, batches, {0, 7}), Error);
}

// ---------------------------------------------------------------------------
// Buddy replication

TEST(Buddy, ReplicateRoundTripTracksHolders) {
  parallel::Cluster cluster(4, 2);
  BuddyReplicator buddy(4);
  cluster.run([&](parallel::Communicator& comm) {
    CpscfCheckpoint ckpt;
    ckpt.direction = 2;
    ckpt.iteration = static_cast<int>(comm.rank()) + 1;
    ckpt.mixing = 0.3;
    ckpt.last_delta = 1e-5;
    ckpt.p1 = test_matrix(6, 6, 0.1 * (comm.rank() + 1));
    buddy.replicate(comm, serialize(ckpt));
  });

  for (std::size_t r = 0; r < 4; ++r) {
    const auto blob = buddy.blob_of(r);
    ASSERT_TRUE(blob.has_value()) << "no replica of rank " << r;
    EXPECT_EQ(blob->holder, (r + 1) % 4);
    const auto ckpt = deserialize_cpscf(blob->bytes, "test");
    EXPECT_EQ(ckpt.iteration, static_cast<int>(r) + 1);
    EXPECT_EQ(ckpt.p1.max_abs_diff(test_matrix(6, 6, 0.1 * (r + 1))), 0.0);
  }
  EXPECT_EQ(buddy.stats().rounds, 1u);
  EXPECT_EQ(buddy.stats().blobs_mirrored, 4u);

  // A dead rank's memory takes the replicas it held with it.
  EXPECT_EQ(buddy.drop_holder(1), 1u);  // rank 1 held the replica of rank 0
  EXPECT_FALSE(buddy.blob_of(0).has_value());
  EXPECT_TRUE(buddy.blob_of(1).has_value());
  EXPECT_EQ(buddy.drop_holder(1), 0u);  // idempotent
}

TEST(Buddy, ShrunkWorldReplicatesAmongSurvivors) {
  parallel::Cluster shrunk(2, 3, {0, 2});  // original rank 1 is lost
  BuddyReplicator buddy(3);
  shrunk.run([&](parallel::Communicator& comm) {
    CpscfCheckpoint ckpt;
    ckpt.iteration = 5;
    ckpt.p1 = test_matrix(4, 4, 1.0 + comm.original_rank());
    buddy.replicate(comm, serialize(ckpt));
  });
  // Blobs are slotted by ORIGINAL ids; the dead rank 1 has none.
  const auto of0 = buddy.blob_of(0);
  const auto of2 = buddy.blob_of(2);
  ASSERT_TRUE(of0.has_value());
  ASSERT_TRUE(of2.has_value());
  EXPECT_FALSE(buddy.blob_of(1).has_value());
  EXPECT_EQ(of0->holder, 2u);  // ring order on the CURRENT world
  EXPECT_EQ(of2->holder, 0u);
  EXPECT_EQ(deserialize_cpscf(of2->bytes, "t").p1.max_abs_diff(
                test_matrix(4, 4, 3.0)),
            0.0);
}

// ---------------------------------------------------------------------------
// Checkpoint store hardening (satellite: atomic, collision-free writes)

TEST(Checkpoint, ConcurrentSavesNeverTearTheFile) {
  CheckpointStore store(fresh_dir("ckpt_concurrent"));
  constexpr int kThreads = 8;
  constexpr int kSaves = 12;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kSaves; ++i) {
        CpscfCheckpoint ckpt;
        ckpt.direction = t;
        ckpt.iteration = i + 1;
        ckpt.p1 = test_matrix(10, 10, 0.5 + t);
        store.save("contended", ckpt);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Whatever save won, the file is a complete, CRC-valid checkpoint from
  // exactly one writer -- never an interleaving of two.
  const CpscfCheckpoint out = store.load_cpscf("contended");
  ASSERT_GE(out.direction, 0);
  ASSERT_LT(out.direction, kThreads);
  EXPECT_EQ(out.p1.max_abs_diff(test_matrix(10, 10, 0.5 + out.direction)), 0.0);

  // No temp-file debris survives the races.
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(store.directory())) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".ckpt") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end elastic recovery on a real molecule

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

core::ParallelDfptOptions elastic_popt(parallel::FaultInjector* injector) {
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

// The tentpole acceptance: rank 0 -- which hosts the checkpoint writer, so
// its death also takes the file checkpoint down -- dies permanently
// mid-run. The elastic driver classifies it permanent after one free
// retry, restores the last checkpoint from a buddy replica, shrinks the
// world to the three survivors, re-homes the dead rank's batches, resumes,
// and the result matches the fault-free serial reference to 1e-8.
TEST(ElasticRecovery, PermanentRankLossCompletesOnSurvivors) {
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions ref_opt;
  ref_opt.tolerance = 1e-9;
  const core::DfptDirectionResult ref =
      core::DfptSolver(ground, ref_opt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 0;
  ev.collective = 44;  // a few iterations in: checkpoints + replicas exist
  ev.transient = false;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  CheckpointStore store(fresh_dir("elastic_accept"));
  RecoveryOptions ropt;
  ropt.elastic = true;
  ropt.max_retries = 6;
  ropt.mixing_damping = 1.0;  // the fault is mechanical, not numerical
  RecoveryDriver driver(store, ropt);

  const core::ParallelDfptResult rec =
      driver.solve_direction_parallel(ground, elastic_popt(&injector), 2);

  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GE(injector.stats().kills, 2u);  // fired on the retry too
  EXPECT_EQ(rec.stats.shrinks, 1u);
  EXPECT_EQ(rec.stats.survivor_ranks, 3u);
  EXPECT_EQ(rec.stats.lost_ranks, 1u);
  EXPECT_GE(rec.stats.buddy_restores, 1u);  // the file died with rank 0
  EXPECT_GE(rec.stats.remap_batches_moved, 1u);
  EXPECT_GE(rec.stats.faults_detected, 2u);
  EXPECT_NEAR(rec.direction.dipole_response.z, ref.dipole_response.z, 1e-8);
  EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8);

  const auto& s = driver.last_stats();
  EXPECT_EQ(s.shrinks, 1u);
  EXPECT_EQ(s.lost_ranks, 1u);
  EXPECT_GE(s.buddy_restores, 1u);

  // The metrics source publishes the same counters under cpscf/*.
  const auto source = core::register_metrics(rec.stats);
  std::map<std::string, double> published;
  for (const auto& m : obs::metrics_snapshot()) published[m.name] = m.value;
  for (const char* name : {"shrinks", "lost_ranks", "survivor_ranks",
                           "faults_detected", "buddy_restores", "rebalances",
                           "degraded_ranks"})
    EXPECT_EQ(published.count(std::string("cpscf/") + name), 1u) << name;
  EXPECT_EQ(published["cpscf/shrinks"], 1.0);
  EXPECT_EQ(published["cpscf/survivor_ranks"], 3.0);
  EXPECT_EQ(published["cpscf/lost_ranks"], 1.0);
  EXPECT_GE(published["cpscf/buddy_restores"], 1.0);
  EXPECT_GE(published["cpscf/faults_detected"], 2.0);
}

// The same dead node WITHOUT elastic recovery: the retry budget burns down
// against the permanent failure and surfaces as a structured RankFailure
// carrying the budget diagnostics -- never a deadlock.
TEST(ElasticRecovery, NonElasticDriverSurfacesStructuredRankFailure) {
  const auto& ground = ground_h2();
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 0;
  ev.collective = 9;  // iteration 4 of 5 (H, broadcast, Rho per iteration)
  ev.transient = false;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  CheckpointStore store(fresh_dir("elastic_nonelastic"));
  RecoveryOptions ropt;
  ropt.max_retries = 2;  // elastic stays off
  RecoveryDriver driver(store, ropt);
  try {
    (void)driver.solve_direction_parallel(ground, elastic_popt(&injector), 2);
    FAIL() << "permanent kill did not surface";
  } catch (const parallel::RankFailure& e) {
    EXPECT_EQ(e.failed_rank(), 0u);
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("killed"), std::string::npos) << what;
  }
  EXPECT_EQ(injector.stats().kills, 3u);  // initial attempt + 2 retries
}

// The elastic floor: rank 1 dies permanently and is shrunk away, then the
// last survivor dies permanently too. There is nobody left to shrink to, so
// the driver raises a structured RankFailure naming that rank -- without
// spending the rest of its retry budget, and without deadlocking.
TEST(ElasticRecovery, LastSurvivorPermanentFailureRaisesRankFailure) {
  const auto& ground = ground_h2();
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.transient = false;
  ev.rank = 1;
  ev.collective = 10;  // fires first: rank 0 cannot pass collective 10 alone
  plan.add(ev);
  ev.rank = 0;
  ev.collective = 15;  // reached only once rank 0 runs by itself
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  core::ParallelDfptOptions popt = elastic_popt(&injector);
  popt.ranks = 2;
  CheckpointStore store(fresh_dir("elastic_floor"));
  RecoveryOptions ropt;
  ropt.elastic = true;
  ropt.max_retries = 8;
  ropt.mixing_damping = 1.0;
  RecoveryDriver driver(store, ropt);
  try {
    (void)driver.solve_direction_parallel(ground, popt, 2);
    FAIL() << "the last survivor's permanent failure did not surface";
  } catch (const parallel::RankFailure& e) {
    EXPECT_EQ(e.failed_rank(), 0u);
    const std::string what = e.what();
    EXPECT_NE(what.find("last survivor"), std::string::npos) << what;
    EXPECT_NE(what.find("killed"), std::string::npos) << what;
  }
  const auto& s = driver.last_stats();
  EXPECT_EQ(s.shrinks, 1u);
  EXPECT_EQ(s.lost_ranks, 1u);
  EXPECT_EQ(s.retries, 3u);  // rank 1 twice, then rank 0 twice
  EXPECT_EQ(injector.stats().kills, 4u);
}

// A bare solver run (no driver at all) with a permanent kill raises the
// structured failure directly.
TEST(ElasticRecovery, BareRunWithPermanentKillRaisesRankFailure) {
  const auto& ground = ground_h2();
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 2;
  ev.collective = 5;  // iteration 4 of 5 (an H and a Rho reduce per iteration)
  ev.transient = false;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));
  try {
    (void)core::solve_direction_parallel(ground, elastic_popt(&injector), 2);
    FAIL() << "permanent kill did not surface";
  } catch (const parallel::RankFailure& e) {
    EXPECT_EQ(e.failed_rank(), 2u);
    EXPECT_NE(std::string(e.what()).find("permanently"), std::string::npos);
  }
}

// Chaos soak: seeded random fault plans mixing payload corruption with
// multi-rank permanent kills, swept over the elastic driver. Every
// scenario either converges to the fault-free reference or throws a
// structured error -- and never deadlocks (the collective deadline plus
// the ctest timeout guard that).
TEST(ElasticRecovery, ChaosSoakConvergesOrFailsStructurally) {
  const auto& ground = ground_h2();
  core::DfptOptions ref_opt;
  ref_opt.tolerance = 1e-9;
  const core::DfptDirectionResult ref =
      core::DfptSolver(ground, ref_opt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  int converged = 0;
  int structured = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t permanent_kills = seed % 3;  // 0, 1 or 2 dead ranks
    auto plan = parallel::FaultPlan::random(
        seed, /*n_events=*/2, /*n_ranks=*/4, /*first_collective=*/5,
        /*last_collective=*/120,
        {parallel::FaultKind::BitFlip, parallel::FaultKind::NanPayload,
         parallel::FaultKind::InfPayload},
        permanent_kills);
    parallel::FaultInjector injector(std::move(plan));

    CheckpointStore store(
        fresh_dir("elastic_soak_" + std::to_string(seed)));
    RecoveryOptions ropt;
    ropt.elastic = true;
    ropt.max_retries = 10;
    ropt.mixing_damping = 1.0;
    RecoveryDriver driver(store, ropt);
    try {
      const auto rec =
          driver.solve_direction_parallel(ground, elastic_popt(&injector), 2);
      EXPECT_TRUE(rec.direction.converged) << "seed " << seed;
      EXPECT_NEAR(rec.direction.dipole_response.z, ref.dipole_response.z, 1e-8)
          << "seed " << seed;
      EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8)
          << "seed " << seed;
      EXPECT_EQ(rec.stats.lost_ranks, rec.stats.shrinks) << "seed " << seed;
      EXPECT_LE(rec.stats.shrinks, permanent_kills) << "seed " << seed;
      ++converged;
    } catch (const parallel::RankFailure&) {
      ++structured;  // budget exhausted against the plan -- acceptable
    } catch (const parallel::CollectiveTimeout&) {
      ++structured;
    } catch (const Error&) {
      ++structured;
    }
  }
  EXPECT_EQ(converged + structured, 5);
  EXPECT_GE(converged, 3) << "elastic recovery should save most scenarios";
}

}  // namespace
