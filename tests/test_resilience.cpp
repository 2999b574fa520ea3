// Fault-tolerance tests: deterministic fault injection in the simmpi
// runtime, checkpoint/restart of SCF and CPSCF state, and the recovery
// driver. The acceptance bar: a bit-flipped collective payload is detected,
// rolled back, and the recovered run matches the fault-free reference
// polarizability to 1e-8; a killed rank surfaces as a structured error on
// every surviving rank instead of a deadlock.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "comm/packed.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/health.hpp"
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
// Checkpoint store

TEST(Checkpoint, Crc32KnownValue) {
  const char* s = "123456789";
  const auto bytes = std::span<const unsigned char>(
      reinterpret_cast<const unsigned char*>(s), 9);
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);  // IEEE 802.3 check value
}

TEST(Checkpoint, CpscfRoundTripIsBitIdentical) {
  CheckpointStore store(fresh_dir("ckpt_roundtrip"));
  CpscfCheckpoint in;
  in.direction = 2;
  in.iteration = 7;
  in.mixing = 0.35;
  in.last_delta = 3.25e-7;
  in.p1 = test_matrix(9, 9, 0.01);
  store.save("a", in);

  const CpscfCheckpoint out = store.load_cpscf("a");
  EXPECT_EQ(out.direction, in.direction);
  EXPECT_EQ(out.iteration, in.iteration);
  EXPECT_EQ(out.mixing, in.mixing);
  EXPECT_EQ(out.last_delta, in.last_delta);
  ASSERT_EQ(out.p1.rows(), in.p1.rows());
  ASSERT_EQ(out.p1.cols(), in.p1.cols());
  EXPECT_EQ(std::memcmp(out.p1.data(), in.p1.data(),
                        sizeof(double) * in.p1.rows() * in.p1.cols()),
            0);

  // Serialization is deterministic: saving the same state twice produces
  // byte-identical files.
  store.save("b", in);
  std::ifstream fa(store.path_of("a"), std::ios::binary);
  std::ifstream fb(store.path_of("b"), std::ios::binary);
  const std::vector<char> ba((std::istreambuf_iterator<char>(fa)),
                             std::istreambuf_iterator<char>());
  const std::vector<char> bb((std::istreambuf_iterator<char>(fb)),
                             std::istreambuf_iterator<char>());
  EXPECT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb);
}

TEST(Checkpoint, ScfRoundTripRestoresDiisHistory) {
  CheckpointStore store(fresh_dir("ckpt_scf"));
  ScfCheckpoint in;
  in.iteration = 4;
  in.last_delta = 1.5e-4;
  in.density_matrix = test_matrix(6, 6, 1.0);
  in.diis_history.emplace_back(test_matrix(6, 6, 2.0), test_matrix(6, 6, 3.0));
  in.diis_history.emplace_back(test_matrix(6, 6, 4.0), test_matrix(6, 6, 5.0));
  store.save("scf", in);

  const ScfCheckpoint out = store.load_scf("scf");
  EXPECT_EQ(out.iteration, in.iteration);
  ASSERT_EQ(out.diis_history.size(), 2u);
  EXPECT_EQ(out.density_matrix.max_abs_diff(in.density_matrix), 0.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.diis_history[i].first.max_abs_diff(in.diis_history[i].first),
              0.0);
    EXPECT_EQ(out.diis_history[i].second.max_abs_diff(in.diis_history[i].second),
              0.0);
  }
}

TEST(Checkpoint, CpscfRoundTripRestoresPulayHistory) {
  CheckpointStore store(fresh_dir("ckpt_cpscf_history"));
  CpscfCheckpoint in;
  in.iteration = 5;
  in.p1 = test_matrix(6, 6, 0.01);
  in.diis_history.emplace_back(test_matrix(6, 6, 2.0), test_matrix(6, 6, 3.0));
  in.diis_history.emplace_back(test_matrix(6, 6, 4.0), test_matrix(6, 6, 5.0));
  store.save("cpscf", in);

  const CpscfCheckpoint out = store.load_cpscf("cpscf");
  EXPECT_EQ(out.p1.max_abs_diff(in.p1), 0.0);
  ASSERT_EQ(out.diis_history.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.diis_history[i].first.max_abs_diff(in.diis_history[i].first),
              0.0);
    EXPECT_EQ(out.diis_history[i].second.max_abs_diff(in.diis_history[i].second),
              0.0);
  }
  // The in-memory frame buddy replication ships decodes the same way.
  const CpscfCheckpoint wire = deserialize_cpscf(serialize(in));
  ASSERT_EQ(wire.diis_history.size(), 2u);
  EXPECT_EQ(wire.diis_history[1].second.max_abs_diff(in.diis_history[1].second),
            0.0);
}

TEST(Checkpoint, DetectsCorruptionAndMissingFiles) {
  CheckpointStore store(fresh_dir("ckpt_corrupt"));
  EXPECT_FALSE(store.try_load_cpscf("nope").has_value());
  EXPECT_THROW((void)store.load_cpscf("nope"), Error);

  CpscfCheckpoint in;
  in.iteration = 3;
  in.p1 = test_matrix(5, 5, 1.0);
  store.save("c", in);

  // Flip one payload byte on disk: the CRC must catch it, and try_load must
  // NOT silently skip a damaged checkpoint.
  {
    std::fstream f(store.path_of("c"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32);
    char byte = 0;
    f.seekg(32);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(32);
    f.write(&byte, 1);
  }
  try {
    (void)store.load_cpscf("c");
    FAIL() << "corrupt checkpoint loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)store.try_load_cpscf("c"), Error);
}

// ---------------------------------------------------------------------------
// Fault plans and injection in the simmpi runtime

// A job's outcome combines its attempts' counters with
// RecoveryStats::operator+=: every field sums, except degraded_ranks, a
// peak, which takes the larger value.
TEST(RecoveryCounters, PlusEqualsSumsEveryFieldAndKeepsTheDegradedPeak) {
  RecoveryStats a;
  a.faults_detected = 1;
  a.restores = 2;
  a.retries = 3;
  a.wasted_iterations = 4;
  a.shrinks = 5;
  a.lost_ranks = 6;
  a.buddy_restores = 7;
  a.remap_seconds = 8.5;
  a.abft_corrections = 9;
  a.invariant_violations = 10;
  a.payload_corruptions = 11;
  a.oom_events = 12;
  a.relief_actions = 13;
  a.rebalances = 14;
  a.degraded_ranks = 15;
  RecoveryStats b = a;
  b.faults_detected += 100;
  b.restores += 200;
  b.retries += 300;
  b.wasted_iterations += 400;
  b.shrinks += 500;
  b.lost_ranks += 600;
  b.buddy_restores += 700;
  b.remap_seconds += 800.0;
  b.abft_corrections += 900;
  b.invariant_violations += 1000;
  b.payload_corruptions += 1100;
  b.oom_events += 1200;
  b.relief_actions += 1300;
  b.rebalances += 1400;
  b.degraded_ranks = 3;

  RecoveryStats sum = a;
  sum += b;
  EXPECT_EQ(sum.faults_detected, 102u);
  EXPECT_EQ(sum.restores, 204u);
  EXPECT_EQ(sum.retries, 306u);
  EXPECT_EQ(sum.wasted_iterations, 408u);
  EXPECT_EQ(sum.shrinks, 510u);
  EXPECT_EQ(sum.lost_ranks, 612u);
  EXPECT_EQ(sum.buddy_restores, 714u);
  EXPECT_EQ(sum.remap_seconds, 817.0);
  EXPECT_EQ(sum.abft_corrections, 918u);
  EXPECT_EQ(sum.invariant_violations, 1020u);
  EXPECT_EQ(sum.payload_corruptions, 1122u);
  EXPECT_EQ(sum.oom_events, 1224u);
  EXPECT_EQ(sum.relief_actions, 1326u);
  EXPECT_EQ(sum.rebalances, 1428u);
  EXPECT_EQ(sum.degraded_ranks, 15u);  // max(15, 3)
  b += a;
  EXPECT_EQ(b.degraded_ranks, 15u);  // max(3, 15)
}

TEST(FaultInjection, RandomPlansAreSeedDeterministic) {
  const auto a = parallel::FaultPlan::random(1234, 8, 4, 10, 50);
  const auto b = parallel::FaultPlan::random(1234, 8, 4, 10, 50);
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.events()[i].kind),
              static_cast<int>(b.events()[i].kind));
    EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
    EXPECT_EQ(a.events()[i].collective, b.events()[i].collective);
    EXPECT_EQ(a.events()[i].element, b.events()[i].element);
    EXPECT_EQ(a.events()[i].bit, b.events()[i].bit);
    EXPECT_LT(a.events()[i].rank, 4u);
    EXPECT_GE(a.events()[i].collective, 10u);
    EXPECT_LT(a.events()[i].collective, 50u);
    EXPECT_GE(a.events()[i].bit, 48);
    EXPECT_LT(a.events()[i].bit, 64);
  }
}

TEST(FaultInjection, BitFlipCorruptsExactlyOneElementOnce) {
  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::BitFlip, /*rank=*/1, /*collective=*/0,
            /*element=*/2, /*bit=*/52});
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  std::vector<double> sums(2, 0.0);
  cluster.run([&](parallel::Communicator& comm) {
    std::vector<double> data(4, 1.0);
    comm.allreduce_sum(data);   // fault fires here on rank 1
    comm.allreduce_sum(data);   // one-shot: clean on replay
    sums[comm.rank()] = data[2];
  });
  // Element 2 was corrupted on rank 1 before the first reduce; both reduces
  // act on the corrupted contribution but no new fault fires.
  EXPECT_EQ(injector.stats().corruptions, 1u);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(sums[0], sums[1]);           // still a valid collective
  EXPECT_NE(sums[0], 4.0);               // but not the fault-free value
}

TEST(FaultInjection, StallBelowDeadlineOnlyDelays) {
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Stall;
  ev.rank = 0;
  ev.collective = 0;
  ev.stall_ms = 50;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  std::vector<double> got(2, 0.0);
  cluster.run([&](parallel::Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank() + 1)};
    comm.allreduce_sum(data);
    got[comm.rank()] = data[0];
  });
  EXPECT_EQ(got[0], 3.0);
  EXPECT_EQ(got[1], 3.0);
  EXPECT_EQ(injector.stats().stalls, 1u);
}

TEST(FaultInjection, StallPastDeadlineRaisesCollectiveTimeout) {
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Stall;
  ev.rank = 0;
  ev.collective = 0;
  ev.stall_ms = 5000;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  cluster.set_collective_timeout(std::chrono::milliseconds(200));
  const auto outcomes = cluster.run_collect([](parallel::Communicator& comm) {
    comm.barrier();
  });
  // Nobody deadlocks: the waiter times out, the stalled rank is cancelled.
  ASSERT_EQ(outcomes.size(), 2u);
  int timeouts = 0;
  for (const auto& e : outcomes) {
    ASSERT_TRUE(e != nullptr);
    try {
      std::rethrow_exception(e);
    } catch (const parallel::CollectiveTimeout&) {
      ++timeouts;
    } catch (const Error&) {
    }
  }
  EXPECT_GE(timeouts, 1);
}

TEST(FaultInjection, KilledRankSurfacesOnEverySurvivor) {
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 2;
  ev.collective = 0;
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(4, 2);
  cluster.set_fault_injector(&injector);
  const auto outcomes = cluster.run_collect([](parallel::Communicator& comm) {
    std::vector<double> data{1.0};
    comm.allreduce_sum(data);
    comm.barrier();
  });
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(outcomes[r] != nullptr) << "rank " << r << " saw no error";
    try {
      std::rethrow_exception(outcomes[r]);
    } catch (const parallel::RankFailure& e) {
      EXPECT_EQ(e.failed_rank(), 2u);
      EXPECT_NE(std::string(e.what()).find("killed"), std::string::npos);
    }
  }
  EXPECT_EQ(injector.stats().kills, 1u);
}

// ---------------------------------------------------------------------------
// Collective argument validation (satellite: mismatch diagnostics)

TEST(CollectiveValidation, AllreduceElementCountMismatchNamesBothRanks) {
  parallel::Cluster cluster(2, 2);
  try {
    cluster.run([](parallel::Communicator& comm) {
      std::vector<double> data(comm.rank() == 0 ? 1234 : 5678, 1.0);
      comm.allreduce_sum(data);
    });
    FAIL() << "mismatched allreduce did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("element count mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("1234"), std::string::npos) << what;
    EXPECT_NE(what.find("5678"), std::string::npos) << what;
  }
}

TEST(CollectiveValidation, BroadcastElementCountMismatchNamesBothRanks) {
  parallel::Cluster cluster(2, 2);
  try {
    cluster.run([](parallel::Communicator& comm) {
      std::vector<double> data(comm.rank() == 0 ? 1234 : 5678, 0.0);
      comm.broadcast(data, 0);
    });
    FAIL() << "mismatched broadcast did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broadcast"), std::string::npos) << what;
    EXPECT_NE(what.find("1234"), std::string::npos) << what;
    EXPECT_NE(what.find("5678"), std::string::npos) << what;
  }
}

// Satellite: destroying a PackedAllReducer with queued rows is a
// programming error (collective-in-destructor deadlock hazard) -> abort.
TEST(CollectiveValidation, PackedReducerUnflushedDestructorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        parallel::Cluster cluster(1, 1);
        cluster.run([](parallel::Communicator& comm) {
          std::vector<double> row(8, 1.0);
          comm::PackedAllReducer packer(comm, comm::ReduceMode::Flat);
          packer.add(row);
          // no flush() -> destructor must abort
        });
      },
      "pending_");
}

// ---------------------------------------------------------------------------
// Solver-level resilience on a real molecule

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

scf::ScfOptions h2_scf_options(scf::Mixer mixer) {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 30;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  opt.mixer = mixer;
  return opt;
}

grid::Structure h2_structure() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  return s;
}

// Satellite: CPSCF non-convergence is a detailed, actionable error.
TEST(DfptResilience, NonConvergenceThrowsDetailedError) {
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions dopt;
  dopt.max_iterations = 3;
  dopt.tolerance = 1e-14;  // unreachable in 3 iterations
  dopt.require_convergence = true;
  const core::DfptSolver solver(ground, dopt);
  try {
    (void)solver.solve_direction(2);
    FAIL() << "non-convergence did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failed to converge"), std::string::npos) << what;
    EXPECT_NE(what.find("3 iterations"), std::string::npos) << what;
    EXPECT_NE(what.find("max|dP1|"), std::string::npos) << what;
    EXPECT_NE(what.find("mixing"), std::string::npos) << what;
  }
}

// A CPSCF warm start resumes the uninterrupted trajectory bit-for-bit.
TEST(DfptResilience, SerialWarmStartIsBitIdentical) {
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const core::DfptDirectionResult ref =
      core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 4);

  // Simulate a crash after iteration 3, checkpointing through the observer.
  auto ws = std::make_shared<core::CpscfWarmStart>();
  core::DfptOptions interrupted = dopt;
  interrupted.observer = [&](const core::CpscfIterationState& s) {
    if (s.iteration == 3) {
      ws->iteration = s.iteration;
      ws->p1 = *s.p1;
      ws->diis_history = s.mixer->export_history();
      return core::CpscfAction::Abort;
    }
    return core::CpscfAction::Continue;
  };
  const auto cut = core::DfptSolver(ground, interrupted).solve_direction(2);
  EXPECT_TRUE(cut.aborted);
  EXPECT_FALSE(cut.converged);

  core::DfptOptions resumed = dopt;
  resumed.warm_start = ws;
  const auto res = core::DfptSolver(ground, resumed).solve_direction(2);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.p1.max_abs_diff(ref.p1), 0.0);
  EXPECT_EQ(res.dipole_response.z, ref.dipole_response.z);
}

// A Pulay history from another basis would be read past its end by the
// extrapolation's dot products: the warm start is refused up front.
TEST(DfptResilience, WarmStartRejectsMisSizedHistory) {
  const auto& ground = ground_h2();
  const std::size_t nb = ground.coefficients.rows();
  auto ws = std::make_shared<core::CpscfWarmStart>();
  ws->iteration = 1;
  ws->p1 = linalg::Matrix(nb, nb);
  ws->diis_history.emplace_back(linalg::Matrix(nb, nb),
                                linalg::Matrix(nb + 1, nb + 1));
  core::DfptOptions dopt;
  dopt.warm_start = ws;
  EXPECT_THROW((void)core::DfptSolver(ground, dopt).solve_direction(2), Error);
}

class ScfResume : public ::testing::TestWithParam<scf::Mixer> {};

// An SCF run interrupted mid-cycle resumes from its checkpoint and lands on
// the identical energy in the identical number of iterations.
TEST_P(ScfResume, CheckpointResumeIsBitIdentical) {
  const auto structure = h2_structure();
  const scf::ScfResult ref =
      scf::ScfSolver(structure, h2_scf_options(GetParam())).run();
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 4);

  CheckpointStore store(fresh_dir(GetParam() == scf::Mixer::Diis
                                      ? "scf_resume_diis"
                                      : "scf_resume_linear"));
  // Crash after iteration 3, with checkpointing attached.
  scf::ScfOptions opt = h2_scf_options(GetParam());
  attach_scf_checkpointing(opt, store, "h2");
  const scf::ScfObserver save = opt.observer;
  opt.observer = [&](const scf::ScfIterationState& s) {
    save(s);
    return s.iteration >= 3 ? scf::ScfAction::Abort : scf::ScfAction::Continue;
  };
  const scf::ScfResult cut = scf::ScfSolver(structure, opt).run();
  ASSERT_FALSE(cut.converged);
  ASSERT_TRUE(store.exists("h2"));

  scf::ScfOptions resume = h2_scf_options(GetParam());
  ASSERT_TRUE(resume_scf_from_checkpoint(resume, store, "h2"));
  const scf::ScfResult res = scf::ScfSolver(structure, resume).run();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_DOUBLE_EQ(res.total_energy, ref.total_energy);
  EXPECT_EQ(res.density_matrix.max_abs_diff(ref.density_matrix), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Mixers, ScfResume,
                         ::testing::Values(scf::Mixer::Linear,
                                           scf::Mixer::Diis));

// The acceptance bar of the resilience work: a corrupted collective payload
// inside a distributed CPSCF run is detected (since the SDC defense landed,
// within the same iteration -- by an invariant guard or an ABFT check --
// rather than iterations later by the health check), rolled back to the
// last checkpoint, and the recovered polarizability matches the fault-free
// serial reference to 1e-8.
TEST(DfptResilience, RecoveredParallelRunMatchesFaultFreeReference) {
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const core::DfptDirectionResult ref =
      core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::NanPayload, /*rank=*/1, /*collective=*/8,
            /*element=*/2});
  parallel::FaultInjector injector(std::move(plan));

  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 96;
  popt.fault_injector = &injector;

  CheckpointStore store(fresh_dir("recover_parallel"));
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  RecoveryDriver driver(store, ropt);
  const core::ParallelDfptResult rec =
      driver.solve_direction_parallel(ground, popt, 2);

  EXPECT_EQ(injector.pending(), 0u);  // the planned fault actually fired
  EXPECT_EQ(injector.stats().corruptions, 1u);
  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GE(rec.stats.faults_detected, 1u);
  EXPECT_GE(rec.stats.restores, 1u);
  EXPECT_GE(rec.stats.retries, 1u);
  // Same-iteration detection: the rollback discards no completed iterations
  // (the pre-SDC health check paid >= 1 wasted iteration here).
  EXPECT_EQ(rec.stats.wasted_iterations, 0u);
  EXPECT_NEAR(rec.direction.dipole_response.z, ref.dipole_response.z, 1e-8);
  EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8);
}

// The first retry restores P^(1) and the Pulay history from the checkpoint,
// so it replays the fault-free trajectory of the same world bit for bit.
TEST(DfptResilience, FirstRetryReplaysTheTrajectoryBitForBit) {
  const auto& ground = ground_h2();
  core::ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 96;
  const core::ParallelDfptResult clean =
      core::solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(clean.direction.converged);

  // Rank 1's abort broadcasts carry no payload, so the NaN lands in its
  // collective 11, iteration 5's packed H-phase reduce: the poisoned H^(1)
  // rolls the run back to the last checkpoint and its Pulay history.
  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::NanPayload, /*rank=*/1, /*collective=*/11,
            /*element=*/0});
  parallel::FaultInjector injector(std::move(plan));
  popt.fault_injector = &injector;
  CheckpointStore store(fresh_dir("recover_replay"));
  RecoveryDriver driver(store, RecoveryOptions{});
  const core::ParallelDfptResult rec =
      driver.solve_direction_parallel(ground, popt, 2);

  EXPECT_EQ(injector.stats().corruptions, 1u);
  EXPECT_EQ(rec.stats.retries, 1u);
  EXPECT_EQ(rec.stats.restores, 1u);
  EXPECT_EQ(rec.direction.iterations, clean.direction.iterations);
  EXPECT_EQ(rec.direction.p1.max_abs_diff(clean.direction.p1), 0.0);
  EXPECT_EQ(rec.direction.dipole_response.z, clean.direction.dipole_response.z);
}

// A NaN in one rank's share of the rho_multipole synthesis reaches every
// rank through the sum. The finiteness guard before the spline fit raises
// on all ranks together, and the driver's one retry replays the fault-free
// trajectory bit for bit.
TEST(DfptResilience, NanInRhoMultipoleSynthesisIsRecovered) {
  const auto& ground = ground_h2();
  core::ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 2;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Flat;
  const core::ParallelDfptResult clean =
      core::solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(clean.direction.converged);

  // Collective 1 of rank 0 is iteration 1's rho_multipole reduce.
  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::NanPayload, /*rank=*/0, /*collective=*/1,
            /*element=*/0});
  parallel::FaultInjector injector(std::move(plan));
  popt.fault_injector = &injector;
  CheckpointStore store(fresh_dir("recover_rho_multipole"));
  RecoveryDriver driver(store, RecoveryOptions{});
  std::vector<std::string> faults;
  const LogLevel prev = Log::level();
  Log::set_level(LogLevel::Info);
  Log::set_sink([&faults](LogLevel, const std::string& line) {
    if (line.find("fault on attempt") != std::string::npos) faults.push_back(line);
  });
  const core::ParallelDfptResult rec =
      driver.solve_direction_parallel(ground, popt, 2);
  Log::set_sink({});
  Log::set_level(prev);

  EXPECT_EQ(injector.stats().corruptions, 1u);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_NE(faults[0].find("poisson/rho_multipole"), std::string::npos)
      << faults[0];
  EXPECT_EQ(rec.stats.retries, 1u);
  EXPECT_EQ(rec.stats.invariant_violations, 1u);
  ASSERT_TRUE(rec.direction.converged);
  EXPECT_EQ(rec.direction.iterations, clean.direction.iterations);
  EXPECT_EQ(rec.direction.p1.max_abs_diff(clean.direction.p1), 0.0);
  for (int axis = 0; axis < 3; ++axis)
    EXPECT_EQ(rec.direction.dipole_response[axis],
              clean.direction.dipole_response[axis]);
}

// A killed rank inside the distributed solver propagates as a structured
// RankFailure to the caller (no deadlock, no std::terminate).
TEST(DfptResilience, KilledRankInParallelSolverRaisesRankFailure) {
  const auto& ground = ground_h2();
  parallel::FaultPlan plan;
  parallel::FaultEvent ev;
  ev.kind = parallel::FaultKind::Kill;
  ev.rank = 1;
  ev.collective = 9;  // inside iteration 2's hierarchical H-phase reduce
  plan.add(ev);
  parallel::FaultInjector injector(std::move(plan));

  core::ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.batch_points = 96;
  popt.fault_injector = &injector;
  try {
    (void)core::solve_direction_parallel(ground, popt, 2);
    FAIL() << "killed rank did not surface";
  } catch (const parallel::RankFailure& e) {
    EXPECT_EQ(e.failed_rank(), 1u);
    EXPECT_NE(std::string(e.what()).find("killed"), std::string::npos);
  }
}

// The driver installs its own CPSCF observer (and, on elastic runs, its own
// rank hook) on every attempt. A caller's hook would be replaced without
// ever running, so the driver rejects it before the first attempt; a plain
// run keeps the caller's rank hook.
TEST(DfptResilience, DriverRejectsCallerHooksItWouldReplace) {
  const auto& ground = ground_h2();
  CheckpointStore store(fresh_dir("recover_hooks"));
  int observed = 0;
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  dopt.observer = [&](const core::CpscfIterationState&) {
    ++observed;
    return core::CpscfAction::Continue;
  };
  RecoveryDriver driver(store, RecoveryOptions{});
  EXPECT_THROW((void)driver.solve_direction(ground, dopt, 2), Error);

  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;
  EXPECT_THROW((void)driver.solve_direction_parallel(ground, popt, 2), Error);
  EXPECT_EQ(observed, 0);

  popt.dfpt.observer = nullptr;
  std::atomic<int> hooked{0};
  popt.rank_hook = [&](parallel::Communicator&,
                       const core::CpscfIterationState&) { ++hooked; };
  const auto rec = driver.solve_direction_parallel(ground, popt, 2);
  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GT(hooked.load(), 0);

  RecoveryOptions elastic;
  elastic.elastic = true;
  RecoveryDriver elastic_driver(store, elastic);
  hooked = 0;
  EXPECT_THROW((void)elastic_driver.solve_direction_parallel(ground, popt, 2),
               Error);
  EXPECT_EQ(hooked.load(), 0);
}

// An exhausted retry budget is a detailed error, not a hang or a wrong
// answer.
TEST(DfptResilience, ExhaustedRetryBudgetThrows) {
  const auto& ground = ground_h2();
  parallel::FaultPlan plan;
  // Collective #2 of rank 0 is iteration 2's packed H-phase reduce (a data
  // payload -- the corruption poisons an input of the next Sternheimer
  // matmul, where the ABFT check flags it as uncorrectable, not the control
  // path).
  plan.add({parallel::FaultKind::NanPayload, /*rank=*/0, /*collective=*/2,
            /*element=*/0});
  parallel::FaultInjector injector(std::move(plan));

  core::ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 2;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 96;
  popt.fault_injector = &injector;

  CheckpointStore store(fresh_dir("recover_budget"));
  RecoveryOptions ropt;
  ropt.max_retries = 0;  // no second chances
  RecoveryDriver driver(store, ropt);
  try {
    (void)driver.solve_direction_parallel(ground, popt, 2);
    FAIL() << "exhausted budget did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted"), std::string::npos) << what;
    // The last-failure cause rides along: detection moved from the health
    // check ("unhealthy") to the same-iteration ABFT check when the SDC
    // defense landed; accept either wording.
    EXPECT_TRUE(what.find("unhealthy") != std::string::npos ||
                what.find("ABFT") != std::string::npos)
        << what;
  }
}

}  // namespace
