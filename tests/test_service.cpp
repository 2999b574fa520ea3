// Solve-service tests: the headline robustness contract of src/service --
// no input, fault, or load pattern crashes the server or wedges the queue,
// and every admitted job terminates with a result or a structured error.
// Covers admission control (queue-full shedding, malformed-input
// rejection), deadlines (expiry while queued and mid-CPSCF via the
// RecoveryOptions::cancel hook), the graceful-degradation ladder, hard job
// isolation (a permanently killed rank in one job leaves a concurrent
// sibling bit-identical to its solo run), per-job ABFT/checkpoint scoping,
// the corruption-safe warm cache, and a seeded chaos soak.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "grid/structure.hpp"
#include "linalg/abft.hpp"
#include "obs/metrics.hpp"
#include "parallel/fault.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/recovery.hpp"
#include "scf/scf_solver.hpp"
#include "service/job.hpp"
#include "service/server.hpp"
#include "service/warm_cache.hpp"

namespace {

using namespace aeqp;
using namespace std::chrono_literals;

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

grid::Structure h2(double stretch = 0.0) {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7 - stretch});
  s.add_atom(1, {0, 0, 0.7 + stretch});
  return s;
}

service::JobSpec light_job(double stretch = 0.0) {
  service::JobSpec spec;
  spec.structure = h2(stretch);
  spec.scf.tier = basis::BasisTier::Light;
  spec.scf.grid.radial_points = 36;
  spec.scf.grid.angular_degree = 9;
  spec.scf.poisson.radial_points = 72;
  spec.scf.mixer = scf::Mixer::Diis;
  spec.dfpt.tolerance = 1e-6;
  spec.deadline = std::chrono::milliseconds(120000);
  return spec;
}

service::ServerOptions small_server(const std::string& dir_name,
                                    std::size_t workers = 1,
                                    std::size_t capacity = 4) {
  service::ServerOptions opt;
  opt.workers = workers;
  opt.queue_capacity = capacity;
  opt.max_atoms = 8;
  opt.checkpoint_dir = fresh_dir(dir_name);
  opt.recovery.max_retries = 2;
  return opt;
}

/// Spin until the server reports `n` running jobs (a submitted job has been
/// popped off the queue), so queue-occupancy tests are deterministic.
void wait_in_flight(const service::SolveServer& server, std::size_t n) {
  for (int i = 0; i < 2000 && server.stats().in_flight < n; ++i)
    std::this_thread::sleep_for(1ms);
  ASSERT_GE(server.stats().in_flight, n);
}

// ---------------------------------------------------------------------------
// Warm cache

TEST(WarmCache, GroundTierLruEvictsLeastRecentlyUsed) {
  service::WarmCacheOptions opt;
  opt.ground_capacity = 2;
  service::WarmCache cache(opt);

  const auto entry = [](int iters) {
    auto r = std::make_shared<scf::ScfResult>();
    r->iterations = iters;
    return std::shared_ptr<const scf::ScfResult>(r);
  };
  cache.put_ground(1, entry(1));
  cache.put_ground(2, entry(2));
  ASSERT_NE(cache.find_ground(1), nullptr);  // touch: 1 is now MRU
  cache.put_ground(3, entry(3));             // evicts 2, not 1

  EXPECT_EQ(cache.find_ground(2), nullptr);
  ASSERT_NE(cache.find_ground(1), nullptr);
  ASSERT_NE(cache.find_ground(3), nullptr);
  EXPECT_EQ(cache.ground_size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(WarmCache, PoisonedDensityDetectedDroppedNeverServed) {
  service::WarmCache cache({});
  const linalg::Matrix dm = test_matrix(4, 4, 0.3);
  cache.put_density(7, dm);

  ASSERT_TRUE(cache.corrupt_density_for_test(7));
  // The CRC catches the flipped bit: the entry is dropped and reported as a
  // miss, never handed out as a warm start.
  EXPECT_FALSE(cache.find_density(7).has_value());
  EXPECT_EQ(cache.stats().poisoned_dropped, 1u);
  EXPECT_EQ(cache.density_size(), 0u);

  // A fresh entry under the same key serves normally again.
  cache.put_density(7, dm);
  const auto ws = cache.find_density(7);
  ASSERT_TRUE(ws.has_value());
  ASSERT_EQ(ws->density_matrix.rows(), dm.rows());
  EXPECT_EQ(std::memcmp(ws->density_matrix.data(), dm.data(),
                        sizeof(double) * dm.rows() * dm.cols()),
            0);
}

TEST(WarmCache, StructureHashQuantizesGeometry) {
  const auto base = service::structure_hash(h2(0.0));
  grid::Structure nudged;
  nudged.add_atom(1, {0, 0, -0.7 + 1e-9});
  nudged.add_atom(1, {0, 0, 0.7});
  EXPECT_EQ(service::structure_hash(nudged), base);       // below the quantum
  EXPECT_NE(service::structure_hash(h2(0.01)), base);     // real displacement

  scf::ScfOptions a, b;
  b.mixing = a.mixing * 0.9;
  EXPECT_NE(service::scf_options_hash(a), service::scf_options_hash(b));
}

// ---------------------------------------------------------------------------
// Checkpoint hygiene (per-job namespaces, GC, surfaced remove)

TEST(CheckpointHygiene, ScopedNamespacesIsolateIdenticalKeys) {
  resilience::CheckpointStore root(fresh_dir("svc_ckpt_ns"));
  const auto job1 = root.scoped("job-1");
  const auto job2 = root.scoped("job-2");

  resilience::CpscfCheckpoint ckpt;
  ckpt.direction = 2;
  ckpt.iteration = 5;
  ckpt.p1 = test_matrix(3, 3, 1.0);
  job1.save("cpscf-dir2", ckpt);

  EXPECT_TRUE(job1.exists("cpscf-dir2"));
  EXPECT_FALSE(job2.exists("cpscf-dir2"));  // same key, disjoint namespace
  EXPECT_FALSE(root.exists("cpscf-dir2"));
  EXPECT_EQ(job1.load_cpscf("cpscf-dir2").iteration, 5);

  EXPECT_THROW((void)root.scoped(""), Error);
  EXPECT_THROW((void)root.scoped("a/b"), Error);
  EXPECT_THROW((void)root.scoped(".."), Error);
}

TEST(CheckpointHygiene, RemoveReportsAndClearGarbageCollects) {
  resilience::CheckpointStore store(fresh_dir("svc_ckpt_gc"));
  EXPECT_FALSE(store.remove("missing"));  // nothing there: false, no throw

  resilience::CpscfCheckpoint ckpt;
  ckpt.p1 = test_matrix(2, 2, 1.0);
  store.save("a", ckpt);
  store.save("b", ckpt);
  EXPECT_TRUE(store.remove("a"));
  EXPECT_FALSE(store.exists("a"));

  const auto job = store.scoped("job-9");
  job.save("a", ckpt);
  EXPECT_EQ(store.clear(), 1u);  // removes "b" only: non-recursive
  EXPECT_FALSE(store.exists("b"));
  EXPECT_TRUE(job.exists("a"));  // the namespace GCs itself, not its parent
  EXPECT_EQ(job.clear(), 1u);
}

// ---------------------------------------------------------------------------
// Scoped ABFT stats (per-job attribution)

TEST(AbftScope, AttributesToScopeAndNests) {
  const auto global_before = linalg::abft_stats();
  const linalg::Matrix a = test_matrix(8, 8, 1.0);
  const linalg::Matrix b = test_matrix(8, 8, 0.5);

  linalg::AbftStatsScope outer;
  (void)linalg::abft_matmul(a, b, "test/outer");
  {
    linalg::AbftStatsScope inner;
    (void)linalg::abft_matmul(a, b, "test/inner");
    EXPECT_EQ(inner.stats().checks, 1u);
  }
  // The inner scope credits its enclosing scope too, and the process-wide
  // counters keep accumulating unchanged.
  EXPECT_EQ(outer.stats().checks, 2u);
  EXPECT_EQ(linalg::abft_stats().checks - global_before.checks, 2u);
}

TEST(AbftScope, ConcurrentScopesDoNotBleed) {
  const linalg::Matrix a = test_matrix(8, 8, 1.0);
  const linalg::Matrix b = test_matrix(8, 8, 0.5);
  std::size_t counts[2] = {0, 0};
  std::thread t0([&] {
    linalg::AbftStatsScope scope;
    for (int i = 0; i < 3; ++i) (void)linalg::abft_matmul(a, b, "test/t0");
    counts[0] = scope.stats().checks;
  });
  std::thread t1([&] {
    linalg::AbftStatsScope scope;
    for (int i = 0; i < 5; ++i) (void)linalg::abft_matmul(a, b, "test/t1");
    counts[1] = scope.stats().checks;
  });
  t0.join();
  t1.join();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 5u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, RejectsMalformedJobsWithStructuredErrors) {
  service::SolveServer server(small_server("svc_admission"));

  service::JobSpec empty = light_job();
  empty.structure = grid::Structure();
  EXPECT_THROW((void)server.submit(empty), JobRejected);

  service::JobSpec nan_coord = light_job();
  nan_coord.structure = grid::Structure();
  nan_coord.structure.add_atom(1, {0, 0, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_THROW((void)server.submit(nan_coord), JobRejected);

  service::JobSpec oversized = light_job();
  oversized.structure = grid::Structure();
  for (int k = 0; k < 9; ++k) oversized.structure.add_atom(1, {0, 0, 1.5 * k});
  try {
    (void)server.submit(oversized);
    FAIL() << "oversized job must be rejected";
  } catch (const JobRejected& e) {
    EXPECT_NE(e.reason().find("above the server limit"), std::string::npos);
  }

  service::JobSpec bad_dir = light_job();
  bad_dir.direction = 3;
  EXPECT_THROW((void)server.submit(bad_dir), JobRejected);

  service::JobSpec bad_deadline = light_job();
  bad_deadline.deadline = std::chrono::milliseconds(0);
  EXPECT_THROW((void)server.submit(bad_deadline), JobRejected);

  EXPECT_EQ(server.stats().rejected_invalid, 5u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

// The recovery driver owns the CPSCF observer; a job carrying its own would
// see it replaced without ever running, so admission rejects it as
// malformed.
TEST(Admission, RejectsJobCarryingItsOwnCpscfObserver) {
  service::SolveServer server(small_server("svc_admission_observer"));
  service::JobSpec spec = light_job();
  spec.dfpt.observer = [](const core::CpscfIterationState&) {
    return core::CpscfAction::Continue;
  };
  try {
    (void)server.submit(spec);
    FAIL() << "a job with its own CPSCF observer must be rejected";
  } catch (const JobRejected& e) {
    EXPECT_EQ(e.kind(), "JobRejected");
    EXPECT_NE(e.reason().find("observer"), std::string::npos) << e.reason();
  }
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

TEST(Admission, QueueFullShedsWithStructuredBackpressure) {
  service::SolveServer server(
      small_server("svc_queuefull", /*workers=*/1, /*capacity=*/1));

  const auto blocker = server.submit(light_job(0.0));
  wait_in_flight(server, 1);  // the worker holds it; the queue is empty
  const auto queued = server.submit(light_job(0.01));

  try {
    (void)server.submit(light_job(0.02));
    FAIL() << "third submission must shed";
  } catch (const QueueFull& e) {
    EXPECT_EQ(e.depth(), 1u);
    EXPECT_EQ(e.capacity(), 1u);
  }
  EXPECT_EQ(server.stats().rejected_queue_full, 1u);

  // Shedding never harms admitted work: both jobs still terminate cleanly.
  EXPECT_EQ(server.wait(blocker).state, service::JobState::Succeeded);
  EXPECT_EQ(server.wait(queued).state, service::JobState::Succeeded);
}

// ---------------------------------------------------------------------------
// Deadlines

TEST(Deadline, ExpiresWhileQueuedWithoutRunning) {
  service::SolveServer server(small_server("svc_dl_queued", 1, 4));
  const auto blocker = server.submit(light_job(0.0));
  wait_in_flight(server, 1);

  service::JobSpec tight = light_job(0.01);
  tight.deadline = std::chrono::milliseconds(1);
  const auto id = server.submit(tight);

  const auto out = server.wait(id);
  EXPECT_EQ(out.state, service::JobState::DeadlineExpired);
  EXPECT_EQ(out.error_kind, "DeadlineExceeded");
  EXPECT_NE(out.error.find("queued"), std::string::npos);
  EXPECT_EQ(out.scf_iterations, 0);  // it never ran
  EXPECT_EQ(server.wait(blocker).state, service::JobState::Succeeded);
}

TEST(Deadline, ExpiresMidCpscfViaCancelHook) {
  service::SolveServer server(small_server("svc_dl_cpscf", 1, 4));

  // Prime the ground tier so the tight job skips SCF and the deadline can
  // only strike inside the CPSCF loop, where RecoveryOptions::cancel is
  // polled every iteration.
  service::JobSpec prime = light_job(0.0);
  EXPECT_EQ(server.wait(server.submit(prime)).state,
            service::JobState::Succeeded);

  service::JobSpec tight = prime;
  tight.dfpt.tolerance = 0.0;       // unreachable: CPSCF would run forever
  tight.dfpt.max_iterations = 10000;
  tight.deadline = std::chrono::milliseconds(150);
  const auto out = server.wait(server.submit(tight));

  EXPECT_EQ(out.state, service::JobState::DeadlineExpired);
  EXPECT_EQ(out.error_kind, "DeadlineExceeded");
  EXPECT_TRUE(out.ground_cache_hit);
  EXPECT_EQ(out.scf_iterations, 0);
}

// ---------------------------------------------------------------------------
// Degradation ladder

TEST(Degradation, PermanentKillWalksLadderToServedResult) {
  // A permanent rank kill that re-fires on every retry: the Full rung
  // exhausts its retries, ReducedRanks cannot host the injector's world,
  // and the serial ReducedAccuracy rung serves the job inside its deadline.
  parallel::FaultPlan plan;
  parallel::FaultEvent kill;
  kill.kind = parallel::FaultKind::Kill;
  kill.rank = 3;
  kill.collective = 14;
  kill.transient = false;
  plan.add(kill);
  parallel::FaultInjector injector(std::move(plan));

  service::SolveServer server(small_server("svc_ladder", 1, 4));
  service::JobSpec chaotic = light_job(0.0);
  chaotic.ranks = 4;
  chaotic.ranks_per_node = 4;
  chaotic.fault_injector = &injector;
  const auto out = server.wait(server.submit(chaotic));

  EXPECT_EQ(out.state, service::JobState::Succeeded);
  EXPECT_EQ(out.tier, service::ServiceTier::ReducedAccuracy);
  EXPECT_EQ(out.degradations, 2);
  EXPECT_TRUE(out.result.converged);
  EXPECT_GT(out.recovery.retries, 0u);  // the Full rung did fight first
  EXPECT_EQ(server.stats().degradations, 2u);
}

TEST(Degradation, PinnedJobFailsInsteadOfDegrading) {
  parallel::FaultPlan plan;
  parallel::FaultEvent kill;
  kill.kind = parallel::FaultKind::Kill;
  kill.rank = 2;
  kill.collective = 14;
  kill.transient = false;
  plan.add(kill);
  parallel::FaultInjector injector(std::move(plan));

  service::SolveServer server(small_server("svc_pinned", 1, 4));
  service::JobSpec chaotic = light_job(0.0);
  chaotic.ranks = 4;
  chaotic.ranks_per_node = 4;
  chaotic.fault_injector = &injector;
  chaotic.allow_degradation = false;  // fidelity over termination-at-any-tier
  const auto out = server.wait(server.submit(chaotic));

  EXPECT_EQ(out.state, service::JobState::Failed);
  EXPECT_EQ(out.error_kind, "RankFailure");
  EXPECT_EQ(out.degradations, 0);
}

// ---------------------------------------------------------------------------
// Job isolation

TEST(Isolation, KilledRankJobLeavesSiblingBitIdentical) {
  // Reference: the clean job alone on a fresh server.
  service::JobOutcome solo;
  {
    service::SolveServer server(small_server("svc_iso_solo", 1, 4));
    solo = server.wait(server.submit(light_job(0.0)));
    ASSERT_EQ(solo.state, service::JobState::Succeeded);
  }

  // The same job concurrent with a chaotic sibling whose rank 3 dies
  // permanently. Different geometry, so no warm state crosses between them.
  parallel::FaultPlan plan;
  parallel::FaultEvent kill;
  kill.kind = parallel::FaultKind::Kill;
  kill.rank = 3;
  kill.collective = 14;
  kill.transient = false;
  plan.add(kill);
  parallel::FaultInjector injector(std::move(plan));

  service::SolveServer server(small_server("svc_iso_pair", /*workers=*/2, 4));
  service::JobSpec chaotic = light_job(0.05);
  chaotic.ranks = 4;
  chaotic.ranks_per_node = 4;
  chaotic.fault_injector = &injector;
  const auto chaotic_id = server.submit(chaotic);
  const auto clean_id = server.submit(light_job(0.0));

  const auto clean = server.wait(clean_id);
  const auto dirty = server.wait(chaotic_id);

  // The chaotic job terminated one way or another -- and ONLY it paid.
  EXPECT_NE(dirty.state, service::JobState::Queued);
  EXPECT_NE(dirty.state, service::JobState::Running);
  ASSERT_EQ(clean.state, service::JobState::Succeeded);
  EXPECT_EQ(clean.tier, service::ServiceTier::Full);
  EXPECT_EQ(clean.degradations, 0);

  // Bit-identical to the solo run: same iteration counts, same response.
  EXPECT_EQ(clean.scf_iterations, solo.scf_iterations);
  EXPECT_EQ(clean.result.iterations, solo.result.iterations);
  EXPECT_EQ(std::memcmp(&clean.result.dipole_response,
                        &solo.result.dipole_response,
                        sizeof(solo.result.dipole_response)),
            0);

  // Per-job accounting stayed per-job: the clean job saw none of the
  // sibling's recovery work.
  EXPECT_EQ(clean.recovery.faults_detected, 0u);
  EXPECT_EQ(clean.recovery.retries, 0u);
}

// ---------------------------------------------------------------------------
// Shutdown

TEST(Shutdown, ShedsQueuedJobsWithStructuredErrors) {
  service::SolveServer server(small_server("svc_shutdown", 1, 4));
  const auto running = server.submit(light_job(0.0));
  wait_in_flight(server, 1);
  const auto q1 = server.submit(light_job(0.01));
  const auto q2 = server.submit(light_job(0.02));

  server.shutdown();

  // The running job finished; the queued ones were shed with a structured
  // terminal outcome -- nobody is left blocked on a job that will never run.
  EXPECT_EQ(server.wait(running).state, service::JobState::Succeeded);
  for (const auto id : {q1, q2}) {
    const auto out = server.wait(id);
    EXPECT_EQ(out.state, service::JobState::Rejected);
    EXPECT_EQ(out.error_kind, "JobRejected");
  }
  EXPECT_EQ(server.stats().shed_on_shutdown, 2u);
  EXPECT_THROW((void)server.submit(light_job()), JobRejected);
}

// ---------------------------------------------------------------------------
// Config validation

TEST(Config, JitterAndServerOptionsValidated) {
  service::ServerOptions opt;
  opt.workers = 0;
  opt.checkpoint_dir = fresh_dir("svc_cfg_srv");
  EXPECT_THROW(service::SolveServer{opt}, Error);
}

TEST(Metrics, ServiceSourcesAppearInSnapshot) {
  service::SolveServer server(small_server("svc_metrics"));
  const auto src = service::register_metrics(server);
  const auto cache_src = service::register_metrics(server.cache());
  bool saw_queue = false, saw_cache = false;
  for (const auto& s : obs::metrics_snapshot()) {
    saw_queue |= s.name == "service/queue_depth";
    saw_cache |= s.name == "service/cache/poisoned_dropped";
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_cache);
}

// ---------------------------------------------------------------------------
// Chaos soak (also wired as the dedicated `service_chaos_soak` ctest target)

TEST(ServiceChaosSoak, EveryAdmittedJobTerminalZeroCrashes) {
  service::ServerOptions sopt = small_server("svc_soak", /*workers=*/2,
                                             /*capacity=*/6);
  service::SolveServer server(sopt);

  parallel::FaultPlan plan_a = parallel::FaultPlan::random(
      /*seed=*/7, /*n_events=*/3, /*n_ranks=*/4, /*first_collective=*/5,
      /*last_collective=*/80);
  parallel::FaultPlan plan_b = parallel::FaultPlan::random(
      /*seed=*/11, /*n_events=*/2, /*n_ranks=*/4, /*first_collective=*/5,
      /*last_collective=*/80, {parallel::FaultKind::BitFlip,
                               parallel::FaultKind::NanPayload},
      /*permanent_kills=*/1);
  parallel::FaultInjector injector_a(std::move(plan_a));
  parallel::FaultInjector injector_b(std::move(plan_b));

  std::vector<std::uint64_t> ids;
  std::size_t shed = 0, rejected = 0;
  // Retry on backpressure under a generous wall-clock budget: the bar is
  // "the queue is never wedged", not "jobs drain fast" — under TSan or heavy
  // load a full queue is legitimate for tens of seconds.
  const auto submit = [&](const service::JobSpec& spec) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(180);
    while (std::chrono::steady_clock::now() < give_up) {
      try {
        ids.push_back(server.submit(spec));
        return;
      } catch (const QueueFull&) {
        ++shed;
        std::this_thread::sleep_for(20ms);
      } catch (const JobRejected&) {
        ++rejected;
        return;
      }
    }
    FAIL() << "backpressure never cleared: the queue is wedged";
  };

  // The mix: good serial jobs (with cache reuse), chaotic parallel jobs,
  // hopeless deadlines, and malformed inputs, all interleaved.
  for (int k = 0; k < 4; ++k) submit(light_job(0.01 * (k % 2)));

  service::JobSpec chaos_a = light_job(0.03);
  chaos_a.ranks = 4;
  chaos_a.ranks_per_node = 4;
  chaos_a.fault_injector = &injector_a;
  submit(chaos_a);

  service::JobSpec tight = light_job(0.04);
  tight.deadline = std::chrono::milliseconds(2);
  submit(tight);

  service::JobSpec invalid = light_job();
  invalid.direction = -1;
  submit(invalid);

  service::JobSpec chaos_b = light_job(0.05);
  chaos_b.ranks = 4;
  chaos_b.ranks_per_node = 4;
  chaos_b.fault_injector = &injector_b;
  submit(chaos_b);

  for (int k = 0; k < 2; ++k) submit(light_job(0.01 * (k % 2)));

  // The contract: every admitted job reaches a terminal state -- wait()
  // returns for all of them, no crash, no wedge, no silent drop.
  std::size_t succeeded = 0;
  for (const auto id : ids) {
    const auto out = server.wait(id);
    EXPECT_TRUE(out.state == service::JobState::Succeeded ||
                out.state == service::JobState::Failed ||
                out.state == service::JobState::DeadlineExpired)
        << "job " << id << " ended " << service::job_state_name(out.state);
    succeeded += out.state == service::JobState::Succeeded ? 1 : 0;
  }
  EXPECT_EQ(rejected, 1u);  // exactly the malformed job bounced
  EXPECT_GE(succeeded, 6u);  // the healthy jobs all made it

  const auto s = server.stats();
  EXPECT_EQ(s.admitted, ids.size());
  EXPECT_EQ(s.completed, ids.size());
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.rejected_queue_full, shed);

  // Job-terminal GC left no checkpoint namespaces behind.
  std::size_t leftovers = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(sopt.checkpoint_dir)) {
    leftovers += entry.is_directory() ? 1 : 0;
  }
  EXPECT_EQ(leftovers, 0u);
}

}  // namespace
