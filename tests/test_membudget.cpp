// Memory-budget governor tests (membudget.hpp): the idle-probe contract
// (governor off = bit-identical runs), budget parsing, hard-ceiling
// enforcement against live memaudit gauges, deterministic allocation-fault
// injection addressed by (site, invocation, rank), the pressure-relief
// reclaimer registry, buddy-replica spill to the disk-backed store, the
// warm cache's clear()/owned-bytes audit, admission-time memory estimation
// in the solve service, and the acceptance bar: a budgeted CPSCF run hit by
// injected allocation failures walks the relief ladder and recovers a
// result within 1e-8 of the unbudgeted reference.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "grid/structure.hpp"
#include "obs/flight.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "resilience/buddy.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/membudget.hpp"
#include "resilience/recovery.hpp"
#include "scf/scf_solver.hpp"
#include "service/job.hpp"
#include "service/server.hpp"
#include "service/warm_cache.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::resilience;

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The governor and the observability layers are process-global; every test
/// starts and ends fully disarmed so state cannot leak across tests.
class MembudgetTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::set_mode(obs::TraceMode::Off);
    obs::set_flight(false);
    obs::reset();
    obs::reset_counters();
    install_oom_hook(nullptr);
    set_mem_budget(0);
    set_mem_soft_percent(80);
    obs::set_memaudit(false);
    obs::reset_mem_gauges();
  }
  void TearDown() override { SetUp(); }
};

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

// ---------------------------------------------------------------------------
// Budget parsing and arming semantics

TEST_F(MembudgetTest, ParseMemBytesAcceptsSuffixesRejectsGarbage) {
  using membudget_detail::parse_mem_bytes;
  EXPECT_EQ(parse_mem_bytes("1024"), 1024);
  EXPECT_EQ(parse_mem_bytes("64K"), std::int64_t{64} << 10);
  EXPECT_EQ(parse_mem_bytes("512M"), std::int64_t{512} << 20);
  EXPECT_EQ(parse_mem_bytes("512m"), std::int64_t{512} << 20);
  EXPECT_EQ(parse_mem_bytes("512MB"), std::int64_t{512} << 20);
  EXPECT_EQ(parse_mem_bytes("512MiB"), std::int64_t{512} << 20);
  EXPECT_EQ(parse_mem_bytes("8G"), std::int64_t{8} << 30);
  EXPECT_EQ(parse_mem_bytes("1T"), std::int64_t{1} << 40);
  EXPECT_EQ(parse_mem_bytes("1.5G"), (std::int64_t{3} << 30) / 2);
  // Malformed input disarms (-1) instead of silently enforcing 0.
  EXPECT_EQ(parse_mem_bytes(nullptr), -1);
  EXPECT_EQ(parse_mem_bytes(""), -1);
  EXPECT_EQ(parse_mem_bytes("abc"), -1);
  EXPECT_EQ(parse_mem_bytes("12X"), -1);
  EXPECT_EQ(parse_mem_bytes("-5"), -1);
  EXPECT_EQ(parse_mem_bytes("512Mfoo"), -1);
}

TEST_F(MembudgetTest, IdleGovernorProbeIsInert) {
  EXPECT_FALSE(mem_budget_enabled());
  EXPECT_EQ(mem_budget_bytes(), 0);
  EXPECT_NO_THROW(oom_probe("test/idle", std::size_t{1} << 40));
  const MemPressure p = mem_pressure();
  EXPECT_EQ(p.budget_bytes, 0);
  EXPECT_FALSE(p.over_soft);
}

TEST_F(MembudgetTest, SetBudgetArmsGovernorAndMemaudit) {
  set_mem_budget(std::int64_t{1} << 20);
  EXPECT_TRUE(mem_budget_enabled());
  EXPECT_EQ(mem_budget_bytes(), std::int64_t{1} << 20);
  // The gauges are the governor's only data source, so arming the budget
  // must arm the audit too.
  EXPECT_TRUE(obs::memaudit_enabled());
  set_mem_budget(0);
  EXPECT_FALSE(mem_budget_enabled());
}

// ---------------------------------------------------------------------------
// Hard-ceiling enforcement against live gauges

TEST_F(MembudgetTest, HardBreachThrowsStructuredOutOfMemoryBudget) {
  set_mem_budget(std::int64_t{1} << 20);  // 1 MiB
  obs::mem_track("test/ballast", 900 * 1024);
  const std::uint64_t throws_before =
      obs::counter("membudget/oom_throws").value();

  // A request that fits is admitted without any observable effect.
  EXPECT_NO_THROW(oom_probe("test/fits", 50 * 1024));
  // A request that would cross the ceiling throws the structured error.
  try {
    oom_probe("test/site", 200 * 1024);
    FAIL() << "over-budget probe did not throw";
  } catch (const OutOfMemoryBudget& e) {
    EXPECT_EQ(e.site(), "test/site");
    EXPECT_EQ(e.requested_bytes(), 200u * 1024u);
    EXPECT_EQ(e.budget_bytes(), std::size_t{1} << 20);
    EXPECT_GE(e.in_use_bytes(), 900u * 1024u);
    EXPECT_NE(std::string(e.what()).find("out of memory budget"),
              std::string::npos);
  }
  EXPECT_EQ(obs::counter("membudget/oom_throws").value(), throws_before + 1);

  // request_bytes == 0 re-checks committed usage: still under, passes.
  EXPECT_NO_THROW(oom_probe("test/recheck", 0));
  obs::mem_track("test/ballast", 200 * 1024);  // now 1100 KiB > 1 MiB
  EXPECT_THROW(oom_probe("test/recheck", 0), OutOfMemoryBudget);
  obs::mem_track("test/ballast", -1100 * 1024);
}

TEST_F(MembudgetTest, SoftWatermarkTracksGaugesWithoutThrowing) {
  set_mem_budget(std::int64_t{1} << 20);
  obs::mem_track("test/ballast", 900 * 1024);  // 88% of the budget
  MemPressure p = mem_pressure();
  EXPECT_TRUE(p.over_soft);  // default soft watermark is 80%
  EXPECT_EQ(p.soft_bytes, (std::int64_t{1} << 20) * 80 / 100);
  set_mem_soft_percent(95);
  EXPECT_FALSE(mem_pressure().over_soft);
  // Crossing soft never throws -- only the hard ceiling does.
  EXPECT_NO_THROW(oom_probe("test/soft", 0));
  obs::mem_track("test/ballast", -900 * 1024);
}

// ---------------------------------------------------------------------------
// Deterministic allocation-fault injection

TEST_F(MembudgetTest, TransientInjectionFiresExactlyOnceAtItsInvocation) {
  OomPlan plan;
  plan.add({"test/a", /*invocation=*/1, /*rank=*/-1, /*transient=*/true});
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);

  EXPECT_NO_THROW(oom_probe("test/a", 64));   // invocation 0: too early
  EXPECT_NO_THROW(oom_probe("test/b", 64));   // other site: no advance of a
  EXPECT_THROW(oom_probe("test/a", 64), OutOfMemoryBudget);  // invocation 1
  EXPECT_NO_THROW(oom_probe("test/a", 64));   // exhausted
  EXPECT_EQ(injector.stats().failures_injected, 1u);
  EXPECT_EQ(injector.stats().probes, 4u);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(injector.invocations("test/a"), 3u);
  EXPECT_EQ(injector.invocations("test/b"), 1u);
}

TEST_F(MembudgetTest, PermanentInjectionKeepsFailingLikeAFullHeap) {
  OomPlan plan;
  plan.add({"test/perm", /*invocation=*/1, /*rank=*/-1, /*transient=*/false});
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);

  EXPECT_NO_THROW(oom_probe("test/perm", 1));  // before its invocation
  EXPECT_THROW(oom_probe("test/perm", 1), OutOfMemoryBudget);
  EXPECT_THROW(oom_probe("test/perm", 1), OutOfMemoryBudget);
  EXPECT_EQ(injector.stats().failures_injected, 2u);
}

TEST_F(MembudgetTest, RankFilterOnlyStrikesTheAddressedRank) {
  OomPlan plan;
  plan.add({"test/rank", /*invocation=*/0, /*rank=*/3, /*transient=*/true});
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);

  EXPECT_NO_THROW(oom_probe("test/rank", 1));  // main thread: rank -1
  {
    ScopedThreadRank as_rank(3);
    // invocation already advanced past 0 -- re-plan with a fresh injector
  }
  OomPlan plan2;
  plan2.add({"test/rank2", /*invocation=*/0, /*rank=*/3, /*transient=*/true});
  OomInjector injector2(std::move(plan2));
  install_oom_hook(&injector2);
  {
    ScopedThreadRank as_rank(3);
    EXPECT_THROW(oom_probe("test/rank2", 1), OutOfMemoryBudget);
  }
  install_oom_hook(nullptr);
  EXPECT_EQ(injector2.stats().failures_injected, 1u);
}

TEST_F(MembudgetTest, EveryEventDueAtOneProbeFires) {
  OomPlan plan;
  plan.add({"test/both", /*invocation=*/0, /*rank=*/-1, /*transient=*/true});
  plan.add({"test/both", /*invocation=*/0, /*rank=*/3, /*transient=*/true});
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);
  {
    ScopedThreadRank as_rank(3);
    EXPECT_THROW(oom_probe("test/both", 1), OutOfMemoryBudget);
  }
  EXPECT_EQ(injector.pending(), 0u);  // neither event is left waiting
  EXPECT_EQ(injector.stats().failures_injected, 1u);  // one probe failed
  EXPECT_NO_THROW(oom_probe("test/both", 1));
}

TEST_F(MembudgetTest, PlanRejectsEmptySiteAndMetricsSourceReports) {
  OomPlan plan;
  EXPECT_THROW(plan.add({"", 0, -1, true}), Error);
  plan.add({"test/m", 0, -1, true});
  OomInjector injector(std::move(plan));
  const auto reg = resilience::register_metrics(injector);
  ScopedOomInjector scoped(injector);
  EXPECT_THROW(oom_probe("test/m", 1), OutOfMemoryBudget);
  bool saw_probes = false, saw_failures = false;
  for (const auto& s : obs::metrics_snapshot()) {
    if (s.name == "membudget/inject/probes") saw_probes = s.value >= 1.0;
    if (s.name == "membudget/inject/failures_injected")
      saw_failures = s.value >= 1.0;
  }
  EXPECT_TRUE(saw_probes);
  EXPECT_TRUE(saw_failures);
}

// ---------------------------------------------------------------------------
// Pressure-relief reclaimer registry

TEST_F(MembudgetTest, ReclaimersRunInOrderAndStopUnderTheSoftWatermark) {
  obs::set_memaudit(true);
  obs::mem_track("test/ballast", 900 * 1024);
  set_mem_budget(std::int64_t{1} << 20);

  const std::size_t live_before = registered_reclaimer_count();
  int first_calls = 0, second_calls = 0;
  {
    ScopedMemReclaimer first("drop_ballast", [&] {
      ++first_calls;
      obs::mem_track("test/ballast", -900 * 1024);
      return std::int64_t{900 * 1024};
    });
    ScopedMemReclaimer second("never_needed", [&] {
      ++second_calls;
      return std::int64_t{0};
    });
    EXPECT_EQ(registered_reclaimer_count(), live_before + 2);
    const std::int64_t freed = relieve_pressure();
    EXPECT_EQ(freed, 900 * 1024);
    // The first reclaimer brought usage under soft, so the second never ran.
    EXPECT_EQ(first_calls, 1);
    EXPECT_EQ(second_calls, 0);
  }
  EXPECT_EQ(registered_reclaimer_count(), live_before);
}

TEST_F(MembudgetTest, ManualReliefWithoutBudgetRunsEveryReclaimer) {
  int calls = 0;
  ScopedMemReclaimer a("a", [&] { ++calls; return std::int64_t{16}; });
  ScopedMemReclaimer b("b", [&] { ++calls; return std::int64_t{0}; });
  EXPECT_EQ(relieve_pressure(), 16);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------------
// Checkpoint raw-blob tier and buddy spill

TEST_F(MembudgetTest, RawBlobSaveLoadRoundTripAndMissingKey) {
  CheckpointStore store(fresh_dir("membudget_blob"));
  const std::vector<unsigned char> blob{1, 2, 3, 250, 251, 252};
  store.save_blob("spill-test", blob);
  const auto back = store.try_load_blob("spill-test");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
  EXPECT_FALSE(store.try_load_blob("no-such-key").has_value());
}

TEST_F(MembudgetTest, BuddySpillFreesGaugeAndSurvivesHolderDeath) {
  obs::set_memaudit(true);
  CheckpointStore store(fresh_dir("membudget_spill"));
  BuddyReplicator buddy(2);
  buddy.set_spill_store(&store);

  CpscfCheckpoint ckpt;
  ckpt.iteration = 2;
  ckpt.p1 = linalg::Matrix(6, 6);
  for (std::size_t i = 0; i < 6; ++i) ckpt.p1(i, i) = 1.0 + double(i);
  const auto blob = serialize(ckpt);

  parallel::Cluster cluster(2, 2);
  cluster.run([&](parallel::Communicator& comm) {
    buddy.replicate(comm, blob);
  });

  const auto gauge_bytes = [] {
    for (const auto& g : obs::mem_snapshot())
      if (g.name == "resilience/buddy_replicas") return g.current_bytes;
    return std::int64_t{0};
  };
  ASSERT_GT(gauge_bytes(), 0);

  const std::int64_t freed = buddy.spill();
  EXPECT_EQ(freed, static_cast<std::int64_t>(2 * blob.size()));
  EXPECT_EQ(gauge_bytes(), 0);  // resident replica bytes fully released
  EXPECT_EQ(buddy.stats().blobs_spilled, 2u);
  EXPECT_EQ(buddy.stats().bytes_spilled, 2 * blob.size());
  EXPECT_EQ(buddy.spill(), 0);  // idempotent: nothing resident to spill

  // blob_of transparently reloads the spilled bytes from the store.
  const auto replica = buddy.blob_of(0);
  ASSERT_TRUE(replica.has_value());
  EXPECT_EQ(replica->bytes, std::vector<unsigned char>(blob.begin(), blob.end()));
  EXPECT_NO_THROW((void)deserialize_cpscf(replica->bytes));

  // A spilled replica survives its holder's death: the bytes live on
  // shared disk, not in the dead rank's memory.
  const std::size_t holder = replica->holder;
  EXPECT_EQ(buddy.drop_holder(holder), 0u);
  EXPECT_TRUE(buddy.blob_of(0).has_value());
}

// ---------------------------------------------------------------------------
// Warm-cache owned-bytes audit, clear(), budget-aware puts

TEST_F(MembudgetTest, WarmCacheClearReturnsGaugeToZero) {
  obs::set_memaudit(true);
  service::WarmCache cache({});
  auto r = std::make_shared<scf::ScfResult>();
  r->density_matrix = linalg::Matrix(8, 8);
  r->overlap = linalg::Matrix(8, 8);
  cache.put_ground(11, std::shared_ptr<const scf::ScfResult>(r));
  cache.put_density(22, linalg::Matrix(8, 8));

  const auto gauge_bytes = [] {
    for (const auto& g : obs::mem_snapshot())
      if (g.name == "service/warm_cache") return g.current_bytes;
    return std::int64_t{0};
  };
  const std::int64_t owned = cache.owned_bytes();
  ASSERT_GT(owned, 0);
  // The internal audit and the global gauge agree byte for byte.
  EXPECT_EQ(gauge_bytes(), owned);

  EXPECT_EQ(cache.clear(), owned);
  EXPECT_EQ(cache.owned_bytes(), 0);
  EXPECT_EQ(gauge_bytes(), 0);  // the regression bar: gauge returns to zero
  EXPECT_EQ(cache.ground_size(), 0u);
  EXPECT_EQ(cache.density_size(), 0u);
  EXPECT_EQ(cache.clear(), 0);  // idempotent
}

TEST_F(MembudgetTest, WarmCachePutSkipsUnderMemoryPressure) {
  set_mem_budget(std::int64_t{1} << 20);
  obs::mem_track("test/ballast", 900 * 1024);  // over the 80% soft mark

  service::WarmCache cache({});
  auto r = std::make_shared<scf::ScfResult>();
  r->density_matrix = linalg::Matrix(4, 4);
  cache.put_ground(1, std::shared_ptr<const scf::ScfResult>(r));
  cache.put_density(2, linalg::Matrix(4, 4));
  // Best-effort admission: under pressure the inserts are skipped, counted,
  // and the job is unaffected.
  EXPECT_EQ(cache.ground_size(), 0u);
  EXPECT_EQ(cache.density_size(), 0u);
  EXPECT_EQ(cache.stats().budget_skips, 2u);

  obs::mem_track("test/ballast", -900 * 1024);
  cache.put_density(2, linalg::Matrix(4, 4));
  EXPECT_EQ(cache.density_size(), 1u);  // pressure gone, puts admitted again
}

// ---------------------------------------------------------------------------
// Admission-time memory estimation

TEST_F(MembudgetTest, EstimateGrowsWithAtomsAndShrinksWithRanks) {
  const auto est = [](std::size_t atoms, std::size_t ranks) {
    return estimate_job_memory(atoms, ranks);
  };
  EXPECT_GT(est(8, 1), est(2, 1));
  EXPECT_GT(est(64, 1), est(8, 1));
  // Sharded terms divide by ranks, so more ranks = smaller per-rank
  // footprint -- and symmetrically, the ReducedRanks degradation rung
  // RAISES the estimate, which is why the service re-checks it.
  EXPECT_GT(est(16, 1), est(16, 4));
  EXPECT_GT(est(16, 2), est(16, 4));
  EXPECT_THROW((void)est(4, 0), Error);
}

TEST_F(MembudgetTest, ServiceRejectsJobsEstimatedOverBudget) {
  service::ServerOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.checkpoint_dir = fresh_dir("membudget_admission");
  service::SolveServer server(opt);
  // The server registers its warm cache as a relief reclaimer.
  EXPECT_GE(registered_reclaimer_count(), 1u);

  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  service::JobSpec spec;
  spec.structure = s;
  spec.scf.tier = basis::BasisTier::Light;
  spec.scf.grid.radial_points = 36;
  spec.scf.grid.angular_degree = 9;
  spec.scf.poisson.radial_points = 72;
  spec.dfpt.tolerance = 1e-6;
  spec.deadline = std::chrono::milliseconds(60000);

  // The model estimates a couple of MiB even for H2 (the packed
  // staging window dominates); a 1 MiB budget cannot admit it.
  set_mem_budget(std::int64_t{1} << 20);
  try {
    (void)server.submit(spec);
    FAIL() << "over-budget job was admitted";
  } catch (const JobRejected& e) {
    EXPECT_EQ(e.kind(), "MemoryBudgetExceeded");
    EXPECT_NE(std::string(e.what()).find("memory"), std::string::npos);
  }
  EXPECT_EQ(server.stats().rejected_memory, 1u);
  EXPECT_EQ(server.stats().rejected_invalid, 0u);

  // With no budget armed the same job is admissible (shed it via shutdown
  // rather than burning a full solve here).
  set_mem_budget(0);
  EXPECT_NO_THROW((void)server.submit(spec));
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Governor-idle / armed-but-unbreached bit-identity

TEST_F(MembudgetTest, ArmedButUnbreachedBudgetIsBitIdenticalToIdle) {
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;

  // Governor fully idle: the probes are one relaxed load each.
  const auto idle = core::solve_direction_parallel(ground, popt, 2);
  ASSERT_TRUE(idle.direction.converged);

  // A huge budget arms every probe site (and the memory audit) but never
  // trips; a passing probe returns no verdict, so the run must be
  // bit-for-bit identical.
  set_mem_budget(std::int64_t{1} << 40);
  const auto armed = core::solve_direction_parallel(ground, popt, 2);
  set_mem_budget(0);
  ASSERT_TRUE(armed.direction.converged);
  EXPECT_EQ(armed.direction.iterations, idle.direction.iterations);
  EXPECT_EQ(armed.direction.p1.max_abs_diff(idle.direction.p1), 0.0);
  EXPECT_EQ(armed.direction.dipole_response.z, idle.direction.dipole_response.z);
}

// ---------------------------------------------------------------------------
// The relief ladder end to end

// The relief ladder is the same on plain and elastic worlds.
class MembudgetRelief : public MembudgetTest,
                        public ::testing::WithParamInterface<bool> {};

// Acceptance bar: an injected allocation failure at the point-eval cache
// surfaces as a structured OutOfMemoryBudget, the RecoveryDriver walks the
// relief ladder (rung 1: shed the cache, re-evaluate on the fly), and the
// recovered run matches the unbudgeted reference to 1e-8.
TEST_P(MembudgetRelief, InjectedOomIsRelievedAndRecoversTheReference) {
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  OomPlan plan;
  plan.add({"dfpt/point_cache", /*invocation=*/0, /*rank=*/-1,
            /*transient=*/false});  // permanent: the cache NEVER fits
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);

  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;

  CheckpointStore store(fresh_dir("membudget_relief"));
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  ropt.elastic = GetParam();
  RecoveryDriver driver(store, ropt);
  const auto rec = driver.solve_direction_parallel(ground, popt, 2);

  EXPECT_GE(injector.stats().failures_injected, 1u);
  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GE(driver.last_stats().oom_events, 1u);
  EXPECT_GE(driver.last_stats().relief_actions, 1u);
  // Rung 1 re-evaluates basis points on the fly instead of caching them --
  // the arithmetic is identical, so the recovered answer matches the
  // reference within the acceptance tolerance.
  EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8);
  EXPECT_NEAR(rec.direction.dipole_response.z, ref.dipole_response.z, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Worlds, MembudgetRelief, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Elastic" : "Plain";
                         });

// The serial front-end is the one-rank world with its own tile cache, so
// the same injected failure strikes it and rung 1 relieves it; the
// on-the-fly tiles are bit-identical to the cache, so the recovered answer
// equals the DfptSolver reference exactly.
TEST_F(MembudgetTest, SerialFrontEndRelievesTheRankTileCache) {
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  OomPlan plan;
  plan.add({"dfpt/point_cache", /*invocation=*/0, /*rank=*/-1,
            /*transient=*/false});
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);

  CheckpointStore store(fresh_dir("membudget_serial_relief"));
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  RecoveryDriver driver(store, ropt);
  const auto rec = driver.solve_direction(ground, dopt, 2);

  EXPECT_TRUE(rec.converged);
  EXPECT_GE(driver.last_stats().oom_events, 1u);
  EXPECT_GE(driver.last_stats().relief_actions, 1u);
  EXPECT_EQ(rec.iterations, ref.iterations);
  EXPECT_EQ(rec.p1.max_abs_diff(ref.p1), 0.0);
}

// The tile-cache probe asks for a geometric upper bound of the rank's
// tiles, so a cache that cannot fit is refused at "dfpt/point_cache",
// before a tile is built -- not by a later probe once the memory is in use.
// The budget lies between two requests: above the usage at the probe plus
// two 4-byte words per point, below that usage plus the measured tiles.
TEST_F(MembudgetTest, TileCacheProbeRefusesACacheThatCannotFit) {
  const auto& ground = ground_h2();
  core::ParallelDfptOptions popt;
  popt.dfpt.tolerance = 1e-8;
  popt.ranks = 1;
  popt.ranks_per_node = 1;

  // Armed but roomy: the usage and the request at the probe, and the
  // tiles' measured bytes.
  struct ProbeLog : OomHook {
    std::int64_t in_use = -1;
    std::size_t request = 0;
    bool should_fail(const char* site, std::size_t request_bytes) override {
      if (std::string(site) == "dfpt/point_cache") {
        in_use = mem_in_use();
        request = request_bytes;
      }
      return false;
    }
  } log;
  install_oom_hook(&log);
  set_mem_budget(std::int64_t{1} << 40);
  ASSERT_TRUE(core::solve_direction_parallel(ground, popt, 2).direction.converged);
  install_oom_hook(nullptr);
  const std::int64_t tiles = obs::mem_gauge("dfpt/point_cache").peak();
  const auto floor = static_cast<std::int64_t>(2 * sizeof(std::uint32_t) * ground.grid->size());
  ASSERT_GE(log.in_use, 0);
  EXPECT_GE(static_cast<std::int64_t>(log.request), tiles);
  ASSERT_LT(4 * floor, tiles);

  set_mem_budget(log.in_use + (floor + tiles) / 2);
  try {
    (void)core::solve_direction_parallel(ground, popt, 2);
    FAIL() << "an over-budget tile cache was admitted";
  } catch (const OutOfMemoryBudget& e) {
    EXPECT_EQ(e.site(), "dfpt/point_cache");
  }
}

TEST_F(MembudgetTest, WithoutReliefTheBudgetExhaustsStructurally) {
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;

  OomPlan plan;
  plan.add({"dfpt/point_cache", /*invocation=*/0, /*rank=*/-1,
            /*transient=*/false});
  OomInjector injector(std::move(plan));
  ScopedOomInjector scoped(injector);

  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 2;
  popt.ranks_per_node = 2;

  CheckpointStore store(fresh_dir("membudget_norelief"));
  RecoveryOptions ropt;
  ropt.max_retries = 1;
  ropt.memory_relief = false;  // surface the breach unrelieved
  RecoveryDriver driver(store, ropt);
  EXPECT_THROW((void)driver.solve_direction_parallel(ground, popt, 2),
               OutOfMemoryBudget);
  EXPECT_GE(driver.last_stats().oom_events, 2u);
  EXPECT_EQ(driver.last_stats().relief_actions, 0u);
}

// Soft-watermark relief mid-CPSCF: usage sits over the watermark (but under
// the ceiling) when the solve starts; the driver's observer polls the
// pressure between iterations and runs the registered reclaimers, and the
// result matches the unpressured reference.
TEST_F(MembudgetTest, SoftWatermarkCrossingMidCpscfTriggersRelief) {
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  set_mem_budget(std::int64_t{64} << 20);       // 64 MiB ceiling
  obs::mem_track("test/ballast", 60 * 1024 * 1024);  // 94% in use
  int reclaims = 0;
  ScopedMemReclaimer shed("test_ballast", [&] {
    ++reclaims;
    obs::mem_track("test/ballast", -60 * 1024 * 1024);
    return std::int64_t{60} * 1024 * 1024;
  });

  CheckpointStore store(fresh_dir("membudget_soft"));
  RecoveryOptions ropt;
  ropt.max_retries = 1;
  RecoveryDriver driver(store, ropt);
  const auto rec = driver.solve_direction(ground, dopt, 2);

  EXPECT_EQ(reclaims, 1);  // shed once, then the pressure is gone
  EXPECT_GE(driver.last_stats().relief_actions, 1u);
  EXPECT_EQ(driver.last_stats().oom_events, 0u);  // never reached the ceiling
  EXPECT_TRUE(rec.converged);
  EXPECT_EQ(rec.p1.max_abs_diff(ref.p1), 0.0);  // relief read, never wrote
}

}  // namespace
