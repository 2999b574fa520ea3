// Silent-data-corruption defense tests: ABFT-checksummed matmuls (detect /
// locate / correct), compute-site fault injection, physics invariant
// guards, CRC/checksum-verified collectives, and the escalation ladder
// integration. The acceptance bar: a seeded bit-flip inside the DM-build
// matmul is detected by ABFT, corrected in place, and the run's
// polarizability matches the fault-free reference to 1e-8; a planted
// non-finite density batch trips a guard within the same CPSCF iteration
// and is healed by a local recompute; a corrupted collective payload is
// named at the collective, on the rank where it happened.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "comm/packed.hpp"
#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "linalg/abft.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "resilience/buddy.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/guards.hpp"
#include "resilience/recovery.hpp"
#include "resilience/sdc_inject.hpp"
#include "scf/diis.hpp"
#include "scf/scf_solver.hpp"
#include "tune/tune.hpp"

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

/// Guards are process-global; tests that disable them must restore the
/// default even on assertion failure.
struct GuardsOn {
  GuardsOn() { set_guards(true); }
  ~GuardsOn() { set_guards(true); }
};

// ---------------------------------------------------------------------------
// ABFT-checksummed matmul

TEST(Abft, FaultFreeProductIsBitIdentical) {
  const auto a = test_matrix(7, 5, 1.0);
  const auto b = test_matrix(5, 6, 0.5);
  const auto ref = linalg::matmul(a, b);
  const auto c = linalg::abft_matmul(a, b, "test/abft");
  EXPECT_EQ(c.max_abs_diff(ref), 0.0);

  const auto at = test_matrix(5, 7, 1.0);
  const auto ref_tn = linalg::matmul_tn(at, b);
  const auto c_tn = linalg::abft_matmul_tn(at, b, "test/abft");
  EXPECT_EQ(c_tn.max_abs_diff(ref_tn), 0.0);
}

TEST(Abft, SingleBitFlipIsLocatedAndCorrectedExactly) {
  const auto before = linalg::abft_stats();
  SdcPlan plan;
  plan.add({parallel::FaultKind::BitFlip, "test/abft_flip", /*invocation=*/0,
            /*element=*/9, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto a = test_matrix(8, 8, 1.0);
  const auto b = test_matrix(8, 8, 0.25);
  const auto ref = linalg::matmul(a, b);
  const auto c = linalg::abft_matmul(a, b, "test/abft_flip");
  // The recompute restores the kernel's exact accumulation, so the repaired
  // product is bit-identical, not merely close.
  EXPECT_EQ(c.max_abs_diff(ref), 0.0);
  EXPECT_EQ(injector.stats().bit_flips, 1u);
  const auto after = linalg::abft_stats();
  EXPECT_EQ(after.detections - before.detections, 1u);
  EXPECT_EQ(after.corrections - before.corrections, 1u);
  EXPECT_EQ(after.uncorrectable - before.uncorrectable, 0u);
}

TEST(Abft, NanPayloadIsCorrected) {
  SdcPlan plan;
  plan.add({parallel::FaultKind::NanPayload, "test/abft_nan", /*invocation=*/0,
            /*element=*/3, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto a = test_matrix(6, 4, 2.0);
  const auto b = test_matrix(4, 5, 1.0);
  const auto ref = linalg::matmul(a, b);
  const auto c = linalg::abft_matmul(a, b, "test/abft_nan");
  EXPECT_EQ(c.max_abs_diff(ref), 0.0);
  EXPECT_EQ(injector.stats().nans_planted, 1u);
}

TEST(Abft, TransposedVariantCorrectsToo) {
  SdcPlan plan;
  plan.add({parallel::FaultKind::BitFlip, "test/abft_tn", /*invocation=*/0,
            /*element=*/5, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto a = test_matrix(6, 4, 1.0);  // used as A^T: product is 4x5
  const auto b = test_matrix(6, 5, 0.5);
  const auto ref = linalg::matmul_tn(a, b);
  const auto c = linalg::abft_matmul_tn(a, b, "test/abft_tn");
  EXPECT_EQ(c.max_abs_diff(ref), 0.0);
  EXPECT_EQ(injector.stats().corruptions, 1u);
}

TEST(Abft, DetectOnlyModeThrowsInsteadOfCorrecting) {
  SdcPlan plan;
  plan.add({parallel::FaultKind::BitFlip, "test/abft_detect", /*invocation=*/0,
            /*element=*/2, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto a = test_matrix(5, 5, 1.0);
  const auto b = test_matrix(5, 5, 1.0);
  try {
    (void)linalg::abft_matmul(a, b, "test/abft_detect",
                              linalg::AbftMode::DetectOnly);
    FAIL() << "detect-only corruption did not throw";
  } catch (const linalg::AbftError& e) {
    EXPECT_EQ(e.site(), "test/abft_detect");
    EXPECT_NE(std::string(e.what()).find("ABFT"), std::string::npos);
  }
}

TEST(Abft, MultiElementCorruptionIsUncorrectable) {
  const auto before = linalg::abft_stats();
  SdcPlan plan;
  // Two corrupted elements in distinct rows AND columns: the row/column
  // residual intersection is ambiguous, so correction must refuse.
  plan.add({parallel::FaultKind::BitFlip, "test/abft_multi", /*invocation=*/0,
            /*element=*/0, /*bit=*/62});
  plan.add({parallel::FaultKind::BitFlip, "test/abft_multi", /*invocation=*/0,
            /*element=*/9, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto a = test_matrix(8, 8, 1.0);
  const auto b = test_matrix(8, 8, 1.0);
  EXPECT_THROW((void)linalg::abft_matmul(a, b, "test/abft_multi"),
               linalg::AbftError);
  const auto after = linalg::abft_stats();
  EXPECT_GE(after.uncorrectable - before.uncorrectable, 1u);
}

// ---------------------------------------------------------------------------
// Compute-site injector plumbing

TEST(SdcInjector, PlanValidationRejectsBadFields) {
  SdcPlan plan;
  SdcEvent bad_bit;
  bad_bit.bit = 64;
  EXPECT_THROW(plan.add(bad_bit), Error);
  SdcEvent bad_site;
  bad_site.site = "";
  EXPECT_THROW(plan.add(bad_site), Error);
  EXPECT_EQ(plan.size(), 0u);
}

TEST(SdcInjector, RandomPlansAreSeedDeterministic) {
  const std::vector<std::string> sites{"linalg/matmul", "cpscf/rho_batch"};
  const auto a = SdcPlan::random(99, 6, sites, 20);
  const auto b = SdcPlan::random(99, 6, sites, 20);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.events()[i].kind),
              static_cast<int>(b.events()[i].kind));
    EXPECT_EQ(a.events()[i].site, b.events()[i].site);
    EXPECT_EQ(a.events()[i].invocation, b.events()[i].invocation);
    EXPECT_EQ(a.events()[i].element, b.events()[i].element);
    EXPECT_GE(a.events()[i].bit, 48);
    EXPECT_LT(a.events()[i].bit, 64);
    EXPECT_LT(a.events()[i].invocation, 20u);
  }
}

TEST(SdcInjector, ProbeWithoutHookIsInert) {
  std::vector<double> data{1.0, 2.0, 3.0};
  sdc_probe("test/no_hook", data);
  EXPECT_EQ(data[0], 1.0);
  EXPECT_EQ(data[1], 2.0);
  EXPECT_EQ(data[2], 3.0);
}

TEST(SdcInjector, TransientEventFiresExactlyOnceAtItsInvocation) {
  SdcPlan plan;
  plan.add({parallel::FaultKind::NanPayload, "test/site", /*invocation=*/1,
            /*element=*/0, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  std::vector<double> data{1.0};
  sdc_probe("test/site", data);  // invocation 0: too early
  EXPECT_TRUE(std::isfinite(data[0]));
  sdc_probe("test/other", data);  // different site: does not advance "test/site"
  EXPECT_TRUE(std::isfinite(data[0]));
  sdc_probe("test/site", data);  // invocation 1: fires
  EXPECT_TRUE(std::isnan(data[0]));
  data[0] = 1.0;
  sdc_probe("test/site", data);  // exhausted
  EXPECT_TRUE(std::isfinite(data[0]));
  EXPECT_EQ(injector.stats().corruptions, 1u);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(injector.invocations("test/site"), 3u);
}

TEST(SdcInjector, PermanentEventFiresAtItsInvocationAndEveryLaterProbe) {
  SdcPlan plan;
  SdcEvent ev;
  ev.kind = parallel::FaultKind::InfPayload;
  ev.site = "test/perm";
  ev.invocation = 1;
  ev.transient = false;
  plan.add(ev);
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  std::vector<double> data{1.0};
  sdc_probe("test/perm", data);  // invocation 0: before its invocation
  EXPECT_EQ(data[0], 1.0);
  sdc_probe("test/other", data);  // another site never fires it
  EXPECT_EQ(data[0], 1.0);
  for (int k = 0; k < 3; ++k) {  // invocations 1, 2, 3: a stuck unit
    data[0] = 1.0;
    sdc_probe("test/perm", data);
    EXPECT_TRUE(std::isinf(data[0])) << "probe " << k + 1;
  }
  EXPECT_EQ(injector.stats().corruptions, 3u);
  EXPECT_EQ(injector.stats().infs_planted, 3u);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(injector.invocations("test/perm"), 4u);
}

TEST(SdcInjector, RankFilteredEventFiresOnlyOnItsRank) {
  SdcPlan plan;
  SdcEvent ev;
  ev.kind = parallel::FaultKind::NanPayload;
  ev.site = "test/rank";
  ev.rank = 2;
  ev.invocation = 0;  // probed by rank 1: filtered out, never fires
  plan.add(ev);
  ev.invocation = 1;  // probed by rank 2: fires
  plan.add(ev);
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  std::vector<double> data{1.0};
  {
    ScopedThreadRank as_rank(1);
    sdc_probe("test/rank", data);
  }
  EXPECT_TRUE(std::isfinite(data[0]));
  {
    ScopedThreadRank as_rank(2);
    sdc_probe("test/rank", data);
  }
  EXPECT_TRUE(std::isnan(data[0]));
  data[0] = 1.0;
  sdc_probe("test/rank", data);  // invocation 2 on the host thread
  EXPECT_TRUE(std::isfinite(data[0]));
  EXPECT_EQ(injector.stats().corruptions, 1u);
  EXPECT_EQ(injector.pending(), 1u);  // the event rank 1's probe passed by
  EXPECT_EQ(injector.invocations("test/rank"), 3u);
}

// ---------------------------------------------------------------------------
// Physics invariant guards

TEST(Guards, FiniteSweepRaisesStructuredViolation) {
  GuardsOn guards;
  std::vector<double> ok{1.0, -2.0, 0.0};
  EXPECT_NO_THROW(guard_finite(ok, "test/finite"));
  std::vector<double> bad{1.0, std::numeric_limits<double>::quiet_NaN()};
  try {
    guard_finite(bad, "test/finite");
    FAIL() << "NaN passed the finiteness guard";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.invariant(), "finite");
    EXPECT_EQ(e.site(), "test/finite");
    EXPECT_NE(std::string(e.what()).find("invariant violation"),
              std::string::npos);
  }
}

TEST(Guards, HermiticityCatchesAsymmetryAndNonFinite) {
  GuardsOn guards;
  auto m = test_matrix(5, 5, 1.0);
  m.symmetrize();
  EXPECT_NO_THROW(guard_hermitian(m, "test/herm"));
  auto bad = m;
  bad(1, 3) += 1.0;  // far beyond roundoff asymmetry
  EXPECT_THROW(guard_hermitian(bad, "test/herm"), InvariantViolation);
  auto inf = m;
  inf(2, 4) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(guard_hermitian(inf, "test/herm"), InvariantViolation);
}

TEST(Guards, ElectronCountAndTraceIdentity) {
  GuardsOn guards;
  EXPECT_NO_THROW(guard_electron_count(10.0001, 10.0, "test/ne"));
  EXPECT_THROW(guard_electron_count(11.0, 10.0, "test/ne"), InvariantViolation);
  EXPECT_THROW(
      guard_electron_count(std::numeric_limits<double>::quiet_NaN(), 10.0,
                           "test/ne"),
      InvariantViolation);

  // tr(P S) with S = I is just tr(P).
  linalg::Matrix p(3, 3), s(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    p(i, i) = 2.0;
    s(i, i) = 1.0;
  }
  EXPECT_NO_THROW(guard_trace_identity(p, s, 6.0, "test/tr"));
  p(0, 0) = 3.0;
  EXPECT_THROW(guard_trace_identity(p, s, 6.0, "test/tr"), InvariantViolation);
}

TEST(Guards, DisabledGuardsSkipEveryCheck) {
  GuardsOn guards;
  const std::uint64_t before = obs::counter("guards/violations").value();
  set_guards(false);
  EXPECT_FALSE(guards_enabled());
  std::vector<double> bad{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_NO_THROW(guard_finite(bad, "test/off"));
  linalg::Matrix asym(2, 2);
  asym(0, 1) = 1.0;
  EXPECT_NO_THROW(guard_hermitian(asym, "test/off"));
  EXPECT_NO_THROW(guard_electron_count(99.0, 2.0, "test/off"));
  EXPECT_EQ(obs::counter("guards/violations").value(), before);
  set_guards(true);
  EXPECT_TRUE(guards_enabled());
}

TEST(Guards, DiisRefusesNonFiniteInput) {
  GuardsOn guards;
  scf::DiisMixer mixer(4);
  auto h = test_matrix(4, 4, 1.0);
  h.symmetrize();
  const auto p = test_matrix(4, 4, 0.5);
  linalg::Matrix s(4, 4);
  for (std::size_t i = 0; i < 4; ++i) s(i, i) = 1.0;
  EXPECT_NO_THROW((void)mixer.extrapolate(h, p, s));
  auto bad = h;
  bad(2, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)mixer.extrapolate(bad, p, s), InvariantViolation);
}

// ---------------------------------------------------------------------------
// Collective-layer fault plan validation (satellite)

TEST(FaultPlanValidation, RejectsOutOfRangeFields) {
  parallel::FaultPlan plan;
  parallel::FaultEvent bad_bit;
  bad_bit.bit = 64;
  EXPECT_THROW(plan.add(bad_bit), Error);
  bad_bit.bit = -1;
  EXPECT_THROW(plan.add(bad_bit), Error);
  parallel::FaultEvent bad_repeat;
  bad_repeat.kind = parallel::FaultKind::Stall;
  bad_repeat.repeat = 0;
  EXPECT_THROW(plan.add(bad_repeat), Error);
  EXPECT_EQ(plan.size(), 0u);
}

TEST(FaultPlanValidation, InjectorRankOutsideWorldIsRejectedAtAttach) {
  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::BitFlip, /*rank=*/5, /*collective=*/0,
            /*element=*/0, /*bit=*/62});
  parallel::FaultInjector injector(std::move(plan));
  parallel::Cluster cluster(2, 2);
  EXPECT_THROW(cluster.set_fault_injector(&injector), Error);
}

// ---------------------------------------------------------------------------
// Checksum-verified collectives

TEST(VerifiedCollectives, CrcNamesCollectiveAndRankOfInFlightCorruption) {
  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::BitFlip, /*rank=*/1, /*collective=*/0,
            /*element=*/0, /*bit=*/62});
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  cluster.set_verify_payloads(true);
  const auto outcomes = cluster.run_collect([](parallel::Communicator& comm) {
    std::vector<double> data{1.0, 2.0};
    comm.allreduce_sum(data);
  });
  ASSERT_EQ(outcomes.size(), 2u);
  int corruptions = 0;
  for (const auto& e : outcomes) {
    ASSERT_TRUE(e != nullptr);
    try {
      std::rethrow_exception(e);
    } catch (const parallel::PayloadCorruption& pc) {
      ++corruptions;
      EXPECT_EQ(pc.original_rank(), 1u);
      EXPECT_EQ(pc.collective(), "allreduce_sum");
      EXPECT_NE(std::string(pc.what()).find("CRC"), std::string::npos);
    } catch (const parallel::RankFailure& rf) {
      // The peer observes the corrupted rank's failure, not the corruption.
      EXPECT_EQ(rf.failed_rank(), 1u);
    }
  }
  EXPECT_EQ(corruptions, 1);
}

TEST(VerifiedCollectives, CleanPayloadsPassCrcVerification) {
  parallel::Cluster cluster(2, 2);
  cluster.set_verify_payloads(true);
  std::vector<double> got(2, 0.0);
  cluster.run([&](parallel::Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank() + 1)};
    comm.allreduce_sum(data);
    got[comm.rank()] = data[0];
  });
  EXPECT_EQ(got[0], 3.0);
  EXPECT_EQ(got[1], 3.0);
}

TEST(VerifiedCollectives, PackedReducerChecksumDetectsCorruption) {
  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::BitFlip, /*rank=*/1, /*collective=*/0,
            /*element=*/0, /*bit=*/62});
  parallel::FaultInjector injector(std::move(plan));

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  const auto outcomes = cluster.run_collect([](parallel::Communicator& comm) {
    std::vector<double> row(4, static_cast<double>(comm.rank() + 1));
    comm::PackedAllReducer reducer(comm, comm::ReduceMode::Flat,
                                   tune::kPackWindowBytes, /*verify=*/true);
    reducer.add(row);
    reducer.flush();
  });
  // The linear checksum mismatch is computed from the REDUCED payload, which
  // is identical on every rank -- so every rank detects it together.
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& e : outcomes) {
    ASSERT_TRUE(e != nullptr);
    try {
      std::rethrow_exception(e);
    } catch (const parallel::PayloadCorruption& pc) {
      EXPECT_EQ(pc.collective(), "packed_allreduce");
    } catch (const parallel::RankFailure&) {
      // Acceptable ordering artifact: a rank may observe its peer's abort
      // before reaching its own verification.
    }
  }
}

TEST(VerifiedCollectives, PackedReducerVerifyModeIsExactWhenClean) {
  parallel::Cluster cluster(2, 2);
  std::vector<std::vector<double>> rows(2, std::vector<double>(5, 0.0));
  cluster.run([&](parallel::Communicator& comm) {
    std::vector<double> row{1.0, 2.0, 3.0, 4.0, 5.0};
    comm::PackedAllReducer reducer(comm, comm::ReduceMode::Flat,
                                   tune::kPackWindowBytes, /*verify=*/true);
    reducer.add(row);
    reducer.flush();
    rows[comm.rank()] = row;
  });
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_EQ(rows[r][i], 2.0 * static_cast<double>(i + 1));
}

// ---------------------------------------------------------------------------
// Checkpoint / buddy corruption handling (satellite)

TEST(SdcStorage, CheckpointCrcMismatchRefusesLoad) {
  CheckpointStore store(fresh_dir("sdc_ckpt_crc"));
  CpscfCheckpoint in;
  in.iteration = 5;
  in.p1 = test_matrix(6, 6, 1.0);
  store.save("k", in);

  // Flip one payload byte on disk: a silent storage corruption.
  {
    std::fstream f(store.path_of("k"),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(48);
    char byte = 0;
    f.seekg(48);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(48);
    f.write(&byte, 1);
  }
  EXPECT_THROW((void)store.load_cpscf("k"), Error);
  EXPECT_THROW((void)store.try_load_cpscf("k"), Error);
}

TEST(SdcStorage, BuddyReplicaWithCorruptPayloadFailsFrameCrc) {
  BuddyReplicator buddy(2);
  CpscfCheckpoint ckpt;
  ckpt.iteration = 3;
  ckpt.p1 = test_matrix(5, 5, 1.0);
  const auto blob = serialize(ckpt);

  parallel::Cluster cluster(2, 2);
  cluster.run([&](parallel::Communicator& comm) {
    buddy.replicate(comm, blob);
  });
  auto replica = buddy.blob_of(0);
  ASSERT_TRUE(replica.has_value());
  EXPECT_NO_THROW((void)deserialize_cpscf(replica->bytes));
  replica->bytes[replica->bytes.size() / 2] ^= 0x40;  // silent memory upset
  EXPECT_THROW((void)deserialize_cpscf(replica->bytes), Error);
}

TEST(SdcStorage, BuddyCorruptSizeAnnounceSkipsSlotInsteadOfAllocating) {
  parallel::FaultPlan plan;
  // Strike rank 0's size broadcast (its first non-empty payload): the
  // announced size turns non-finite and every rank must skip the slot.
  plan.add({parallel::FaultKind::InfPayload, /*rank=*/0, /*collective=*/0,
            /*element=*/0});
  parallel::FaultInjector injector(std::move(plan));

  BuddyReplicator buddy(2);
  CpscfCheckpoint ckpt;
  ckpt.iteration = 1;
  ckpt.p1 = test_matrix(4, 4, 1.0);
  const auto blob = serialize(ckpt);

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  cluster.run([&](parallel::Communicator& comm) {
    buddy.replicate(comm, blob);
  });
  EXPECT_GE(buddy.stats().slots_skipped, 1u);
  EXPECT_FALSE(buddy.blob_of(0).has_value());  // the struck slot
  EXPECT_TRUE(buddy.blob_of(1).has_value());   // the clean slot still mirrors
}

// ---------------------------------------------------------------------------
// Solver-level SDC defense on a real molecule

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

// The acceptance bar of the tentpole: a seeded bit flip inside the DM-build
// matmul is detected by ABFT, located, corrected in place (no rollback),
// and the resulting polarizability matches the fault-free reference.
TEST(SdcSolver, DmMatmulBitFlipIsCorrectedAndMatchesReference) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  ASSERT_TRUE(ground.converged);
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 2);

  const auto before = linalg::abft_stats();
  SdcPlan plan;
  plan.add({parallel::FaultKind::BitFlip, "cpscf/dm_matmul", /*invocation=*/2,
            /*element=*/1, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto hit = core::DfptSolver(ground, dopt).solve_direction(2);
  EXPECT_EQ(injector.pending(), 0u);  // the planned corruption actually fired
  EXPECT_EQ(injector.stats().bit_flips, 1u);
  const auto after = linalg::abft_stats();
  EXPECT_GE(after.detections - before.detections, 1u);
  EXPECT_GE(after.corrections - before.corrections, 1u);
  EXPECT_TRUE(hit.converged);
  // In-place correction is bit-exact, so the whole trajectory is too.
  EXPECT_EQ(hit.iterations, ref.iterations);
  EXPECT_EQ(hit.p1.max_abs_diff(ref.p1), 0.0);
  EXPECT_NEAR(hit.dipole_response.z, ref.dipole_response.z, 1e-8);
}

// A NaN planted in a Sumup density batch trips the finiteness guard within
// the same iteration and is healed by the local-recompute rung (the batch
// is a pure function of P^(1)) -- no rollback, no retry.
TEST(SdcSolver, RhoBatchNanTriggersSameIterationLocalRecompute) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  const std::uint64_t recomputes_before =
      obs::counter("sdc/local_recomputes").value();
  SdcPlan plan;
  plan.add({parallel::FaultKind::NanPayload, "cpscf/rho_batch", /*invocation=*/2,
            /*element=*/7, /*bit=*/62});
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  const auto hit = core::DfptSolver(ground, dopt).solve_direction(2);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(obs::counter("sdc/local_recomputes").value(),
            recomputes_before + 1);
  EXPECT_TRUE(hit.converged);
  // The recomputed batch is clean, so the run is bit-identical again.
  EXPECT_EQ(hit.iterations, ref.iterations);
  EXPECT_EQ(hit.p1.max_abs_diff(ref.p1), 0.0);
}

// A NaN that strikes a kernel with no recompute rung (the multipole
// projection feeding the Poisson solve) escalates: the guard raises a
// structured InvariantViolation, and the RecoveryDriver treats it as a
// fault -- rollback, retry, converge to the reference.
TEST(SdcSolver, MultipoleNanEscalatesThroughRecoveryDriver) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  SdcPlan plan;
  SdcEvent ev;
  ev.kind = parallel::FaultKind::NanPayload;
  ev.site = "poisson/rho_multipole";
  // Fire well into the CPSCF cycle so at least one checkpoint exists. Each
  // Hartree solve projects atoms * nlm channels; a late invocation lands in
  // iteration 2+.
  ev.invocation = 40;
  ev.element = 3;
  plan.add(ev);
  SdcInjector injector(std::move(plan));
  ScopedSdcInjector scoped(injector);

  CheckpointStore store(fresh_dir("sdc_escalate"));
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  RecoveryDriver driver(store, ropt);
  const auto rec = driver.solve_direction(ground, dopt, 2);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_TRUE(rec.converged);
  EXPECT_GE(driver.last_stats().faults_detected, 1u);
  EXPECT_GE(driver.last_stats().invariant_violations, 1u);
  EXPECT_NEAR(rec.dipole_response.z, ref.dipole_response.z, 1e-8);
}

// A finite bit flip in the final Sumup batch passes the finiteness guard
// and, with no Rho phase left to run, reaches only the grid moment. The
// alpha-path guard catches it: the grid moment and Tr(P^(1) D) no longer
// agree, so the serial solver raises InvariantViolation instead of
// reporting a converged but wrong alpha.
class SdcFinalSumup : public ::testing::TestWithParam<int> {};

SdcPlan final_sumup_flip(int iterations, int bit) {
  SdcPlan plan;
  plan.add({parallel::FaultKind::BitFlip, "cpscf/rho_batch",
            /*invocation=*/static_cast<std::size_t>(iterations - 1),
            /*element=*/300, bit});
  return plan;
}

TEST_P(SdcFinalSumup, AlphaPathGuardRejectsTheStruckAnswer) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);
  EXPECT_LT(alpha_path_gap(ref.dipole_response, ref.dipole_response_trace), 1e-12);

  SdcInjector injector(final_sumup_flip(ref.iterations, GetParam()));
  ScopedSdcInjector scoped(injector);
  EXPECT_THROW((void)core::DfptSolver(ground, dopt).solve_direction(2),
               InvariantViolation);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(injector.stats().bit_flips, 1u);
}

// Through the RecoveryDriver the violation is one more fault: one retry
// from the last checkpoint, and the recovered alpha is the reference's.
TEST_P(SdcFinalSumup, RecoveryDriverRetriesToTheReferenceAlpha) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  SdcInjector injector(final_sumup_flip(ref.iterations, GetParam()));
  ScopedSdcInjector scoped(injector);
  CheckpointStore store(fresh_dir("sdc_final_sumup_" + std::to_string(GetParam())));
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  RecoveryDriver driver(store, ropt);
  const auto rec = driver.solve_direction(ground, dopt, 2);
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_TRUE(rec.converged);
  EXPECT_EQ(driver.last_stats().invariant_violations, 1u);
  // The retry resumes from the converged iteration's checkpoint and
  // finishes there: no extra Pulay step.
  EXPECT_EQ(rec.iterations, ref.iterations);
  EXPECT_EQ(rec.dipole_response.z, ref.dipole_response.z);
}

// Bit 51 (the top mantissa bit) and bit 63 (the sign).
INSTANTIATE_TEST_SUITE_P(Bits, SdcFinalSumup, ::testing::Values(51, 63));

// A guarded, ABFT-verified, fault-free run is bit-identical to a fully
// unguarded one: the defense layers only read.
TEST(SdcSolver, GuardedFaultFreeRunIsBitIdenticalToUnguarded) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto guarded = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(guarded.converged);

  set_guards(false);
  core::DfptOptions plain = dopt;
  plain.abft = false;
  const auto unguarded = core::DfptSolver(ground, plain).solve_direction(2);
  set_guards(true);
  ASSERT_TRUE(unguarded.converged);
  EXPECT_EQ(guarded.iterations, unguarded.iterations);
  EXPECT_EQ(guarded.p1.max_abs_diff(unguarded.p1), 0.0);
  EXPECT_EQ(guarded.dipole_response.z, unguarded.dipole_response.z);
  EXPECT_EQ(guarded.n1_samples, unguarded.n1_samples);
}

// Verified collectives inside the distributed solver: an in-flight bit flip
// surfaces as PayloadCorruption at the collective, and the RecoveryDriver
// rolls back and recovers the reference answer.
TEST(SdcSolver, ParallelVerifiedCollectiveCorruptionIsRecovered) {
  GuardsOn guards;
  const auto& ground = ground_h2();
  core::DfptOptions dopt;
  dopt.tolerance = 1e-8;
  const auto ref = core::DfptSolver(ground, dopt).solve_direction(2);
  ASSERT_TRUE(ref.converged);

  parallel::FaultPlan plan;
  plan.add({parallel::FaultKind::BitFlip, /*rank=*/1, /*collective=*/8,
            /*element=*/2, /*bit=*/62});
  parallel::FaultInjector injector(std::move(plan));

  core::ParallelDfptOptions popt;
  popt.dfpt = dopt;
  popt.ranks = 4;
  popt.ranks_per_node = 2;
  popt.reduce_mode = comm::ReduceMode::Flat;
  popt.batch_points = 96;
  popt.fault_injector = &injector;
  popt.verify_collectives = true;

  CheckpointStore store(fresh_dir("sdc_parallel"));
  RecoveryOptions ropt;
  ropt.max_retries = 3;
  RecoveryDriver driver(store, ropt);
  const auto rec = driver.solve_direction_parallel(ground, popt, 2);

  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_TRUE(rec.direction.converged);
  EXPECT_GE(rec.stats.faults_detected, 1u);
  EXPECT_GE(rec.stats.payload_corruptions, 1u);
  EXPECT_NEAR(rec.direction.dipole_response.z, ref.dipole_response.z, 1e-8);
  EXPECT_LT(rec.direction.p1.max_abs_diff(ref.p1), 1e-8);
}

}  // namespace
