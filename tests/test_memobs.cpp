// Tests for the memory-audit / comm-matrix / flight-recorder observability
// layers (ISSUE: memory & communication observability). The bit-identity
// contract of the memory audit against SCF+CPSCF lives in test_obs.cpp
// next to the tracing bit-identity test; this binary covers the accounting
// semantics: comm-matrix row sums against the PackedAllReducer's own byte
// counter, the post-mortem dump on an injected RankFailure, the disabled
// paths, MemScope RAII, and the scaling-exponent fit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/packed.hpp"
#include "common/thread_ident.hpp"
#include "linalg/abft.hpp"
#include "obs/comm_matrix.hpp"
#include "obs/flight.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"

namespace {

using namespace aeqp;

/// Clean observability state on both sides of every test so armed layers
/// cannot leak across tests (or into other binaries' expectations).
class MemObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::set_mode(obs::TraceMode::Off);
    obs::set_memaudit(false);
    obs::set_flight(false);
    obs::reset();
    obs::reset_counters();
    obs::reset_comm_matrix();
    obs::reset_flight();
  }
  void TearDown() override { SetUp(); }
};

// ---------------------------------------------------------------------------
// Communication matrix

TEST_F(MemObsTest, CommMatrixRowSumsMatchPackedReducerBytes) {
  obs::set_mode(obs::TraceMode::Summary);
  obs::reset_comm_matrix();

  constexpr std::size_t kRanks = 4, kRows = 24, kRowLen = 96;
  std::vector<std::uint64_t> reduced(kRanks, 0);
  parallel::Cluster cluster(kRanks, kRanks);
  cluster.run([&](parallel::Communicator& c) {
    const ScopedThreadRank tag(static_cast<int>(c.rank()));
    std::vector<std::vector<double>> rows(kRows,
                                          std::vector<double>(kRowLen, 1.0));
    comm::PackedAllReducer packer(c, comm::ReduceMode::Flat,
                                  /*max_bytes=*/8 * kRowLen * sizeof(double),
                                  /*verify=*/false);
    for (auto& r : rows) packer.add(r);
    packer.flush();
    reduced[c.rank()] = packer.bytes_reduced();  // each rank owns its slot
  });

  // An allreduce is modeled as src -> every dst != src, so a rank's heatmap
  // row must sum to exactly bytes_reduced() * (P - 1): the comm matrix and
  // the reducer's own counter are two independent accountings of the same
  // traffic.
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(reduced[r], kRows * kRowLen * sizeof(double));
    EXPECT_EQ(obs::comm_row_bytes(static_cast<int>(r)),
              reduced[r] * (kRanks - 1));
  }

  const std::string json = obs::comm_matrix_json(2);
  EXPECT_NE(json.find("\"allreduce_sum\""), std::string::npos);
  EXPECT_NE(obs::comm_matrix_summary().find("4 ranks"), std::string::npos);
}

TEST_F(MemObsTest, CommMatrixRecordsNothingWhenTracingOff) {
  ASSERT_EQ(obs::mode(), obs::TraceMode::Off);
  obs::comm_record("allreduce_sum", 0, 1, 4096);
  obs::comm_record_all("allreduce_sum", 0, 4, 4096);
  EXPECT_TRUE(obs::comm_edges().empty());
  EXPECT_EQ(obs::comm_row_bytes(0), 0u);
  EXPECT_TRUE(obs::comm_matrix_summary().empty());
}

TEST_F(MemObsTest, CommMatrixJsonWritesAndParsesBack) {
  obs::set_mode(obs::TraceMode::Summary);
  obs::comm_record("broadcast", 0, 1, 100);
  obs::comm_record("broadcast", 0, 2, 100);
  obs::comm_record("allreduce_sum", 1, 0, 50);

  const std::string path =
      (std::filesystem::temp_directory_path() / "aeqp_comm_matrix_test.json")
          .string();
  ASSERT_TRUE(obs::write_comm_matrix(path));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"broadcast\""), std::string::npos);
  EXPECT_NE(json.find("\"allreduce_sum\""), std::string::npos);
  std::filesystem::remove(path);
  EXPECT_EQ(obs::comm_row_bytes(0), 200u);
  EXPECT_EQ(obs::comm_row_bytes(1), 50u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST_F(MemObsTest, FlightDumpsPostMortemOnInjectedRankFailure) {
  // The post-mortem lands where AEQP_FLIGHT_FILE points (read at dump
  // time). CI uploads this exact file as the flight-postmortem artifact,
  // so it is deliberately left on disk.
  const char* kDumpFile = "flight_postmortem.json";
  ::setenv("AEQP_FLIGHT_FILE", kDumpFile, 1);
  std::filesystem::remove(kDumpFile);
  obs::set_flight(true);
  obs::reset_flight();
  const std::uint64_t dumps_before = obs::flight_dump_count();
  const auto dump = [&] {
    std::ifstream in(kDumpFile);
    std::stringstream body;
    body << in.rdbuf();
    return body.str();
  };

  // A structured error keeps its own name: an AbftError escaping a rank
  // function is dumped as AbftError, the name its job outcome carries.
  parallel::Cluster abft_world(2, 2);
  EXPECT_THROW(abft_world.run([](parallel::Communicator& c) {
                 if (c.rank() == 1)
                   throw linalg::AbftError("test/matmul", "uncorrectable");
                 std::vector<double> x(8, 1.0);
                 c.allreduce_sum(x);
               }),
               linalg::AbftError);
  EXPECT_EQ(obs::flight_dump_count(), dumps_before + 1);
  EXPECT_NE(dump().find("\"kind\": \"AbftError\""), std::string::npos);

  parallel::FaultPlan plan;
  parallel::FaultEvent kill;
  kill.kind = parallel::FaultKind::Kill;
  kill.rank = 1;
  kill.collective = 2;
  plan.add(kill);
  parallel::FaultInjector injector(plan);

  parallel::Cluster cluster(2, 2);
  cluster.set_fault_injector(&injector);
  EXPECT_THROW(cluster.run([](parallel::Communicator& c) {
                 const ScopedThreadRank tag(static_cast<int>(c.rank()));
                 std::vector<double> x(8, 1.0);
                 for (int i = 0; i < 6; ++i) c.allreduce_sum(x);
               }),
               parallel::RankFailure);

  EXPECT_EQ(obs::flight_dump_count(), dumps_before + 2);
  ASSERT_TRUE(std::filesystem::exists(kDumpFile));
  const std::string json = dump();
  EXPECT_NE(json.find("\"kind\": \"RankFailure\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  ::unsetenv("AEQP_FLIGHT_FILE");
}

TEST_F(MemObsTest, FlightDisabledDumpsNothing) {
  ASSERT_FALSE(obs::flight_enabled());
  const std::uint64_t dumps_before = obs::flight_dump_count();
  obs::flight_metric("test/never_recorded", 1.0);
  obs::flight_on_error("RankFailure", "synthetic error with recorder off");
  EXPECT_EQ(obs::flight_dump_count(), dumps_before);

  // With tracing and the recorder off, a fresh thread recording spans,
  // instants and metric deltas must not register a ring.
  const std::size_t lanes_before = obs::flight_lane_count();
  std::thread([] {
    for (int i = 0; i < 1000; ++i) {
      AEQP_TRACE_SCOPE("never/recorded");
    }
    obs::trace_instant("never/instant");
    obs::flight_metric("test/never_recorded", 1.0);
  }).join();
  EXPECT_EQ(obs::flight_lane_count(), lanes_before);
}

TEST_F(MemObsTest, FlightRingCapturesMetricDeltas) {
  obs::set_flight(true);
  obs::reset_flight();
  obs::flight_metric("test/delta", 3.5);
  obs::flight_metric("test/delta", 1.5);
  double total = 0.0;
  std::size_t metric_events = 0;
  for (const auto& e : obs::flight_events()) {
    if (e.kind != obs::FlightKind::Metric) continue;
    if (std::string(e.name) == "test/delta") {
      ++metric_events;
      total += e.value;
    }
  }
  EXPECT_EQ(metric_events, 2u);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

// ---------------------------------------------------------------------------
// Memory-audit gauge semantics

TEST_F(MemObsTest, MemScopeReleasesOnDestructionAndMove) {
  obs::set_memaudit(true);
  obs::reset_mem_gauges();
  obs::MemGauge& g = obs::mem_gauge("memobs_test/scope");
  {
    obs::MemScope outer("memobs_test/scope");
    outer.add(1000);
    {
      obs::MemScope inner("memobs_test/scope");
      inner.add(500);
      EXPECT_EQ(g.current(), 1500);
      obs::MemScope stolen(std::move(inner));
      EXPECT_EQ(g.current(), 1500);  // ownership moved, nothing released
    }                                // stolen releases inner's 500
    EXPECT_EQ(g.current(), 1000);
    outer.release();
    EXPECT_EQ(g.current(), 0);
    outer.release();  // idempotent
    EXPECT_EQ(g.current(), 0);
  }
  EXPECT_EQ(g.peak(), 1500);
}

TEST_F(MemObsTest, MemScopeIsInertWhenAuditOff) {
  ASSERT_FALSE(obs::memaudit_enabled());
  const std::size_t before = obs::registered_gauge_count();
  obs::MemScope scope("memobs_test/never_registered");
  scope.add(1 << 20);
  EXPECT_EQ(scope.held(), 0);
  EXPECT_EQ(obs::registered_gauge_count(), before);
}

TEST_F(MemObsTest, MemSnapshotFoldsIntoMetricsRegistry) {
  obs::set_memaudit(true);
  obs::reset_mem_gauges();
  obs::mem_track("memobs_test/registry", 4096);
  bool current_seen = false, peak_seen = false;
  for (const auto& m : obs::metrics_snapshot()) {
    if (m.name == "mem/memobs_test/registry/current_bytes") {
      current_seen = true;
      EXPECT_EQ(m.value, 4096.0);
    }
    if (m.name == "mem/memobs_test/registry/peak_bytes") {
      peak_seen = true;
      EXPECT_EQ(m.value, 4096.0);
    }
  }
  EXPECT_TRUE(current_seen);
  EXPECT_TRUE(peak_seen);
}

// ---------------------------------------------------------------------------
// Scaling-exponent fit (feeds BENCH_memory.json)

TEST_F(MemObsTest, FitScalingExponentRecoversExactPowerLaws) {
  const std::vector<double> n = {100, 200, 400, 800};
  std::vector<double> linear, quadratic, flat;
  for (double v : n) {
    linear.push_back(64.0 * v);
    quadratic.push_back(8.0 * v * v);
    flat.push_back(123456.0);
  }
  EXPECT_NEAR(obs::fit_scaling_exponent(n, linear), 1.0, 1e-9);
  EXPECT_NEAR(obs::fit_scaling_exponent(n, quadratic), 2.0, 1e-9);
  EXPECT_NEAR(obs::fit_scaling_exponent(n, flat), 0.0, 1e-9);
}

TEST_F(MemObsTest, FitScalingExponentRejectsDegenerateInput) {
  const std::vector<double> one_n = {100.0};
  const std::vector<double> one_b = {6400.0};
  EXPECT_EQ(obs::fit_scaling_exponent(one_n, one_b), 0.0);
  // Non-positive samples are skipped; with fewer than two valid points the
  // fit declines rather than extrapolating.
  const std::vector<double> n = {0.0, 100.0, 200.0};
  const std::vector<double> b = {512.0, 6400.0, 0.0};
  EXPECT_EQ(obs::fit_scaling_exponent(n, b), 0.0);
}

}  // namespace
