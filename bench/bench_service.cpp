// Synthetic traffic generator for the multi-tenant solve service: a seeded
// mix of good, poisoned, oversized, malformed, and hopeless-deadline jobs
// submitted in bursts against a small SolveServer while a chaos plan kills
// and corrupts simmpi ranks inside the parallel jobs. The point is the
// headline robustness contract measured end to end: the server survives the
// whole mix with every admitted job terminal, and the table/JSON report the
// service-level numbers (jobs/sec, p50/p99 latency, shed rate, degradation
// counts, cache effectiveness) that docs/service.md quotes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_output.hpp"
#include "common/table.hpp"
#include "grid/structure.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/fault.hpp"
#include "service/server.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using Clock = std::chrono::steady_clock;

/// H2 with a tweakable bond length: distinct `stretch` values are distinct
/// cache keys, repeats are warm-cache hits.
grid::Structure h2(double stretch = 0.0) {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7 - stretch});
  s.add_atom(1, {0, 0, 0.7 + stretch});
  return s;
}

scf::ScfOptions light_scf() {
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 36;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  opt.mixer = scf::Mixer::Diis;
  return opt;
}

service::JobSpec good_job(double stretch) {
  service::JobSpec spec;
  spec.structure = h2(stretch);
  spec.scf = light_scf();
  spec.dfpt.tolerance = 1e-6;
  spec.deadline = std::chrono::milliseconds(120000);
  return spec;
}

struct TrafficReport {
  std::size_t submitted = 0;
  std::size_t shed = 0;             ///< QueueFull at submission
  std::size_t rejected = 0;         ///< JobRejected at submission
  std::vector<service::JobOutcome> outcomes;
  double wall_seconds = 0.0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

void traffic_run() {
  const auto dir = std::filesystem::temp_directory_path() / "aeqp_bench_service";
  std::filesystem::remove_all(dir);

  service::ServerOptions sopt;
  sopt.workers = 2;
  sopt.queue_capacity = 4;  // small on purpose: the burst must shed
  sopt.max_atoms = 8;
  sopt.checkpoint_dir = dir;
  sopt.recovery.max_retries = 3;
  service::SolveServer server(sopt);
  const auto server_metrics = service::register_metrics(server);
  const auto cache_metrics = service::register_metrics(server.cache());

  // Seeded chaos for the parallel jobs: random payload corruption plus one
  // permanent rank kill (original-world rank ids, reproducible by seed).
  parallel::FaultPlan chaos = parallel::FaultPlan::random(
      /*seed=*/42, /*n_events=*/2, /*n_ranks=*/4, /*first_collective=*/10,
      /*last_collective=*/60, {parallel::FaultKind::BitFlip,
                               parallel::FaultKind::NanPayload},
      /*permanent_kills=*/1);
  parallel::FaultEvent stall;
  stall.kind = parallel::FaultKind::Stall;
  stall.rank = 1;
  stall.collective = 20;
  stall.stall_ms = 20;
  stall.repeat = 3;
  chaos.add(stall);
  parallel::FaultInjector injector(std::move(chaos));

  TrafficReport rep;
  std::vector<std::uint64_t> ids;
  const auto submit = [&](service::JobSpec spec) {
    ++rep.submitted;
    try {
      ids.push_back(server.submit(std::move(spec)));
    } catch (const QueueFull&) {
      ++rep.shed;  // backpressure: the client is told to come back later
    } catch (const JobRejected&) {
      ++rep.rejected;  // the job itself is unservable
    }
  };
  // A well-behaved client: honors the QueueFull backpressure signal by
  // backing off and resubmitting (sheds still counted).
  const auto submit_retry = [&](const service::JobSpec& spec) {
    ++rep.submitted;
    for (;;) {
      try {
        ids.push_back(server.submit(spec));
        return;
      } catch (const QueueFull&) {
        ++rep.shed;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      } catch (const JobRejected&) {
        ++rep.rejected;
        return;
      }
    }
  };

  const auto t0 = Clock::now();

  // Burst 1: eight good serial jobs over four geometries -- repeats become
  // warm-cache hits; the burst overruns the queue so some submissions shed.
  for (int k = 0; k < 8; ++k) submit(good_job(0.01 * (k % 4)));

  // Poisoned inputs: NaN coordinate, oversized structure, bad direction --
  // all must bounce at admission, before they can reach a worker.
  {
    service::JobSpec nan_job = good_job(0.0);
    nan_job.structure = grid::Structure();
    nan_job.structure.add_atom(1, {0, 0, std::numeric_limits<double>::quiet_NaN()});
    nan_job.structure.add_atom(1, {0, 0, 0.7});
    submit(std::move(nan_job));

    service::JobSpec oversized = good_job(0.0);
    oversized.structure = grid::Structure();
    for (int k = 0; k < 9; ++k)
      oversized.structure.add_atom(1, {0, 0, 1.5 * k});
    submit(std::move(oversized));

    service::JobSpec bad_dir = good_job(0.0);
    bad_dir.direction = 7;
    submit(std::move(bad_dir));
  }

  // Let the queue drain before the chaos burst so the parallel jobs are
  // admitted rather than shed.
  std::vector<service::JobOutcome> first;
  for (const auto id : ids) first.push_back(server.wait(id));
  ids.clear();

  // Hopeless deadline: admitted (the queue is empty now), then expires --
  // terminal DeadlineExpired, never a wedged queue entry.
  {
    service::JobSpec tight = good_job(0.02);
    tight.deadline = std::chrono::milliseconds(1);
    submit_retry(tight);
  }

  // Burst 2: two parallel jobs under the seeded chaos plan (kill + flips +
  // stall). The recovery ladder and, if it exhausts, the degradation ladder
  // must still terminate them.
  for (int k = 0; k < 2; ++k) {
    service::JobSpec chaotic = good_job(0.03 + 0.01 * k);
    chaotic.ranks = 4;
    chaotic.ranks_per_node = 4;
    chaotic.fault_injector = &injector;
    submit_retry(chaotic);
  }

  // Cache-poisoning probe: corrupt the cached density of a known geometry,
  // then request the same geometry under different SCF options -- the
  // ground tier misses, the poisoned density entry must be detected by its
  // CRC, dropped, and recomputed (never served).
  {
    const std::uint64_t s_hash = service::structure_hash(h2(0.01));
    server.cache().corrupt_density_for_test(s_hash);
    service::JobSpec probe = good_job(0.01);
    probe.scf.mixing = 0.30;  // different options: new ground-tier key
    submit_retry(probe);

    // And the healthy counterpart: same geometry as a finished good job but
    // new options -- ground tier misses, the intact cached density seeds a
    // warm start.
    service::JobSpec warm = good_job(0.0);
    warm.scf.mixing = 0.30;
    submit_retry(warm);
  }

  for (const auto id : ids) first.push_back(server.wait(id));
  rep.outcomes = std::move(first);
  rep.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  // --- Report ---
  std::size_t succeeded = 0, failed = 0, deadline = 0, degradations = 0;
  std::size_t ground_hits = 0, warm_starts = 0, retries = 0;
  std::vector<double> latencies;
  for (const auto& out : rep.outcomes) {
    succeeded += out.state == service::JobState::Succeeded ? 1 : 0;
    failed += out.state == service::JobState::Failed ? 1 : 0;
    deadline += out.state == service::JobState::DeadlineExpired ? 1 : 0;
    degradations += static_cast<std::size_t>(out.degradations);
    ground_hits += out.ground_cache_hit ? 1 : 0;
    warm_starts += out.density_warm_start ? 1 : 0;
    retries += out.recovery.retries;
    latencies.push_back(out.queue_seconds + out.run_seconds);
  }
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double jobs_per_sec =
      rep.wall_seconds > 0.0
          ? static_cast<double>(rep.outcomes.size()) / rep.wall_seconds
          : 0.0;
  const double shed_rate =
      rep.submitted > 0
          ? static_cast<double>(rep.shed) / static_cast<double>(rep.submitted)
          : 0.0;
  const auto cache = server.cache().stats();
  const auto sstats = server.stats();

  Table t({"submitted", "shed", "rejected", "succeeded", "failed",
           "deadline", "degradations", "jobs/s", "p50 (s)", "p99 (s)"});
  t.add_row({std::to_string(rep.submitted), std::to_string(rep.shed),
             std::to_string(rep.rejected), std::to_string(succeeded),
             std::to_string(failed), std::to_string(deadline),
             std::to_string(degradations), Table::num(jobs_per_sec, 2),
             Table::num(p50, 2), Table::num(p99, 2)});
  t.print("Solve-service traffic mix under seeded chaos (kill + corruption "
          "+ stall + poisoned inputs): every admitted job terminal");

  Table c({"ground hits", "density warm starts", "poisoned dropped",
           "evictions", "recovery retries", "queue-full sheds"});
  c.add_row({std::to_string(cache.ground_hits),
             std::to_string(cache.density_hits),
             std::to_string(cache.poisoned_dropped),
             std::to_string(cache.evictions), std::to_string(retries),
             std::to_string(sstats.rejected_queue_full)});
  c.print("Warm-state cache and recovery during the run (the corrupted "
          "density entry was CRC-detected and dropped, never served)");

  std::string path;
  if (std::FILE* f = benchio::open_bench("BENCH_service.json", &path)) {
    benchio::write_envelope(f, "solve_service_traffic");
    std::fprintf(
        f,
        "  \"submitted\": %zu,\n  \"admitted\": %zu,\n"
        "  \"shed_queue_full\": %zu,\n  \"rejected_invalid\": %zu,\n"
        "  \"completed\": %zu,\n  \"succeeded\": %zu,\n  \"failed\": %zu,\n"
        "  \"deadline_expired\": %zu,\n  \"degradations\": %zu,\n"
        "  \"shed_rate\": %.4f,\n  \"jobs_per_second\": %.4f,\n"
        "  \"p50_latency_seconds\": %.4f,\n  \"p99_latency_seconds\": %.4f,\n"
        "  \"cache_ground_hits\": %zu,\n  \"cache_density_hits\": %zu,\n"
        "  \"cache_poisoned_dropped\": %zu,\n  \"cache_evictions\": %zu,\n"
        "  \"recovery_retries\": %zu,\n  \"ground_cache_hit_jobs\": %zu,\n"
        "  \"density_warm_start_jobs\": %zu,\n"
        "  \"wall_seconds\": %.4f\n}\n",
        rep.submitted, sstats.admitted, rep.shed, rep.rejected,
        sstats.completed, succeeded, failed, deadline, degradations,
        shed_rate, jobs_per_sec, p50, p99, cache.ground_hits,
        cache.density_hits, cache.poisoned_dropped, cache.evictions, retries,
        ground_hits, warm_starts, rep.wall_seconds);
    std::fclose(f);
    std::printf("Wrote %s\n", path.c_str());
  }
}

/// Steady-state serviced solve on a warm cache: the ground state is served
/// from the ground tier, so the measured cost is CPSCF + service overhead.
void BM_ServicedSolveWarm(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "aeqp_bench_service_warm";
  std::filesystem::remove_all(dir);
  service::ServerOptions sopt;
  sopt.workers = 1;
  sopt.queue_capacity = 2;
  sopt.checkpoint_dir = dir;
  service::SolveServer server(sopt);
  // Prime the cache.
  {
    const auto id = server.submit(good_job(0.0));
    const auto out = server.wait(id);
    if (out.state != service::JobState::Succeeded) {
      state.SkipWithError("priming job failed");
      return;
    }
  }
  for (auto _ : state) {
    const auto id = server.submit(good_job(0.0));
    auto out = server.wait(id);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ServicedSolveWarm)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (aeqp::obs::mode() == aeqp::obs::TraceMode::Off)
    aeqp::obs::set_mode(aeqp::obs::TraceMode::Summary);
  traffic_run();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
