#include "core/parallel_dfpt.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "common/timer.hpp"
#include "core/cpscf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"

namespace aeqp::core {

using linalg::Matrix;

RecoveryStats& RecoveryStats::operator+=(const RecoveryStats& o) {
  faults_detected += o.faults_detected;
  restores += o.restores;
  retries += o.retries;
  wasted_iterations += o.wasted_iterations;
  shrinks += o.shrinks;
  lost_ranks += o.lost_ranks;
  buddy_restores += o.buddy_restores;
  remap_seconds += o.remap_seconds;
  abft_corrections += o.abft_corrections;
  invariant_violations += o.invariant_violations;
  payload_corruptions += o.payload_corruptions;
  oom_events += o.oom_events;
  relief_actions += o.relief_actions;
  rebalances += o.rebalances;
  degraded_ranks = std::max(degraded_ranks, o.degraded_ranks);
  return *this;
}

ParallelDfptResult solve_direction_parallel(const scf::ScfResult& ground,
                                            const ParallelDfptOptions& options,
                                            int direction) {
  AEQP_CHECK(direction >= 0 && direction < 3,
             "solve_direction_parallel: direction must be 0..2");
  const detail::CpscfGround inputs(ground, options.dfpt.screening_threshold);
  const auto& grid = *ground.grid;

  // Elastic world: a non-empty active_ranks list re-enters the solver at a
  // reduced world size after permanent rank loss. n_active is the world the
  // run executes on; options.ranks stays the original world fault plans and
  // the initial mapping are expressed in.
  const std::vector<std::size_t>& active = options.active_ranks;
  const std::size_t n_active = active.empty() ? options.ranks : active.size();
  for (std::size_t s = 0; s < active.size(); ++s) {
    AEQP_CHECK(active[s] < options.ranks,
               "solve_direction_parallel: active rank out of range");
    AEQP_CHECK(s == 0 || active[s - 1] < active[s],
               "solve_direction_parallel: active_ranks must be strictly "
               "increasing");
  }
  // One SimtRuntime cannot take concurrent launches, and the kernels read
  // cached tiles.
  AEQP_CHECK(!options.dfpt.device || (n_active == 1 && options.cache_point_evals),
             "solve_direction_parallel: DfptOptions::device needs a one-rank "
             "world with the tile cache");

  // Shared, read-only setup: batches and their locality mapping.
  const auto batches =
      grid::make_batches(grid, options.batch_points);
  AEQP_CHECK(batches.size() >= options.ranks,
             "solve_direction_parallel: more ranks than batches");
  auto assignment = mapping::locality_enhancing_mapping(batches, options.ranks);
  ParallelDfptResult out;
  if (n_active < options.ranks) {
    // Survivor re-mapping: re-home the dead ranks' batches with the same
    // locality objective, keeping the survivors' own batches in place.
    Timer remap_timer;
    auto remap = mapping::remap_for_survivors(assignment, batches, active);
    out.stats.remap_seconds = remap_timer.seconds();
    out.stats.remap_batches_moved = remap.moved_batches;
    assignment = std::move(remap.assignment);
    obs::trace_instant("elastic/remap");
  }
  out.stats.survivor_ranks = n_active;
  out.stats.lost_ranks = options.ranks - n_active;

  if (!options.rank_speed_weights.empty()) {
    // Straggler rebalance rung: re-home batches around the measured rank
    // speeds, read in the running world's slots (identity when no shrink
    // happened). Every rank computes the same deterministic mapping, so
    // results stay bit-identical to a run that started from this
    // assignment. The CPSCF run splits the Rho rows by the same weights.
    AEQP_CHECK(options.rank_speed_weights.size() == options.ranks,
               "solve_direction_parallel: rank_speed_weights must cover the "
               "original world");
    const std::vector<double> world_weights = detail::world_speed_weights(options);
    std::size_t n_slow = 0;
    for (const double w : world_weights)
      if (w < 1.0) ++n_slow;
    Timer rebalance_timer;
    auto rebalance =
        mapping::rebalance_for_slow_ranks(assignment, batches, world_weights);
    out.stats.rebalance_seconds = rebalance_timer.seconds();
    out.stats.rebalance_batches_moved = rebalance.moved_batches;
    out.stats.rebalances = 1;
    out.stats.degraded_ranks = n_slow;
    assignment = std::move(rebalance.assignment);
    obs::trace_instant("mapping/rebalance");
  }

  detail::CpscfRun run(inputs, options, direction);

  out.stats.batches = batches.size();
  std::size_t total_pts = 0, max_pts = 0;
  for (std::size_t r = 0; r < n_active; ++r) {
    const std::size_t pts = assignment.points_of_rank(r, batches);
    total_pts += pts;
    max_pts = std::max(max_pts, pts);
  }
  out.stats.max_rank_points_share =
      static_cast<double>(max_pts) * n_active / static_cast<double>(total_pts);

  parallel::Cluster cluster(n_active, options.ranks_per_node,
                            std::vector<std::size_t>(active));
  cluster.set_collective_timeout(
      std::chrono::milliseconds(options.collective_timeout_ms));
  cluster.set_fault_injector(options.fault_injector);
  cluster.set_verify_payloads(options.verify_collectives);
  cluster.set_straggler_detector(options.straggler_detector);
  cluster.set_adaptive_deadlines(options.adaptive_deadlines);
  cluster.run([&](parallel::Communicator& comm) {
    // Tag this rank thread: the log sink prefixes its lines, the trace
    // exporter gives it its own lane, and fault plans address it.
    const ScopedThreadRank rank_tag(static_cast<int>(comm.rank()));
    AEQP_TRACE_SCOPE("cpscf/parallel_direction");
    const detail::RankTiles tiles(*ground.basis, grid, batches,
                                  assignment.batches_of_rank[comm.rank()],
                                  options.cache_point_evals);
    detail::run_cpscf_rank(comm, run, tiles);
  });

  out.direction = run.finish(
      "solve_direction_parallel", " (" + std::to_string(n_active) + " of " +
                                      std::to_string(options.ranks) + " ranks)");
  out.stats.collectives = run.collectives;
  out.stats.rows_reduced = run.rows;
  return out;
}

obs::ScopedMetricsSource register_metrics(const ParallelDfptStats& stats,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&stats, prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const auto push = [&](const char* name, double v) {
          out.push_back({prefix + "/" + name, v});
        };
        push("collectives", static_cast<double>(stats.collectives));
        push("rows_reduced", static_cast<double>(stats.rows_reduced));
        push("batches", static_cast<double>(stats.batches));
        push("max_rank_points_share", stats.max_rank_points_share);
        push("faults_detected", static_cast<double>(stats.faults_detected));
        push("restores", static_cast<double>(stats.restores));
        push("retries", static_cast<double>(stats.retries));
        push("wasted_iterations", static_cast<double>(stats.wasted_iterations));
        push("survivor_ranks", static_cast<double>(stats.survivor_ranks));
        push("lost_ranks", static_cast<double>(stats.lost_ranks));
        push("remap_batches_moved",
             static_cast<double>(stats.remap_batches_moved));
        push("remap_seconds", stats.remap_seconds);
        push("rebalances", static_cast<double>(stats.rebalances));
        push("rebalance_batches_moved",
             static_cast<double>(stats.rebalance_batches_moved));
        push("rebalance_seconds", stats.rebalance_seconds);
        push("degraded_ranks", static_cast<double>(stats.degraded_ranks));
        push("shrinks", static_cast<double>(stats.shrinks));
        push("buddy_restores", static_cast<double>(stats.buddy_restores));
        push("abft_corrections", static_cast<double>(stats.abft_corrections));
        push("invariant_violations",
             static_cast<double>(stats.invariant_violations));
        push("payload_corruptions",
             static_cast<double>(stats.payload_corruptions));
      });
}

}  // namespace aeqp::core
