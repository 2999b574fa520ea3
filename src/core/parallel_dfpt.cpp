#include "core/parallel_dfpt.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "common/timer.hpp"
#include "core/cpscf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "poisson/multipole.hpp"
#include "tune/tune.hpp"

namespace aeqp::core {

using linalg::Matrix;

ParallelDfptResult solve_direction_parallel(const scf::ScfResult& ground,
                                            const ParallelDfptOptions& options,
                                            int direction) {
  AEQP_CHECK(direction >= 0 && direction < 3,
             "solve_direction_parallel: direction must be 0..2");
  const detail::CpscfGround inputs(ground, options.dfpt.screening_threshold);
  const auto& grid = *ground.grid;
  const auto& hartree = *ground.hartree;

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
      grid::make_batches(grid, tune::grid_batch_points(options.batch_points));
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

  // Current-world speed weights (1.0 = healthy); reused by the weighted
  // Rho-producer row split when distribute_rho is on.
  std::vector<double> world_weights(n_active, 1.0);
  if (!options.rank_speed_weights.empty()) {
    // Straggler rebalance rung: re-home batches around the measured rank
    // speeds. Weights are original-world indexed; translate to the running
    // world's slots (identity when no shrink happened). Every rank computes
    // the same deterministic mapping, so results stay bit-identical to a
    // run that started from this assignment.
    AEQP_CHECK(options.rank_speed_weights.size() == options.ranks,
               "solve_direction_parallel: rank_speed_weights must cover the "
               "original world");
    std::size_t n_slow = 0;
    for (std::size_t s = 0; s < n_active; ++s) {
      world_weights[s] =
          options.rank_speed_weights[active.empty() ? s : active[s]];
      if (world_weights[s] < 1.0) ++n_slow;
    }
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

  // Weighted contiguous row ranges of the Poisson producer (empty = the
  // replicated producer). Shares are proportional to the measured speed
  // weights -- an 8x-slow rank projects ~1/8 as many rho_multipole rows --
  // and every rank derives the identical split, so the packed synthesis
  // below sums disjoint contributions in a fixed order.
  std::vector<std::size_t> rho_row_begin;
  if (options.distribute_rho && n_active > 1) {
    const std::size_t nrows = hartree.projection_row_count();
    rho_row_begin.assign(n_active + 1, 0);
    double wsum = 0.0;
    for (double wv : world_weights) wsum += wv;
    double acc = 0.0;
    for (std::size_t s = 0; s + 1 < n_active; ++s) {
      acc += world_weights[s];
      rho_row_begin[s + 1] = std::max(
          rho_row_begin[s],
          static_cast<std::size_t>(std::llround(
              static_cast<double>(nrows) * acc / wsum)));
    }
    rho_row_begin[n_active] = nrows;
    for (std::size_t s = 0; s < n_active; ++s)
      rho_row_begin[s + 1] = std::max(rho_row_begin[s + 1], rho_row_begin[s]);
  }

  detail::CpscfRun run(inputs, options, direction);
  run.rho_row_begin = std::move(rho_row_begin);

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
  // The constructor already armed adaptive deadlines when the env gate is
  // on (adaptive_deadlines == -1 keeps that); 0/1 force the state.
  if (options.adaptive_deadlines == 0)
    cluster.set_adaptive_deadlines(false);
  else if (options.adaptive_deadlines == 1 ||
           (cluster.adaptive_deadlines() && options.adaptive_floor_ms > 0.0))
    cluster.set_adaptive_deadlines(true, options.adaptive_floor_ms);
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
