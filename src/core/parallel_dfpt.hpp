#pragma once

/// \file parallel_dfpt.hpp
/// Distributed DFPT on the simulated MPI runtime -- the paper's parallel
/// decomposition executed for real at laptop scale.
///
/// Division of labour per CPSCF iteration (paper Secs. 3-4), in the one
/// CPSCF body every rank runs (core/cpscf.hpp):
///  - The grid-heavy phases (Sumup: n^(1) on grid points; H: response-
///    Hamiltonian integrals) are distributed over ranks by the
///    locality-enhancing batch mapping; each rank contracts the grid tiles
///    of its batches (scf/tiles.hpp) and partial H^(1) contributions are
///    synthesized with a packed (optionally hierarchical) AllReduce.
///  - The Poisson producer's multipole projection is distributed too: each
///    rank projects a contiguous share of the (atom, radial shell) rows,
///    sized by its speed weight, and the partial rho_multipole channels are
///    summed with the same packed AllReduce (the paper's rho_multipole
///    reduction). Every row is computed by exactly one rank and x + 0 is
///    exact, so the sum equals a one-rank projection bit for bit. The
///    spline fit and the radial solves run on every rank.
///  - The Sternheimer update and P^(1) assembly are replicated (identical
///    inputs -> identical outputs on every rank).
///
/// Determinism contract (asserted by the test suite): a run is bit-for-bit
/// reproducible from run to run (collective sums add rank contributions in
/// rank order); one rank at the default batch size equals the serial
/// DfptSolver bit for bit (both run the same body over the same tiles);
/// other rank counts, batch sizes and mappings regroup the H^(1) sums and
/// agree with the serial reference within the tested 1e-8.

#include <string>

#include "comm/packed.hpp"
#include "core/dfpt.hpp"
#include "grid/batch.hpp"
#include "mapping/task_mapping.hpp"
#include "obs/metrics.hpp"
#include "tune/tune.hpp"

namespace aeqp::core {

/// Parallel-run configuration.
struct ParallelDfptOptions {
  /// Convergence, mixing, frequency and device settings, as in DfptSolver;
  /// a non-null `dfpt.device` needs a one-rank world and the tile cache.
  DfptOptions dfpt;
  std::size_t ranks = 4;            ///< simulated MPI ranks
  std::size_t ranks_per_node = 2;   ///< SHM node width
  /// Cut-plane batch size; the default is the tiling the integrator (and
  /// so the serial solver) uses.
  std::size_t batch_points = tune::kGridBatchPoints;
  /// Packed-AllReduce staging window in bytes. Packing regroups rows
  /// without reordering the reduction, so the window never changes results.
  std::size_t pack_bytes = tune::kPackWindowBytes;
  comm::ReduceMode reduce_mode = comm::ReduceMode::Hierarchical;
  /// Keep the per-rank grid-tile cache resident (default). The
  /// memory-budget relief ladder clears this to rebuild each tile's basis
  /// values on the fly: slower, bit-identical (same tile builder, same
  /// accumulation order), and it sheds the O(points/rank)
  /// "dfpt/point_cache" structure when the AEQP_MEM_BUDGET ceiling is
  /// under pressure.
  bool cache_point_evals = true;
  /// Optional fault injection replayed by the simmpi runtime (must outlive
  /// the call); null = fault-free run.
  parallel::FaultInjector* fault_injector = nullptr;
  /// Collective deadline handed to the cluster; a rank stalled past it
  /// surfaces as CollectiveTimeout on the surviving ranks.
  std::size_t collective_timeout_ms = 120000;
  /// Arm adaptive per-collective-class deadlines
  /// (parallel::DeadlineEstimator, at its default floor). The fixed
  /// collective_timeout_ms stays the ceiling -- the smaller deadline wins.
  bool adaptive_deadlines = false;
  /// Optional straggler detector fed by the runtime with per-rank work
  /// intervals (must outlive the call); the lead rank closes a window after
  /// each packed flush. null = no arrival-lag ledger and a bit-identical
  /// collective schedule to the un-instrumented baseline.
  parallel::StragglerDetector* straggler_detector = nullptr;
  /// Measured per-rank speed weights, ORIGINAL-world indexed (size
  /// `ranks`); non-empty = re-home batches with
  /// mapping::rebalance_for_slow_ranks and size the Rho producer's row
  /// shares by the same weights, so slow ranks carry proportionally less
  /// grid and projection work. World size and rank numbering are
  /// unchanged -- this is the recovery ladder's rebalance rung, fired
  /// before any shrink. Empty = keep the locality mapping and equal shares.
  std::vector<double> rank_speed_weights;
  /// CRC-verify every collective payload (Cluster::set_verify_payloads) and
  /// run the packed AllReduces with a linear checksum element, so
  /// in-flight corruption surfaces as parallel::PayloadCorruption at the
  /// collective instead of as eventual CPSCF divergence.
  bool verify_collectives = false;
  /// Elastic world (shrink-and-continue re-entry): when non-empty, the run
  /// executes on these survivor ranks only -- ids in the ORIGINAL
  /// [0, ranks) world, strictly increasing. The grid batches of the lost
  /// ranks are re-homed onto the survivors by mapping::remap_for_survivors
  /// (same locality objective as the initial mapping), and fault-plan
  /// events keep addressing original ids through the cluster's origin map.
  /// Empty = full world.
  std::vector<std::size_t> active_ranks;
  /// Optional hook run on EVERY rank after each iteration's observer
  /// broadcast, with communicator access -- the entry point elastic
  /// recovery uses to buddy-replicate per-rank checkpoints through the
  /// collective layer. Must follow the collective discipline (all ranks
  /// call the same collectives in the same order).
  std::function<void(parallel::Communicator&, const CpscfIterationState&)>
      rank_hook;
};

/// What fault recovery cost (resilience::RecoveryDriver counts it; the
/// name is also resilience::RecoveryStats). Zero for bare runs, except the
/// four fields the solver measures on every run: lost_ranks,
/// remap_seconds, rebalances and degraded_ranks.
struct RecoveryStats {
  std::size_t faults_detected = 0;   ///< health violations + rank failures
  std::size_t restores = 0;          ///< checkpoint restorations
  std::size_t retries = 0;           ///< solver re-executions
  std::size_t wasted_iterations = 0; ///< iterations lost to rollbacks
  std::size_t shrinks = 0;           ///< world-shrink escalations
  std::size_t lost_ranks = 0;        ///< original ranks excluded from the world
  std::size_t buddy_restores = 0;    ///< restores served from a buddy replica
  double remap_seconds = 0.0;        ///< survivor re-mapping wall time
  // Silent-data-corruption rungs (docs/sdc.md). ABFT corrections are healed
  // in place and never reach the rollback path; the other two escalate.
  std::size_t abft_corrections = 0;     ///< matmul elements fixed in place
  std::size_t invariant_violations = 0; ///< physics guards tripped
  std::size_t payload_corruptions = 0;  ///< CRC/checksum collective failures
  // Memory-budget governor rungs (docs/resilience.md "Memory budget").
  std::size_t oom_events = 0;     ///< OutOfMemoryBudget faults caught
  std::size_t relief_actions = 0; ///< pressure-relief rungs applied
  // Straggler-defense rung (docs/resilience.md "Straggler defense").
  std::size_t rebalances = 0;     ///< weighted re-mappings around slow ranks
  std::size_t degraded_ranks = 0; ///< peak ranks rebalanced around

  /// Combine the counters of another run (a job's successive attempts):
  /// every field sums, except degraded_ranks, a peak, which takes the max.
  RecoveryStats& operator+=(const RecoveryStats& o);
};
// A new field changes the size: cover it in operator+= and update this.
static_assert(sizeof(RecoveryStats) == 14 * sizeof(std::size_t) + sizeof(double),
              "RecoveryStats changed: cover the new field in operator+=");

/// Statistics of one distributed run: the recovery counters plus what the
/// solver measures of its world and its collectives.
struct ParallelDfptStats : RecoveryStats {
  /// Packed AllReduce invocations: the H^(1) and rho_multipole syntheses.
  std::size_t collectives = 0;
  /// Rows synthesized: H^(1) matrix rows plus rho_multipole (atom, l, m)
  /// channels.
  std::size_t rows_reduced = 0;
  std::size_t batches = 0;          ///< total grid batches
  double max_rank_points_share = 0; ///< load balance: max/mean points
  std::size_t survivor_ranks = 0;   ///< ranks the run actually executed on
  std::size_t remap_batches_moved = 0;     ///< orphaned batches re-homed
  std::size_t rebalance_batches_moved = 0; ///< batches moved off slow ranks
  double rebalance_seconds = 0.0;          ///< wall time of weighted re-mapping
};

/// Result plus run statistics.
struct ParallelDfptResult {
  DfptDirectionResult direction;
  ParallelDfptStats stats;
};

/// Solve one perturbation direction with the grid phases distributed over a
/// simulated cluster. `ground` must be a converged ScfResult.
ParallelDfptResult solve_direction_parallel(const scf::ScfResult& ground,
                                            const ParallelDfptOptions& options,
                                            int direction);

/// Register `stats` as an obs metrics source; sample names are
/// "<prefix>/collectives", "<prefix>/rows_reduced", ... `stats` must
/// outlive the returned registration.
[[nodiscard]] obs::ScopedMetricsSource register_metrics(
    const ParallelDfptStats& stats, std::string prefix = "cpscf");

}  // namespace aeqp::core
