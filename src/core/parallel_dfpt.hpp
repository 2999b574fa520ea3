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
///  - The Poisson producer (multipole projection + radial solves) is
///    replicated on every rank by default, "trading redundant calculations
///    for communication avoidance" exactly as the paper's producer kernels
///    do. With `distribute_rho` the projection rows are split across ranks
///    (weighted by measured rank speeds) and synthesized with a packed
///    rho_multipole AllReduce -- bit-identical output, used by the
///    straggler-rebalance rung so a slow rank sheds producer work too.
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

namespace aeqp::core {

/// Parallel-run configuration.
struct ParallelDfptOptions {
  /// Convergence, mixing, frequency and device settings, as in DfptSolver;
  /// a non-null `dfpt.device` needs a one-rank world and the tile cache.
  DfptOptions dfpt;
  std::size_t ranks = 4;            ///< simulated MPI ranks
  std::size_t ranks_per_node = 2;   ///< SHM node width
  /// Cut-plane batch size; 0 = the tuned value (default 128), the tiling
  /// the integrator (and so the serial solver) uses.
  std::size_t batch_points = 0;
  /// Packed-AllReduce staging window in bytes; 0 = the tuned value
  /// (default comm::kDefaultPackBytes). Packing regroups rows without
  /// reordering the reduction, so the window never changes results.
  std::size_t pack_bytes = 0;
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
  /// Adaptive per-collective-class deadlines (parallel::DeadlineEstimator):
  /// -1 = follow the AEQP_ADAPTIVE_TIMEOUT env gate (default), 0 = force
  /// off, 1 = force on. The fixed collective_timeout_ms stays the ceiling
  /// either way -- the smaller deadline always wins.
  int adaptive_deadlines = -1;
  /// Optional floor override (ms) for the adaptive deadline; 0 = estimator
  /// default. Tests drop it so an injected straggler times out in tens of
  /// milliseconds instead of seconds.
  double adaptive_floor_ms = 0.0;
  /// Optional straggler detector fed by the runtime with per-rank work
  /// intervals (must outlive the call); null = no arrival-lag ledger and a
  /// bit-identical collective schedule to the un-instrumented baseline.
  parallel::StragglerDetector* straggler_detector = nullptr;
  /// Measured per-rank speed weights, ORIGINAL-world indexed (size
  /// `ranks`); non-empty = re-home batches with
  /// mapping::rebalance_for_slow_ranks so slow ranks carry
  /// proportionally less grid work. World size and rank numbering are
  /// unchanged -- this is the recovery ladder's rebalance rung, fired
  /// before any shrink. Empty = keep the locality mapping as-is.
  std::vector<double> rank_speed_weights;
  /// Distribute the Rho-phase Poisson producer: each rank projects a
  /// contiguous share of the (atom, radial shell) rho_multipole rows --
  /// sized by rank_speed_weights when present -- and the partial
  /// projections are synthesized with a packed row-by-row AllReduce (the
  /// paper's rho_multipole reduction). Every row is computed by exactly one
  /// rank and x + 0 is exact in IEEE addition, so the summed projection is
  /// bit-identical to the replicated producer. Off by default: replicating
  /// the producer trades redundant compute for communication avoidance,
  /// the right call when ranks are homogeneous -- but under a straggler
  /// the replicated producer runs at the slowest rank's speed, so the
  /// rebalance rung enables this to shed producer work too.
  bool distribute_rho = false;
  /// CRC-verify every collective payload (Cluster::set_verify_payloads) and
  /// run the packed H-phase AllReduce with a linear checksum element, so
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

/// Communication statistics of one distributed run.
struct ParallelDfptStats {
  std::size_t collectives = 0;      ///< packed AllReduce invocations
  std::size_t rows_reduced = 0;     ///< matrix rows synthesized
  std::size_t batches = 0;          ///< total grid batches
  double max_rank_points_share = 0; ///< load balance: max/mean points
  // Elastic-world shape of this run (filled by the solver).
  std::size_t survivor_ranks = 0;   ///< ranks the run actually executed on
  std::size_t lost_ranks = 0;       ///< original ranks excluded by shrinks
  std::size_t remap_batches_moved = 0; ///< orphaned batches re-homed
  double remap_seconds = 0.0;       ///< wall time of the survivor re-mapping
  // Straggler-rebalance shape of this run (filled by the solver).
  std::size_t rebalances = 0;           ///< weighted re-mappings applied
  std::size_t rebalance_batches_moved = 0; ///< batches moved off slow ranks
  double rebalance_seconds = 0.0;       ///< wall time of weighted re-mapping
  std::size_t degraded_ranks = 0;       ///< ranks rebalanced around
  // Recovery counters, filled by resilience::RecoveryDriver when a run is
  // wrapped in fault recovery (zero for bare runs).
  std::size_t faults_detected = 0;  ///< health violations + rank failures
  std::size_t restores = 0;         ///< checkpoint restorations
  std::size_t retries = 0;          ///< solver re-executions
  std::size_t wasted_iterations = 0;///< iterations discarded by rollbacks
  std::size_t shrinks = 0;          ///< world-shrink escalations
  std::size_t buddy_restores = 0;   ///< restores served from a buddy replica
  // SDC-defense counters (see docs/sdc.md), filled by the RecoveryDriver.
  std::size_t abft_corrections = 0;     ///< matmul elements fixed in place
  std::size_t invariant_violations = 0; ///< physics guards tripped
  std::size_t payload_corruptions = 0;  ///< CRC/checksum collective failures
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
