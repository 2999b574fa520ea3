#pragma once

/// \file recovery.hpp
/// Fault recovery for the DFPT solvers. The RecoveryDriver wraps a CPSCF
/// run in a bounded retry loop: every iteration is health-validated and
/// checkpointed through the solver's observer hook; a detected fault
/// (numerical poisoning, rank failure, collective timeout) rolls the run
/// back to the last good checkpoint and retries, degrading gracefully to a
/// fresh Pulay history and a damped first step when faults repeat. A transient fault therefore
/// costs only the iterations since the last checkpoint, and the recovered
/// trajectory of the first retry is bit-identical to a fault-free run.
///
/// One loop serves every front-end. Each attempt runs
/// core::solve_direction_parallel; the serial front-end's world is the one
/// rank DfptSolver runs on (ranks = 1, flat reduce), so serial, distributed
/// and elastic runs share one observer, one checkpoint format, one catch
/// ladder, one memory-relief ladder and one exhaustion error. The driver
/// owns DfptOptions::observer (and, on elastic runs,
/// ParallelDfptOptions::rank_hook): a caller's hook is rejected with an
/// aeqp::Error rather than replaced.
///
/// Silent data corruption (docs/sdc.md) enters the same ladder below the
/// rollback rung: ABFT-checksummed matmuls correct single-element product
/// corruption in place (no rollback at all), non-finite Sumup batches are
/// recomputed locally, and what escapes both -- an InvariantViolation from
/// a physics guard, an AbftError for multi-element corruption, or a
/// PayloadCorruption from a verified collective -- is caught here and
/// treated as a fault: rollback to the last checkpoint and retry.
///
/// With `RecoveryOptions::elastic` the loop adds further escalation rungs
/// for stragglers and PERMANENT rank failures (a dead node re-fails every
/// retry at the same world size):
///
///   correct in place  ->  local recompute  ->  retry  ->  damped retry
///     ->  rebalance around stragglers  ->  shrink + buddy-restore
///       + re-map + resume
///
/// The rebalance rung fires BEFORE any shrink: a rank that is merely slow
/// (straggler, detected by the per-rank arrival-lag ledger or surfaced by
/// an adaptive collective deadline) keeps its place in the world, and the
/// grid batches are re-homed around its measured speed with
/// mapping::rebalance_for_slow_ranks -- full world size, no renumbering.
/// Only a rank that actually FAILS repeatedly is shrunk away.
///
/// A rank is classified permanent when the same original rank fails on two
/// consecutive attempts. The driver then excludes it from the active world
/// (ULFM shrink analogue), restores the last checkpoint from an in-memory
/// buddy replica when the dead rank took the file checkpoint down with it,
/// re-homes the dead rank's grid batches onto survivors with the
/// locality-aware re-mapping, and resumes the CPSCF iteration on the
/// shrunken world. The last survivor is the floor: its permanent failure
/// raises a structured parallel::RankFailure naming it.

#include <functional>
#include <string>

#include "core/dfpt.hpp"
#include "core/parallel_dfpt.hpp"
#include "resilience/checkpoint.hpp"
#include "scf/scf_solver.hpp"

namespace aeqp::resilience {

/// Retry/rollback policy of a RecoveryDriver.
struct RecoveryOptions {
  /// Retries after the initial attempt; exceeding the budget throws.
  int max_retries = 5;
  /// Graceful degradation: from the second retry on, the CPSCF resumes
  /// without its Pulay history and the mixing factor (the first step) is
  /// multiplied by this per additional retry (the first retry resumes the
  /// original trajectory and history unchanged -- a transient fault needs
  /// no damping).
  double mixing_damping = 0.5;
  /// Cooperative deadline/cancellation hook, polled at every CPSCF
  /// iteration (via the driver's observer) and before every retry. When it
  /// returns true the driver stops immediately with a structured
  /// DeadlineExceeded instead of burning more of a budget the caller
  /// already knows is gone. Null = never cancelled.
  std::function<bool()> cancel;
  std::string checkpoint_key = "cpscf";  ///< prefix; "-dir<j>" is appended
  int checkpoint_every = 1;       ///< save every N healthy iterations
  /// Elastic recovery: buddy-replicate every checkpoint, rebalance the
  /// grid batches around stragglers (the driver attaches the caller's
  /// ParallelDfptOptions::straggler_detector, or owns one), and shrink
  /// permanently failed ranks out of the world to resume on the survivors
  /// from a buddy-replicated checkpoint. Off by default -- a non-elastic
  /// driver keeps the run's collective schedule, exhausts its retry budget
  /// against a dead rank and surfaces a structured parallel::RankFailure
  /// instead of deadlocking.
  bool elastic = false;
  /// Pressure-relief ladder (membudget.hpp): when an OutOfMemoryBudget
  /// fault is caught, each retry first walks one more rung -- drop the rank
  /// tile cache (kept on device runs), run registered reclaimers
  /// (warm-cache eviction, buddy spill), halve the grid batch and quarter
  /// the pack window (floors 16 points, 4 KiB) -- so the re-attempt fits
  /// the budget; observers also poll the soft watermark between iterations
  /// and relieve pre-emptively. Disable to surface the first breach
  /// unrelieved.
  bool memory_relief = true;
};

/// What recovery cost; declared once, in core, as the base of
/// ParallelDfptStats.
using core::RecoveryStats;

/// Wraps the CPSCF solvers in checkpointed retry.
class RecoveryDriver {
public:
  RecoveryDriver(CheckpointStore& store, RecoveryOptions options);

  /// Serial CPSCF with health validation, checkpointing and retry: the
  /// one-rank world of DfptSolver (bit-identical to it fault-free) under
  /// the same loop as solve_direction_parallel. Throws a structured error
  /// once the retry budget is exhausted.
  [[nodiscard]] core::DfptDirectionResult solve_direction(
      const scf::ScfResult& ground, core::DfptOptions options, int direction);

  /// Distributed CPSCF with the same policy; rank failures and collective
  /// timeouts surfaced by the simmpi runtime are treated as faults and
  /// recovered from. With RecoveryOptions::elastic, stragglers are
  /// rebalanced around and permanent rank failures escalate to shrink +
  /// buddy-restore + re-map + resume on the survivors (see the file
  /// comment). result.stats carries the recovery counters.
  [[nodiscard]] core::ParallelDfptResult solve_direction_parallel(
      const scf::ScfResult& ground, core::ParallelDfptOptions options,
      int direction);

  /// Counters of the most recent solve_direction* call (after a parallel
  /// solve, the recovery counters its result carries).
  [[nodiscard]] const RecoveryStats& last_stats() const { return stats_; }

private:
  CheckpointStore& store_;
  RecoveryOptions options_;
  RecoveryStats stats_;
};

/// Install an observer on `options` that saves an ScfCheckpoint under `key`
/// every `every` iterations (replacing any previous observer).
void attach_scf_checkpointing(scf::ScfOptions& options, CheckpointStore& store,
                              const std::string& key, int every = 1);

/// If a checkpoint exists under `key`, set options.warm_start from it and
/// return true; returns false when there is nothing to resume from.
bool resume_scf_from_checkpoint(scf::ScfOptions& options,
                                const CheckpointStore& store,
                                const std::string& key);

}  // namespace aeqp::resilience
