#include "resilience/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "linalg/abft.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/straggler.hpp"
#include "resilience/buddy.hpp"
#include "resilience/health.hpp"
#include "resilience/membudget.hpp"
#include "scf/diis.hpp"

namespace aeqp::resilience {

namespace {

/// A rank failing on this many consecutive attempts is classified permanent
/// and shrunk away: one free retry, matching the transient rollback rung.
constexpr int kPermanentFailureThreshold = 2;

/// Weight ceiling the rebalance rung applies to a degraded rank: re-entry
/// uses min(measured speed weight, kRebalanceShedWeight). The arrival-lag
/// ratio the ledger measures is a LOWER bound on the true slowdown whenever
/// compute and collective waiting interleave, and the loss is asymmetric --
/// leaving too much work on a sick rank stalls the whole world at its pace,
/// while shedding too much merely adds share/(N-1) to each healthy rank. So
/// the rung sheds to a token share, the same call speculative-execution
/// schedulers make once a task is flagged slow. The token is a quarter of
/// the detector's weight floor (1/16) because the sick rank also runs its
/// replicated per-iteration tail (Sternheimer update, P^(1), spline fit and
/// radial solve) at its own pace: on a 4-rank H6 chain that tail alone, 8x
/// slow, costs about a healthy rank's whole iteration, so at 1/16 the 2-3%
/// of the points left on the sick rank kept it the slowest rank; at 1/64 it
/// keeps about one batch.
constexpr double kRebalanceShedWeight = 1.0 / 64.0;

/// Floors of the third relief rung.
constexpr std::size_t kMinBatchPoints = 16;
constexpr std::size_t kMinPackBytes = 4096;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Per-attempt bookkeeping: what the observer saw and how the attempt ended.
struct AttemptContext {
  double prev_delta = -1.0;      ///< residual of the previous iteration
  int last_iteration = 0;        ///< last iteration the observer saw
  int checkpoint_iteration = 0;  ///< iteration of the last saved checkpoint
  bool fault = false;            ///< the health check aborted the attempt
  bool cancelled = false;        ///< the cancel hook tripped mid-solve
  bool straggler = false;        ///< abort requested by the straggler rung
  bool oom = false;              ///< an OutOfMemoryBudget fault
  bool timeout = false;          ///< a CollectiveTimeout fault
  bool rank_failure = false;     ///< a RankFailure fault
  std::size_t failed_rank = kNone;  ///< its ORIGINAL rank id
  std::size_t observer_rank = 0;    ///< the rank that observed it
  std::string reason;            ///< why the attempt did not finish
};

/// Ascending-id subset test for degraded-rank sets (both sorted).
bool degraded_subset_of(const std::vector<std::size_t>& degraded,
                        const std::vector<std::size_t>& known) {
  return std::includes(known.begin(), known.end(), degraded.begin(),
                       degraded.end());
}

/// "1,3" for log and error lines.
std::string rank_list(const std::vector<std::size_t>& ranks) {
  std::string who;
  for (const auto r : ranks) who += (who.empty() ? "" : ",") + std::to_string(r);
  return who;
}

/// A failure that ends the job: dump the flight recorder under the error's
/// kind, with `context` as the dump's message, and throw the error.
template <typename E>
[[noreturn]] void throw_terminal(const E& error, const std::string& context) {
  obs::flight_on_error(error.kind().c_str(), context);
  throw error;
}

/// Structured cancellation error naming where the budget ran out.
[[noreturn]] void throw_cancelled(const char* what, int direction, int attempt,
                                  int iteration) {
  throw DeadlineExceeded(std::string(what) + ": cancelled for direction " +
                         std::to_string(direction) + " on attempt " +
                         std::to_string(attempt + 1) + " at iteration " +
                         std::to_string(iteration));
}

/// Poll the cooperative cancellation hook before committing to (more) work.
void throw_if_cancelled(const RecoveryOptions& ropt, const char* what,
                        int direction, int attempt, int iteration) {
  if (ropt.cancel && ropt.cancel())
    throw_cancelled(what, direction, attempt, iteration);
}

/// The checkpoint of an observed, health-validated iteration: what the
/// file store and the buddy replicas hold.
CpscfCheckpoint checkpoint_of(const core::CpscfIterationState& s) {
  CpscfCheckpoint ckpt;
  ckpt.direction = s.direction;
  ckpt.iteration = s.iteration;
  ckpt.mixing = s.mixing;
  ckpt.last_delta = s.delta;
  ckpt.p1 = *s.p1;
  ckpt.diis_history = s.mixer->export_history();
  return ckpt;
}

/// Pressure-relief ladder, cheapest rung first; `rung` grows by one per
/// OutOfMemoryBudget fault and the edits of `world` persist across the
/// remaining attempts. Rung 1 drops the rank tile cache (the on-the-fly
/// tiles are bit-identical; a device run keeps it, its kernels read cached
/// tiles), rung 2 runs the reclaimer registry (warm cache, buddy spill),
/// rung 3 halves the grid batch and quarters the pack window down to their
/// floors. Returns the relief actions applied.
std::size_t relieve(core::ParallelDfptOptions& world, int rung) {
  std::size_t actions = 0;
  if (rung >= 1 && world.cache_point_evals && !world.dfpt.device) {
    world.cache_point_evals = false;
    ++actions;
    obs::trace_instant("membudget/relief_point_cache");
  }
  if (rung >= 2 && relieve_pressure() > 0) ++actions;
  if (rung >= 3) {
    const std::size_t shrunk_batch = std::min(
        world.batch_points, std::max(world.batch_points / 2, kMinBatchPoints));
    const std::size_t shrunk_pack =
        std::min(world.pack_bytes, std::max(world.pack_bytes / 4, kMinPackBytes));
    if (shrunk_batch < world.batch_points || shrunk_pack < world.pack_bytes) {
      world.batch_points = shrunk_batch;
      world.pack_bytes = shrunk_pack;
      ++actions;
      obs::trace_instant("membudget/relief_shrink_windows");
    }
  }
  return actions;
}

/// The one retry loop behind both front-ends. Every attempt runs
/// core::solve_direction_parallel on `world` -- the serial front-end's is
/// the one-rank world -- under the driver's observer, and every fault walks
/// the same ladder: rollback, damping and memory relief on every world;
/// buddy replication, the rebalance rung and the shrink rung on elastic
/// ones. `what` names the front-end in log lines and errors.
core::ParallelDfptResult solve_recovered(CheckpointStore& store,
                                         const RecoveryOptions& ropt,
                                         RecoveryStats& stats,
                                         const scf::ScfResult& ground,
                                         core::ParallelDfptOptions world,
                                         int direction, const char* what) {
  // The driver installs these hooks on every attempt; a caller's would be
  // replaced without ever running.
  AEQP_CHECK(!world.dfpt.observer,
             std::string(what) +
                 ": DfptOptions::observer is owned by the recovery driver");
  AEQP_CHECK(!ropt.elastic || !world.rank_hook,
             std::string(what) +
                 ": ParallelDfptOptions::rank_hook is owned by elastic recovery");
  stats = RecoveryStats{};
  const std::string key =
      ropt.checkpoint_key + "-dir" + std::to_string(direction);
  store.remove(key);  // a stale checkpoint from a previous run must not leak in

  // Survivor set in ORIGINAL rank ids, kept strictly increasing; the solver
  // renumbers densely so current world slot s maps to active[s]. Only the
  // shrink rung edits it.
  std::vector<std::size_t> active = world.active_ranks;
  if (active.empty()) {
    active.resize(world.ranks);
    std::iota(active.begin(), active.end(), std::size_t{0});
  }
  // Elastic state. Buddy replicas are reclaimable under memory pressure:
  // spilled to the disk-backed store they survive BOTH the holder's death
  // and the relief that evicted them. The straggler detector persists
  // across attempts (slowness evidence and classifications survive
  // rollbacks), as do the measured speed weights once the rebalance rung
  // has fired; `last_degraded` prevents oscillation: only a degraded set
  // with a NEW member re-fires the rung -- a rank recovering does not (the
  // weights stay sticky, which is safe: a healthy rank merely carries a bit
  // less work).
  BuddyReplicator buddy(world.ranks);
  buddy.set_spill_store(&store);
  std::optional<ScopedMemReclaimer> buddy_spill;
  std::unique_ptr<parallel::StragglerDetector> owned_straggler;
  parallel::StragglerDetector* straggler = nullptr;
  if (ropt.elastic) {
    if (ropt.memory_relief)
      buddy_spill.emplace("buddy_spill", [&buddy] { return buddy.spill(); });
    if (world.straggler_detector == nullptr) {
      owned_straggler =
          std::make_unique<parallel::StragglerDetector>(world.ranks);
      world.straggler_detector = owned_straggler.get();
    }
    straggler = world.straggler_detector;
  }
  std::vector<double> rebalance_weights;
  std::vector<std::size_t> last_degraded;

  std::size_t repeat_rank = kNone;  // original id of the rank failing in a row
  int repeat_count = 0;
  // ABFT corrections are healed inside the kernels and never surface as
  // exceptions; account for them with a scoped accumulator (rank threads
  // inherit it), so concurrent drivers in a multi-tenant server never read
  // each other's corrections.
  const linalg::AbftStatsScope abft_scope;
  int oom_rung = 0;  // relief-ladder position, advanced per OOM fault

  for (int attempt = 0;; ++attempt) {
    AttemptContext ctx;
    core::ParallelDfptOptions popts = world;
    popts.active_ranks = active.size() == world.ranks
                             ? std::vector<std::size_t>{}
                             : active;
    if (!rebalance_weights.empty()) popts.rank_speed_weights = rebalance_weights;
    // Graceful degradation: the first retry replays the original trajectory
    // with the saved Pulay history (a transient fault needs no damping, and
    // the replay is bit-identical); repeated faults drop the history and
    // progressively shrink the first step.
    const bool damped = attempt >= 2;
    if (damped)
      popts.dfpt.mixing =
          world.dfpt.mixing * std::pow(ropt.mixing_damping, attempt - 1);

    if (attempt > 0) {
      ++stats.retries;
      obs::trace_instant("recovery/retry");
      std::optional<CpscfCheckpoint> ckpt = store.try_load_cpscf(key);
      // Diskless fallback when the file checkpoint died with its writer
      // (only elastic runs replicate): the CPSCF state is replicated on
      // every rank, so ANY replica whose holder survived restores it. A
      // torn replica is skipped -- another buddy may hold a good one.
      for (std::size_t owner = 0; owner < world.ranks && !ckpt; ++owner) {
        const auto blob = buddy.blob_of(owner);
        if (!blob || std::find(active.begin(), active.end(), blob->holder) ==
                         active.end())
          continue;
        try {
          ckpt = deserialize_cpscf(
              blob->bytes, "buddy replica of rank " + std::to_string(owner));
          ++stats.buddy_restores;
          obs::trace_instant("recovery/buddy_restore");
          AEQP_LOG_INFO << what << ": restored iteration " << ckpt->iteration
                        << " from the replica of rank " << owner
                        << " held by rank " << blob->holder;
        } catch (const Error&) {
        }
      }
      if (ckpt && ckpt->iteration >= 1 &&
          ckpt->iteration < popts.dfpt.max_iterations) {
        ctx.checkpoint_iteration = ckpt->iteration;
        ctx.prev_delta = ckpt->last_delta;
        auto ws = std::make_shared<core::CpscfWarmStart>();
        ws->iteration = ckpt->iteration;
        ws->p1 = std::move(ckpt->p1);
        ws->last_delta = ckpt->last_delta;
        if (!damped) ws->diis_history = std::move(ckpt->diis_history);
        popts.dfpt.warm_start = std::move(ws);
        ++stats.restores;
        obs::trace_instant("recovery/rollback");
      }
      throw_if_cancelled(ropt, what, direction, attempt, ctx.checkpoint_iteration);
    }

    popts.dfpt.observer = [&](const core::CpscfIterationState& s) {
      ctx.last_iteration = s.iteration;
      if (ropt.cancel && ropt.cancel()) {
        ctx.cancelled = true;
        return core::CpscfAction::Abort;
      }
      const HealthReport hr =
          check_iteration_health(*s.p1, s.delta, ctx.prev_delta);
      if (!hr.healthy) {
        ctx.fault = true;
        ctx.reason =
            "iteration " + std::to_string(s.iteration) + " unhealthy: " + hr.reason;
        return core::CpscfAction::Abort;
      }
      ctx.prev_delta = s.delta;
      // Soft-watermark polling: shed reclaimable state between iterations
      // BEFORE the hard ceiling is reached. Non-aborting, observer-only --
      // reclaimers free caches and replicas, never solver state.
      if (ropt.memory_relief && mem_pressure().over_soft) {
        obs::trace_instant("membudget/soft_watermark");
        if (relieve_pressure() > 0) ++stats.relief_actions;
      }
      const auto save_checkpoint = [&] {
        store.save(key, checkpoint_of(s));
        ctx.checkpoint_iteration = s.iteration;
      };
      if (s.iteration % ropt.checkpoint_every == 0) save_checkpoint();
      // Straggler rung trigger: read the verdict of the windows the lead
      // rank closed at this iteration's packed flushes (core/cpscf.cpp).
      // Only a NEW degraded rank aborts; a set the rung has already
      // rebalanced around (or a subset -- someone recovered) keeps
      // converging under the current weights.
      if (straggler != nullptr && straggler->any_degraded()) {
        const auto degraded = straggler->degraded_ranks();
        if (!degraded_subset_of(degraded, last_degraded)) {
          // The verdict iteration is health-validated: checkpoint it
          // even off the periodic cadence, so the rebalance re-entry
          // warm-starts at this very iteration -- a rebalance wastes
          // zero iterations whatever checkpoint_every is.
          if (ctx.checkpoint_iteration != s.iteration) save_checkpoint();
          ctx.straggler = true;
          ctx.reason = "rank(s) " + rank_list(degraded) +
                       " classified degraded at iteration " +
                       std::to_string(s.iteration) +
                       "; rebalancing before any shrink";
          return core::CpscfAction::Abort;
        }
      }
      return core::CpscfAction::Continue;
    };
    // Buddy replication rides the per-iteration hook of elastic runs: the
    // hook runs after the observer's abort broadcast, so only
    // health-validated iterations are mirrored, on the same cadence as the
    // file checkpoint. A plain run keeps its collective schedule.
    if (ropt.elastic)
      popts.rank_hook = [&](parallel::Communicator& comm,
                            const core::CpscfIterationState& s) {
        if (s.iteration % ropt.checkpoint_every == 0)
          buddy.replicate(comm, serialize(checkpoint_of(s)));
      };

    try {
      auto result = core::solve_direction_parallel(ground, popts, direction);
      stats.abft_corrections = abft_scope.stats().corrections;
      if (ctx.cancelled)
        throw_cancelled(what, direction, attempt, ctx.last_iteration);
      if (!ctx.fault && !result.direction.aborted) {  // healthy
        // The solver measured the world this attempt ran on; where the
        // driver's rungs counted the same thing, the larger count stands.
        RecoveryStats& run = result.stats;
        stats.lost_ranks = std::max(stats.lost_ranks, run.lost_ranks);
        stats.remap_seconds = run.remap_seconds;
        stats.rebalances = std::max(stats.rebalances, run.rebalances);
        stats.degraded_ranks = std::max(stats.degraded_ranks, run.degraded_ranks);
        run = stats;
        return result;
      }
      // An abort this driver never requested means the abort decision
      // itself was corrupted in transit -- treat it as a fault, not as a
      // legitimate early exit.
      if (!ctx.fault && !ctx.straggler)
        ctx.reason = "solver aborted without a recovery request "
                     "(corrupted control payload?)";
    } catch (const parallel::RankFailure& e) {
      ctx.reason = e.what();
      ctx.rank_failure = true;
      ctx.observer_rank = e.observer_rank();
      // The exception carries CURRENT world ids; map back through the
      // survivor list so the permanence classification follows the
      // physical (original) rank across renumberings.
      if (e.failed_rank() < active.size())
        ctx.failed_rank = active[e.failed_rank()];
    } catch (const parallel::CollectiveTimeout& e) {
      // Also the straggler rung's backstop signal (see below).
      ctx.reason = e.what();
      ctx.timeout = true;
    } catch (const parallel::PayloadCorruption& e) {
      // A verified collective caught in-flight corruption: the payload is
      // poisoned, so roll back like any other fault. Transient by
      // assumption (a struck message, not a struck node): never a shrink.
      ctx.reason = e.what();
      ++stats.payload_corruptions;
    } catch (const InvariantViolation& e) {
      // A physics guard tripped past the in-place rungs (ABFT correction,
      // local recompute): the state is corrupt -- rollback and retry.
      ctx.reason = e.what();
      ++stats.invariant_violations;
    } catch (const linalg::AbftError& e) {
      // Multi-element (uncorrectable) product corruption: detection without
      // location, so in-place repair is off the table -- rollback.
      ctx.reason = e.what();
    } catch (const OutOfMemoryBudget& e) {
      // Memory exhaustion enters the same ladder: the governor turned a
      // would-be std::bad_alloc into a structured fault, and the relief
      // rungs below shed state so the re-attempt fits. A budget breach is
      // not a node death: it never drives a shrink (shrinking RAISES
      // per-rank memory).
      ctx.reason = e.what();
      ctx.oom = true;
      ++stats.oom_events;
      obs::trace_instant("recovery/oom");
    }
    stats.abft_corrections = abft_scope.stats().corrections;
    stats.wasted_iterations += static_cast<std::size_t>(
        std::max(0, ctx.last_iteration - ctx.checkpoint_iteration));
    // Same-rank failure streak; any other outcome breaks it.
    if (!ctx.rank_failure) {
      repeat_rank = kNone;
      repeat_count = 0;
    } else if (ctx.failed_rank == repeat_rank) {
      ++repeat_count;
    } else {
      repeat_rank = ctx.failed_rank;
      repeat_count = 1;
    }
    if (ctx.straggler) {
      // A slow rank is a performance event, not a fault: it does not count
      // toward faults_detected, and the checkpoint taken just before the
      // abort makes the re-entry resume at the same iteration.
      AEQP_LOG_INFO << what << ": straggler on attempt " << attempt + 1
                    << " (" << ctx.reason << "); re-entering from iteration "
                    << ctx.checkpoint_iteration;
    } else {
      ++stats.faults_detected;
      obs::trace_instant("recovery/fault_detected");
      AEQP_LOG_INFO << what << ": fault on attempt " << attempt + 1 << " ("
                    << ctx.reason << "); rolling back to iteration "
                    << ctx.checkpoint_iteration;
    }

    if (ctx.oom && ropt.memory_relief)
      stats.relief_actions += relieve(world, ++oom_rung);

    // --- Rebalance rung (elastic), BEFORE the shrink rung: a degraded but
    //     alive rank keeps its place in the world; the next attempt
    //     re-homes grid batches around the measured speed weights
    //     (mapping::rebalance_for_slow_ranks) at full world size. The
    //     timeout backstop reclassifies here because an extreme slowdown
    //     may have surfaced as CollectiveTimeout between iteration
    //     boundaries. ---
    if (straggler != nullptr && (ctx.straggler || ctx.timeout)) {
      if (ctx.timeout) straggler->classify();
      const auto degraded = straggler->degraded_ranks();
      if (!degraded.empty() && degraded != last_degraded) {
        rebalance_weights = straggler->speed_weights();
        // Shed policy: a degraded rank keeps only a token share (see
        // kRebalanceShedWeight); healthy ranks absorb the shed work.
        for (const std::size_t r : degraded)
          if (r < rebalance_weights.size())
            rebalance_weights[r] =
                std::min(rebalance_weights[r], kRebalanceShedWeight);
        last_degraded = degraded;
        ++stats.rebalances;
        stats.degraded_ranks = std::max(stats.degraded_ranks, degraded.size());
        obs::trace_instant("recovery/rebalance");
        AEQP_LOG_INFO << what << ": rebalancing around degraded rank(s) "
                      << rank_list(degraded) << " at full world size ("
                      << active.size() << " ranks) before any shrink";
      }
    }

    // --- Shrink rung (elastic): a rank that fails on consecutive attempts
    //     is a dead node, not a glitch -- retrying at the same world size
    //     would fail forever. Shrink it away and resume on the survivors;
    //     the last survivor is the floor. ---
    if (ropt.elastic && ctx.rank_failure && repeat_rank != kNone &&
        repeat_count >= kPermanentFailureThreshold) {
      if (active.size() == 1) {
        std::ostringstream msg;
        msg << what << ": rank " << repeat_rank
            << " permanently failed and was the last survivor; recovery "
               "abandoned for direction "
            << direction << ", last failure: " << ctx.reason;
        throw_terminal(
            parallel::RankFailure(repeat_rank, ctx.observer_rank, msg.str()),
            msg.str());
      }
      const std::size_t replicas_lost = buddy.drop_holder(repeat_rank);
      if (repeat_rank == active.front()) {
        // The dead rank hosted the checkpoint writer (current world slot
        // 0): model its node-local storage dying with it. The next restore
        // must come from a surviving buddy replica.
        store.remove(key);
      }
      active.erase(std::find(active.begin(), active.end(), repeat_rank));
      // The dead rank must not pin a stale "degraded" verdict, and its
      // slowness samples must stop counting toward the cross-rank median.
      straggler->retain(active);
      last_degraded.erase(
          std::remove(last_degraded.begin(), last_degraded.end(), repeat_rank),
          last_degraded.end());
      ++stats.shrinks;
      ++stats.lost_ranks;
      obs::trace_instant("recovery/shrink");
      AEQP_LOG_INFO << what << ": rank " << repeat_rank
                    << " classified permanent after " << repeat_count
                    << " consecutive failures; shrinking the world to "
                    << active.size() << " survivors (" << replicas_lost
                    << " buddy replicas died with it)";
      repeat_rank = kNone;
      repeat_count = 0;
    }

    if (attempt >= ropt.max_retries) {
      std::ostringstream msg;
      msg << what << ": retry budget exhausted for direction " << direction
          << " after " << attempt + 1 << " attempts: " << stats.faults_detected
          << " faults detected, " << stats.shrinks << " shrinks, "
          << stats.restores << " checkpoint restores, last failure: "
          << ctx.reason;
      // Retry exhaustion is terminal for the job. A dead rank re-fails
      // every retry at the same world size; without elastic shrink the
      // budget runs out against it, surfaced as a RankFailure naming the
      // culprit (it derives from Error, so untyped handlers still work).
      if (ctx.rank_failure)
        throw_terminal(parallel::RankFailure(
                           ctx.failed_rank == kNone ? 0 : ctx.failed_rank,
                           ctx.observer_rank, msg.str()),
                       msg.str());
      if (ctx.oom)
        throw_terminal(
            OutOfMemoryBudget(
                "recovery/" + key, 0,
                static_cast<std::size_t>(mem_budget_bytes()),
                static_cast<std::size_t>(std::max<std::int64_t>(mem_in_use(), 0))),
            msg.str());
      throw_terminal(Error(msg.str()), msg.str());
    }
  }
}

}  // namespace

RecoveryDriver::RecoveryDriver(CheckpointStore& store, RecoveryOptions options)
    : store_(store), options_(std::move(options)) {
  AEQP_CHECK(options_.max_retries >= 0, "RecoveryDriver: negative retry budget");
  AEQP_CHECK(options_.checkpoint_every >= 1,
             "RecoveryDriver: checkpoint_every must be >= 1");
  AEQP_CHECK(options_.mixing_damping > 0.0 && options_.mixing_damping <= 1.0,
             "RecoveryDriver: mixing_damping must be in (0, 1]");
}

core::DfptDirectionResult RecoveryDriver::solve_direction(
    const scf::ScfResult& ground, core::DfptOptions options, int direction) {
  // DfptSolver's one-rank world.
  core::ParallelDfptOptions world;
  world.dfpt = std::move(options);
  world.ranks = 1;
  world.ranks_per_node = 1;
  return solve_recovered(store_, options_, stats_, ground, std::move(world),
                         direction, "RecoveryDriver[serial]")
      .direction;
}

core::ParallelDfptResult RecoveryDriver::solve_direction_parallel(
    const scf::ScfResult& ground, core::ParallelDfptOptions options,
    int direction) {
  return solve_recovered(
      store_, options_, stats_, ground, std::move(options), direction,
      options_.elastic ? "RecoveryDriver[elastic]" : "RecoveryDriver[parallel]");
}

void attach_scf_checkpointing(scf::ScfOptions& options, CheckpointStore& store,
                              const std::string& key, int every) {
  AEQP_CHECK(every >= 1, "attach_scf_checkpointing: every must be >= 1");
  options.observer = [&store, key, every](const scf::ScfIterationState& s) {
    if (s.iteration % every == 0) {
      ScfCheckpoint ckpt;
      ckpt.iteration = s.iteration;
      ckpt.last_delta = s.delta;
      ckpt.density_matrix = *s.density_matrix;
      ckpt.diis_history = s.mixer->export_history();
      store.save(key, ckpt);
    }
    return scf::ScfAction::Continue;
  };
}

bool resume_scf_from_checkpoint(scf::ScfOptions& options,
                                const CheckpointStore& store,
                                const std::string& key) {
  auto ckpt = store.try_load_scf(key);
  if (!ckpt) return false;
  if (ckpt->iteration < 1 || ckpt->iteration >= options.max_iterations)
    return false;
  auto ws = std::make_shared<scf::ScfWarmStart>();
  ws->iteration = ckpt->iteration;
  ws->density_matrix = std::move(ckpt->density_matrix);
  ws->diis_history = std::move(ckpt->diis_history);
  options.warm_start = std::move(ws);
  return true;
}

}  // namespace aeqp::resilience
