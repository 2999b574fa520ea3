#include "resilience/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "linalg/abft.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/straggler.hpp"
#include "resilience/buddy.hpp"
#include "resilience/membudget.hpp"
#include "scf/diis.hpp"
#include "tune/tune.hpp"

namespace aeqp::resilience {

namespace {

/// Per-attempt bookkeeping threaded through the CPSCF observer.
struct AttemptContext {
  double prev_delta = -1.0;      ///< residual of the previous iteration
  int last_iteration = 0;        ///< last iteration the observer saw
  int checkpoint_iteration = 0;  ///< iteration of the last saved checkpoint
  bool fault = false;
  bool cancelled = false;        ///< the cancel hook tripped mid-solve
  bool straggler = false;        ///< abort requested by the straggler rung
  std::string fault_reason;
};

/// Ascending-id subset test for degraded-rank sets (both sorted).
bool degraded_subset_of(const std::vector<std::size_t>& degraded,
                        const std::vector<std::size_t>& known) {
  return std::includes(known.begin(), known.end(), degraded.begin(),
                       degraded.end());
}

/// splitmix64 -- the deterministic hash behind backoff jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Exponential backoff with deterministic jitter: attempt k sleeps
/// base * 2^(k-1), scaled by a factor in [1 - j, 1 + j] hashed from
/// (key, attempt). Reproducible per scenario, de-synchronized across jobs.
void backoff_sleep(const RecoveryOptions& ropt, const std::string& key,
                   int attempt) {
  if (ropt.backoff_base_ms == 0) return;
  const int shift = std::min(attempt - 1, 20);
  double ms = static_cast<double>(ropt.backoff_base_ms << shift);
  if (ropt.backoff_jitter > 0.0) {
    const std::uint64_t h =
        mix64(std::hash<std::string>{}(key) +
              static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ull);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    ms *= 1.0 + ropt.backoff_jitter * (2.0 * u - 1.0);
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::size_t>(ms)));
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

/// The shared retry loop of both CPSCF front-ends. `run` executes one solver
/// attempt with the given (possibly warm-started, possibly damped) options;
/// `aborted_of` extracts the solver's aborted flag from its result type;
/// `apply_relief` walks one more rung of the pressure-relief ladder before
/// a retry forced by an OutOfMemoryBudget fault (it returns how many relief
/// actions it applied).
template <typename Run, typename AbortedOf, typename ApplyRelief>
auto run_recovered(CheckpointStore& store, const RecoveryOptions& ropt,
                   RecoveryStats& stats, const core::DfptOptions& base,
                   int direction, const char* what, Run&& run,
                   AbortedOf&& aborted_of, ApplyRelief&& apply_relief) {
  stats = RecoveryStats{};
  const std::string key =
      ropt.checkpoint_key + "-dir" + std::to_string(direction);
  store.remove(key);  // a stale checkpoint from a previous run must not leak in

  std::string last_reason;
  bool last_rank_failure = false;
  std::size_t last_failed_rank = 0;
  std::size_t last_observer_rank = 0;
  // ABFT corrections are healed inside the kernels and never surface as
  // exceptions; account for them with a scoped accumulator (rank threads
  // inherit it), so concurrent drivers in a multi-tenant server never read
  // each other's corrections.
  const linalg::AbftStatsScope abft_scope;
  int oom_rung = 0;  // relief-ladder position, advanced per OOM fault
  for (int attempt = 0;; ++attempt) {
    AttemptContext ctx;
    bool oom_fault = false;
    core::DfptOptions opts = base;
    // Graceful degradation: the first retry replays the original trajectory
    // (a transient fault needs no damping, and the replay is bit-identical);
    // repeated faults progressively damp the mixing.
    if (attempt >= 2)
      opts.mixing = base.mixing * std::pow(ropt.mixing_damping, attempt - 1);

    if (attempt > 0) {
      ++stats.retries;
      obs::trace_instant("recovery/retry");
      if (auto ckpt = store.try_load_cpscf(key);
          ckpt && ckpt->iteration >= 1 &&
          ckpt->iteration < opts.max_iterations) {
        ctx.checkpoint_iteration = ckpt->iteration;
        ctx.prev_delta = ckpt->last_delta;
        auto ws = std::make_shared<core::CpscfWarmStart>();
        ws->iteration = ckpt->iteration;
        ws->p1 = std::move(ckpt->p1);
        opts.warm_start = std::move(ws);
        ++stats.restores;
        obs::trace_instant("recovery/rollback");
      }
      backoff_sleep(ropt, key, attempt);
      throw_if_cancelled(ropt, what, direction, attempt, ctx.checkpoint_iteration);
    }

    opts.observer = [&](const core::CpscfIterationState& s) {
      ctx.last_iteration = s.iteration;
      if (ropt.cancel && ropt.cancel()) {
        ctx.cancelled = true;
        return core::CpscfAction::Abort;
      }
      const HealthReport hr =
          check_iteration_health(*s.p1, s.delta, ctx.prev_delta, ropt.health);
      if (!hr.healthy) {
        ctx.fault = true;
        ctx.fault_reason =
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
      if (s.iteration % ropt.checkpoint_every == 0) {
        CpscfCheckpoint ckpt;
        ckpt.direction = s.direction;
        ckpt.iteration = s.iteration;
        ckpt.mixing = s.mixing;
        ckpt.last_delta = s.delta;
        ckpt.p1 = *s.p1;
        store.save(key, ckpt);
        ctx.checkpoint_iteration = s.iteration;
      }
      return core::CpscfAction::Continue;
    };

    try {
      auto result = run(opts);
      stats.abft_corrections = abft_scope.stats().corrections;
      if (ctx.cancelled)
        throw_cancelled(what, direction, attempt, ctx.last_iteration);
      if (!ctx.fault && !aborted_of(result)) return result;  // healthy
      // An abort this driver never requested means the abort decision
      // itself was corrupted in transit -- treat it as a fault, not as a
      // legitimate early exit.
      last_reason = ctx.fault
                        ? ctx.fault_reason
                        : "solver aborted without a recovery request "
                          "(corrupted control payload?)";
      last_rank_failure = false;
    } catch (const parallel::RankFailure& e) {
      last_reason = e.what();
      last_rank_failure = true;
      last_failed_rank = e.failed_rank();
      last_observer_rank = e.observer_rank();
    } catch (const parallel::CollectiveTimeout& e) {
      last_reason = e.what();
      last_rank_failure = false;
    } catch (const parallel::PayloadCorruption& e) {
      // A verified collective caught in-flight corruption: the payload is
      // poisoned, so roll back like any other fault.
      last_reason = e.what();
      last_rank_failure = false;
      ++stats.payload_corruptions;
    } catch (const InvariantViolation& e) {
      // A physics guard tripped past the in-place rungs (ABFT correction,
      // local recompute): the state is corrupt -- rollback and retry.
      last_reason = e.what();
      last_rank_failure = false;
      ++stats.invariant_violations;
    } catch (const linalg::AbftError& e) {
      // Multi-element (uncorrectable) product corruption: detection without
      // location, so in-place repair is off the table -- rollback.
      last_reason = e.what();
      last_rank_failure = false;
    } catch (const OutOfMemoryBudget& e) {
      // Memory exhaustion enters the same ladder: the governor turned a
      // would-be std::bad_alloc into a structured fault, and each retry
      // below first walks one more relief rung so the re-attempt fits.
      last_reason = e.what();
      last_rank_failure = false;
      oom_fault = true;
      ++stats.oom_events;
      obs::trace_instant("recovery/oom");
    }
    stats.abft_corrections = abft_scope.stats().corrections;
    ++stats.faults_detected;
    obs::trace_instant("recovery/fault_detected");
    stats.wasted_iterations += static_cast<std::size_t>(
        std::max(0, ctx.last_iteration - ctx.checkpoint_iteration));
    AEQP_LOG_INFO << what << ": fault on attempt " << attempt + 1 << " ("
                  << last_reason << "); rolling back to iteration "
                  << ctx.checkpoint_iteration;

    if (oom_fault && ropt.memory_relief) {
      ++oom_rung;
      stats.relief_actions += apply_relief(oom_rung);
    }

    if (attempt >= ropt.max_retries) {
      std::ostringstream msg;
      msg << what << ": retry budget exhausted for direction " << direction
          << " after " << attempt + 1 << " attempts: " << stats.faults_detected
          << " faults detected, " << stats.restores
          << " checkpoint restores, last failure: " << last_reason;
      // A dead rank re-fails every retry at the same world size; without
      // elastic shrink the budget runs out against it. Surface the failure
      // structurally so callers can identify the culprit rank (RankFailure
      // derives from Error, so untyped handlers still work).
      // Retry exhaustion is terminal for the job: dump the flight recorder
      // before the structured error escapes to the caller.
      obs::flight_on_error(
          last_rank_failure ? "RankFailure"
                            : (oom_fault ? "OutOfMemoryBudget" : "Error"),
          msg.str());
      if (last_rank_failure)
        throw parallel::RankFailure(last_failed_rank, last_observer_rank,
                                    msg.str());
      if (oom_fault)
        throw OutOfMemoryBudget(
            "recovery/" + key, 0,
            static_cast<std::size_t>(mem_budget_bytes()),
            static_cast<std::size_t>(std::max<std::int64_t>(mem_in_use(), 0)));
      AEQP_THROW(msg.str());
    }
  }
}

/// The elastic retry loop of the parallel front-end (escalation ladder:
/// retry -> damped retry -> shrink + buddy-restore + re-map + resume). Kept
/// separate from run_recovered: it tracks the set of surviving ranks across
/// attempts, classifies repeated same-rank failures as permanent, and falls
/// back to in-memory buddy replicas when the file checkpoint is lost
/// together with the rank that wrote it.
core::ParallelDfptResult run_elastic(CheckpointStore& store,
                                     const RecoveryOptions& ropt,
                                     RecoveryStats& stats,
                                     const scf::ScfResult& ground,
                                     const core::ParallelDfptOptions& base,
                                     int direction) {
  stats = RecoveryStats{};
  const std::string key =
      ropt.checkpoint_key + "-dir" + std::to_string(direction);
  store.remove(key);  // a stale checkpoint from a previous run must not leak in

  // Survivor set in ORIGINAL rank ids, kept strictly increasing; the solver
  // renumbers densely so current world slot s maps to active[s].
  std::vector<std::size_t> active(base.ranks);
  std::iota(active.begin(), active.end(), std::size_t{0});
  BuddyReplicator buddy(base.ranks);
  // Buddy replicas are reclaimable under memory pressure: spilled to the
  // disk-backed store they survive BOTH the holder's death and the relief
  // that evicted them. Registered for the lifetime of this solve only.
  buddy.set_spill_store(&store);
  std::optional<ScopedMemReclaimer> buddy_spill;
  if (ropt.memory_relief)
    buddy_spill.emplace("buddy_spill", [&buddy] { return buddy.spill(); });

  // Straggler defense: the detector persists across attempts (slowness
  // evidence and classifications survive rollbacks), as do the measured
  // speed weights once the rebalance rung has fired. `last_degraded`
  // prevents oscillation: only a degraded set with a NEW member re-fires
  // the rung -- a rank recovering does not (the weights stay sticky, which
  // is safe: a healthy rank merely carries a bit less work).
  std::unique_ptr<parallel::StragglerDetector> owned_straggler;
  parallel::StragglerDetector* straggler = base.straggler_detector;
  if (straggler == nullptr && ropt.straggler_defense) {
    owned_straggler = std::make_unique<parallel::StragglerDetector>(base.ranks);
    straggler = owned_straggler.get();
  }
  std::vector<double> rebalance_weights;
  std::vector<std::size_t> last_degraded;

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t repeat_rank = kNone;  // original id of the rank failing in a row
  int repeat_count = 0;
  std::string last_reason;
  bool last_rank_failure = false;
  std::size_t last_failed_original = 0;
  std::size_t last_observer_rank = 0;
  const linalg::AbftStatsScope abft_scope;
  // Relief-ladder state persists across attempts: once a rung has shed
  // state, every later attempt runs in the reduced-footprint configuration.
  int oom_rung = 0;
  bool relief_drop_point_cache = false;
  std::size_t relief_pack_bytes = 0;     // 0 = untouched
  std::size_t relief_batch_points = 0;   // 0 = untouched

  for (int attempt = 0;; ++attempt) {
    AttemptContext ctx;
    bool oom_fault = false;
    bool timeout_fault = false;
    core::ParallelDfptOptions popts = base;
    popts.active_ranks = active.size() == base.ranks
                             ? std::vector<std::size_t>{}
                             : active;
    popts.straggler_detector = straggler;
    popts.rank_speed_weights = rebalance_weights;
    // A rebalanced world distributes the Poisson producer as well: the
    // replicated producer runs at the slowest rank's speed no matter how
    // the grid batches are re-homed, which would cap the rebalance win.
    // Bit-identical by construction (see ParallelDfptOptions), so flipping
    // it on mid-recovery never perturbs the trajectory.
    if (!rebalance_weights.empty()) popts.distribute_rho = true;
    if (relief_drop_point_cache) popts.cache_point_evals = false;
    if (relief_pack_bytes != 0) popts.pack_bytes = relief_pack_bytes;
    if (relief_batch_points != 0) popts.batch_points = relief_batch_points;
    if (attempt >= 2)
      popts.dfpt.mixing =
          base.dfpt.mixing * std::pow(ropt.mixing_damping, attempt - 1);

    if (attempt > 0) {
      ++stats.retries;
      obs::trace_instant("recovery/retry");
      std::optional<CpscfCheckpoint> ckpt = store.try_load_cpscf(key);
      if (!ckpt) {
        // Diskless fallback: the CPSCF state is replicated on every rank,
        // so ANY replica whose holder survived restores it. A torn replica
        // is skipped -- another buddy may hold a good one.
        for (std::size_t owner = 0; owner < base.ranks && !ckpt; ++owner) {
          const auto blob = buddy.blob_of(owner);
          if (!blob) continue;
          if (std::find(active.begin(), active.end(), blob->holder) ==
              active.end())
            continue;
          try {
            ckpt = deserialize_cpscf(
                blob->bytes, "buddy replica of rank " + std::to_string(owner));
            ++stats.buddy_restores;
            obs::trace_instant("recovery/buddy_restore");
            AEQP_LOG_INFO << "RecoveryDriver[elastic]: restored iteration "
                          << ckpt->iteration << " from the replica of rank "
                          << owner << " held by rank " << blob->holder;
          } catch (const Error&) {
          }
        }
      }
      if (ckpt && ckpt->iteration >= 1 &&
          ckpt->iteration < popts.dfpt.max_iterations) {
        ctx.checkpoint_iteration = ckpt->iteration;
        ctx.prev_delta = ckpt->last_delta;
        auto ws = std::make_shared<core::CpscfWarmStart>();
        ws->iteration = ckpt->iteration;
        ws->p1 = std::move(ckpt->p1);
        popts.dfpt.warm_start = std::move(ws);
        ++stats.restores;
        obs::trace_instant("recovery/rollback");
      }
      backoff_sleep(ropt, key, attempt);
      throw_if_cancelled(ropt, "RecoveryDriver[elastic]", direction, attempt,
                         ctx.checkpoint_iteration);
    }

    popts.dfpt.observer = [&](const core::CpscfIterationState& s) {
      ctx.last_iteration = s.iteration;
      if (ropt.cancel && ropt.cancel()) {
        ctx.cancelled = true;
        return core::CpscfAction::Abort;
      }
      const HealthReport hr =
          check_iteration_health(*s.p1, s.delta, ctx.prev_delta, ropt.health);
      if (!hr.healthy) {
        ctx.fault = true;
        ctx.fault_reason = "iteration " + std::to_string(s.iteration) +
                           " unhealthy: " + hr.reason;
        return core::CpscfAction::Abort;
      }
      ctx.prev_delta = s.delta;
      // Soft-watermark polling, same contract as the non-elastic loop.
      if (ropt.memory_relief && mem_pressure().over_soft) {
        obs::trace_instant("membudget/soft_watermark");
        if (relieve_pressure() > 0) ++stats.relief_actions;
      }
      const auto save_checkpoint = [&] {
        CpscfCheckpoint ckpt;
        ckpt.direction = s.direction;
        ckpt.iteration = s.iteration;
        ckpt.mixing = s.mixing;
        ckpt.last_delta = s.delta;
        ckpt.p1 = *s.p1;
        store.save(key, ckpt);
        ctx.checkpoint_iteration = s.iteration;
      };
      if (s.iteration % ropt.checkpoint_every == 0) save_checkpoint();
      // Straggler rung trigger: close the work window and reclassify.
      // Only a NEW degraded rank aborts; a set the rung has already
      // rebalanced around (or a subset -- someone recovered) keeps
      // converging under the current weights.
      if (straggler != nullptr) {
        straggler->classify();
        if (straggler->any_degraded()) {
          const auto degraded = straggler->degraded_ranks();
          if (!degraded_subset_of(degraded, last_degraded)) {
            // The verdict iteration is health-validated: checkpoint it
            // even off the periodic cadence, so the rebalance re-entry
            // warm-starts at this very iteration -- a rebalance wastes
            // zero iterations whatever checkpoint_every is.
            if (ctx.checkpoint_iteration != s.iteration) save_checkpoint();
            ctx.straggler = true;
            std::string who;
            for (const auto r : degraded)
              who += (who.empty() ? "" : ",") + std::to_string(r);
            ctx.fault_reason = "rank(s) " + who +
                               " classified degraded at iteration " +
                               std::to_string(s.iteration) +
                               "; rebalancing before any shrink";
            return core::CpscfAction::Abort;
          }
        }
      }
      return core::CpscfAction::Continue;
    };
    // Buddy replication rides the per-iteration hook: the hook runs after
    // the observer's abort broadcast, so only health-validated iterations
    // are mirrored, on the same cadence as the file checkpoint.
    popts.rank_hook = [&](parallel::Communicator& comm,
                          const core::CpscfIterationState& s) {
      if (s.iteration % ropt.checkpoint_every != 0) return;
      CpscfCheckpoint ckpt;
      ckpt.direction = s.direction;
      ckpt.iteration = s.iteration;
      ckpt.mixing = s.mixing;
      ckpt.last_delta = s.delta;
      ckpt.p1 = *s.p1;
      buddy.replicate(comm, serialize(ckpt));
    };

    try {
      auto result = core::solve_direction_parallel(ground, popts, direction);
      stats.abft_corrections = abft_scope.stats().corrections;
      if (ctx.cancelled)
        throw_cancelled("RecoveryDriver[elastic]", direction, attempt,
                        ctx.last_iteration);
      if (!ctx.fault && !result.direction.aborted) {
        stats.remap_seconds = result.stats.remap_seconds;
        result.stats.faults_detected = stats.faults_detected;
        result.stats.restores = stats.restores;
        result.stats.retries = stats.retries;
        result.stats.wasted_iterations = stats.wasted_iterations;
        result.stats.shrinks = stats.shrinks;
        result.stats.buddy_restores = stats.buddy_restores;
        result.stats.abft_corrections = stats.abft_corrections;
        result.stats.invariant_violations = stats.invariant_violations;
        result.stats.payload_corruptions = stats.payload_corruptions;
        result.stats.rebalances = stats.rebalances;
        result.stats.degraded_ranks =
            std::max(result.stats.degraded_ranks, stats.degraded_ranks);
        return result;
      }
      last_reason = ctx.fault || ctx.straggler
                        ? ctx.fault_reason
                        : "solver aborted without a recovery request "
                          "(corrupted control payload?)";
      last_rank_failure = false;
      repeat_rank = kNone;  // a health fault breaks a same-rank failure streak
      repeat_count = 0;
    } catch (const parallel::RankFailure& e) {
      last_reason = e.what();
      last_rank_failure = true;
      last_observer_rank = e.observer_rank();
      // The exception carries CURRENT world ids; map back through the
      // survivor list so the permanence classification follows the physical
      // (original) rank across renumberings.
      const std::size_t failed_current = e.failed_rank();
      last_failed_original =
          failed_current < active.size() ? active[failed_current] : kNone;
      if (last_failed_original == repeat_rank) {
        ++repeat_count;
      } else {
        repeat_rank = last_failed_original;
        repeat_count = 1;
      }
    } catch (const parallel::CollectiveTimeout& e) {
      // A timeout is the straggler rung's backstop signal: an extreme
      // slowdown can blow the (adaptive) deadline before the per-iteration
      // classification sees a full window, so the catch path reclassifies
      // below and rebalances instead of burning plain retries.
      last_reason = e.what();
      last_rank_failure = false;
      timeout_fault = true;
      repeat_rank = kNone;
      repeat_count = 0;
    } catch (const parallel::PayloadCorruption& e) {
      // In-flight corruption is transient by assumption (a struck message,
      // not a struck node): it rolls back but never drives a shrink.
      last_reason = e.what();
      last_rank_failure = false;
      ++stats.payload_corruptions;
      repeat_rank = kNone;
      repeat_count = 0;
    } catch (const InvariantViolation& e) {
      last_reason = e.what();
      last_rank_failure = false;
      ++stats.invariant_violations;
      repeat_rank = kNone;
      repeat_count = 0;
    } catch (const linalg::AbftError& e) {
      last_reason = e.what();
      last_rank_failure = false;
      repeat_rank = kNone;
      repeat_count = 0;
    } catch (const OutOfMemoryBudget& e) {
      // A budget breach is not a node death: it never drives a shrink
      // (shrinking RAISES per-rank memory). It walks the relief ladder.
      last_reason = e.what();
      last_rank_failure = false;
      oom_fault = true;
      ++stats.oom_events;
      repeat_rank = kNone;
      repeat_count = 0;
      obs::trace_instant("recovery/oom");
    }
    stats.abft_corrections = abft_scope.stats().corrections;
    stats.wasted_iterations += static_cast<std::size_t>(
        std::max(0, ctx.last_iteration - ctx.checkpoint_iteration));
    if (ctx.straggler) {
      // A slow rank is a performance event, not a fault: it does not count
      // toward faults_detected, and the checkpoint taken just before the
      // abort makes the re-entry resume at the same iteration.
      AEQP_LOG_INFO << "RecoveryDriver[elastic]: straggler on attempt "
                    << attempt + 1 << " (" << last_reason
                    << "); re-entering from iteration "
                    << ctx.checkpoint_iteration;
    } else {
      ++stats.faults_detected;
      obs::trace_instant("recovery/fault_detected");
      AEQP_LOG_INFO << "RecoveryDriver[elastic]: fault on attempt "
                    << attempt + 1 << " (" << last_reason
                    << "); rolling back to iteration "
                    << ctx.checkpoint_iteration;
    }

    // --- Pressure-relief ladder: one more rung per OOM fault. Rung 1
    //     sheds the point-eval cache (bit-identical re-evaluation), rung 2
    //     runs the reclaimer registry (warm cache, buddy spill), rung 3
    //     shrinks the pack window and grid batch through the tune knobs.
    if (oom_fault && ropt.memory_relief) {
      ++oom_rung;
      if (oom_rung >= 1 && !relief_drop_point_cache && base.cache_point_evals) {
        relief_drop_point_cache = true;
        ++stats.relief_actions;
        obs::trace_instant("membudget/relief_point_cache");
      }
      if (oom_rung >= 2 && relieve_pressure() > 0) ++stats.relief_actions;
      if (oom_rung >= 3 && relief_pack_bytes == 0) {
        relief_pack_bytes = std::max<std::size_t>(
            tune::pack_window_bytes(base.pack_bytes) / 4, std::size_t{4096});
        relief_batch_points = std::max<std::size_t>(
            tune::grid_batch_points(base.batch_points) / 2, std::size_t{16});
        ++stats.relief_actions;
        obs::trace_instant("membudget/relief_shrink_windows");
      }
    }

    // --- Rebalance rung: fires BEFORE the shrink rung. A degraded-but-
    //     alive rank keeps its place in the world; the next attempt re-homes
    //     grid batches around the measured speed weights
    //     (mapping::rebalance_for_slow_ranks), so the run completes at full
    //     world size with bit-identical results. The timeout backstop
    //     reclassifies here because an extreme slowdown may have surfaced
    //     as CollectiveTimeout between iteration boundaries. ---
    if (straggler != nullptr && (ctx.straggler || timeout_fault)) {
      if (timeout_fault) straggler->classify();
      const auto degraded = straggler->degraded_ranks();
      if (!degraded.empty() && degraded != last_degraded) {
        rebalance_weights = straggler->speed_weights();
        // Shed policy: a rank that earned a degraded verdict keeps only a
        // token share (see RecoveryOptions::rebalance_shed_weight) -- the
        // measured ratio understates how sick it is, and healthy ranks
        // absorb the shed work at full speed.
        for (const std::size_t r : degraded)
          if (r < rebalance_weights.size())
            rebalance_weights[r] =
                std::min(rebalance_weights[r], ropt.rebalance_shed_weight);
        last_degraded = degraded;
        ++stats.rebalances;
        stats.degraded_ranks =
            std::max(stats.degraded_ranks, degraded.size());
        obs::trace_instant("recovery/rebalance");
        std::string who;
        for (const auto r : degraded)
          who += (who.empty() ? "" : ",") + std::to_string(r);
        AEQP_LOG_INFO << "RecoveryDriver[elastic]: rebalancing around "
                         "degraded rank(s) "
                      << who << " at full world size ("
                      << active.size() << " ranks) before any shrink";
      }
    }

    // --- Escalation rung 3: a rank that fails on consecutive attempts is a
    //     dead node, not a glitch -- retrying at the same world size would
    //     fail forever. Shrink it away and resume on the survivors. ---
    if (last_rank_failure && repeat_rank != kNone &&
        repeat_count >= ropt.permanent_failure_threshold) {
      if (active.size() <= ropt.min_ranks) {
        std::ostringstream msg;
        msg << "RecoveryDriver[elastic]: rank " << repeat_rank
            << " permanently failed but the world is already at the min_ranks"
               " floor ("
            << ropt.min_ranks << "); retry budget abandoned for direction "
            << direction << ", last failure: " << last_reason;
        obs::flight_on_error("RankFailure", msg.str());
        throw parallel::RankFailure(repeat_rank, last_observer_rank,
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
      if (straggler != nullptr) {
        // The dead rank must not pin a stale "degraded" verdict, and its
        // slowness samples must stop counting toward the cross-rank median.
        straggler->retain(active);
        last_degraded.erase(
            std::remove(last_degraded.begin(), last_degraded.end(),
                        repeat_rank),
            last_degraded.end());
      }
      ++stats.shrinks;
      ++stats.lost_ranks;
      obs::trace_instant("recovery/shrink");
      AEQP_LOG_INFO << "RecoveryDriver[elastic]: rank " << repeat_rank
                    << " classified permanent after " << repeat_count
                    << " consecutive failures; shrinking the world to "
                    << active.size() << " survivors (" << replicas_lost
                    << " buddy replicas died with it)";
      repeat_rank = kNone;
      repeat_count = 0;
    }

    if (attempt >= ropt.max_retries) {
      std::ostringstream msg;
      msg << "RecoveryDriver[elastic]: retry budget exhausted for direction "
          << direction << " after " << attempt + 1 << " attempts: "
          << stats.faults_detected << " faults detected, " << stats.shrinks
          << " shrinks, " << stats.restores
          << " checkpoint restores, last failure: " << last_reason;
      obs::flight_on_error(
          last_rank_failure ? "RankFailure"
                            : (oom_fault ? "OutOfMemoryBudget" : "Error"),
          msg.str());
      if (last_rank_failure)
        throw parallel::RankFailure(
            last_failed_original == kNone ? 0 : last_failed_original,
            last_observer_rank, msg.str());
      if (oom_fault)
        throw OutOfMemoryBudget(
            "recovery/" + key, 0,
            static_cast<std::size_t>(mem_budget_bytes()),
            static_cast<std::size_t>(std::max<std::int64_t>(mem_in_use(), 0)));
      AEQP_THROW(msg.str());
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
  AEQP_CHECK(options_.backoff_jitter >= 0.0 && options_.backoff_jitter < 1.0,
             "RecoveryDriver: backoff_jitter must be in [0, 1)");
}

core::DfptDirectionResult RecoveryDriver::solve_direction(
    const scf::ScfResult& ground, core::DfptOptions options, int direction) {
  return run_recovered(
      store_, options_, stats_, options, direction, "RecoveryDriver[serial]",
      [&](const core::DfptOptions& opts) {
        return core::DfptSolver(ground, opts).solve_direction(direction);
      },
      [](const core::DfptDirectionResult& r) { return r.aborted; },
      // The serial solver holds no shed-able caches of its own; relief is
      // the process-wide reclaimer registry.
      [](int /*rung*/) -> std::size_t {
        return relieve_pressure() > 0 ? std::size_t{1} : std::size_t{0};
      });
}

core::ParallelDfptResult RecoveryDriver::solve_direction_parallel(
    const scf::ScfResult& ground, core::ParallelDfptOptions options,
    int direction) {
  if (options_.elastic) {
    AEQP_CHECK(options_.min_ranks >= 1,
               "RecoveryDriver: min_ranks must be >= 1");
    AEQP_CHECK(options_.permanent_failure_threshold >= 1,
               "RecoveryDriver: permanent_failure_threshold must be >= 1");
    AEQP_CHECK(options.active_ranks.empty(),
               "RecoveryDriver: elastic recovery owns the active-rank set");
    return run_elastic(store_, options_, stats_, ground, options, direction);
  }
  auto result = run_recovered(
      store_, options_, stats_, options.dfpt, direction,
      "RecoveryDriver[parallel]",
      [&](const core::DfptOptions& opts) {
        core::ParallelDfptOptions popts = options;
        popts.dfpt = opts;
        return core::solve_direction_parallel(ground, popts, direction);
      },
      [](const core::ParallelDfptResult& r) { return r.direction.aborted; },
      // Pressure-relief ladder, cheapest rung first; mutations of `options`
      // persist across the remaining attempts of this solve.
      [&options](int rung) -> std::size_t {
        std::size_t actions = 0;
        if (rung >= 1 && options.cache_point_evals) {
          options.cache_point_evals = false;
          ++actions;
          obs::trace_instant("membudget/relief_point_cache");
        }
        if (rung >= 2 && relieve_pressure() > 0) ++actions;
        if (rung >= 3) {
          const std::size_t pack = tune::pack_window_bytes(options.pack_bytes);
          const std::size_t batch =
              tune::grid_batch_points(options.batch_points);
          const std::size_t shrunk_pack =
              std::max<std::size_t>(pack / 4, std::size_t{4096});
          const std::size_t shrunk_batch =
              std::max<std::size_t>(batch / 2, std::size_t{16});
          if (shrunk_pack < pack || shrunk_batch < batch) {
            options.pack_bytes = shrunk_pack;
            options.batch_points = shrunk_batch;
            ++actions;
            obs::trace_instant("membudget/relief_shrink_windows");
          }
        }
        return actions;
      });
  result.stats.faults_detected = stats_.faults_detected;
  result.stats.restores = stats_.restores;
  result.stats.retries = stats_.retries;
  result.stats.wasted_iterations = stats_.wasted_iterations;
  result.stats.abft_corrections = stats_.abft_corrections;
  result.stats.invariant_violations = stats_.invariant_violations;
  result.stats.payload_corruptions = stats_.payload_corruptions;
  return result;
}

obs::ScopedMetricsSource register_metrics(const RecoveryStats& stats,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&stats, prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const auto push = [&](const char* name, double v) {
          out.push_back({prefix + "/" + name, v});
        };
        push("faults_detected", static_cast<double>(stats.faults_detected));
        push("restores", static_cast<double>(stats.restores));
        push("retries", static_cast<double>(stats.retries));
        push("wasted_iterations", static_cast<double>(stats.wasted_iterations));
        push("shrinks", static_cast<double>(stats.shrinks));
        push("lost_ranks", static_cast<double>(stats.lost_ranks));
        push("buddy_restores", static_cast<double>(stats.buddy_restores));
        push("remap_seconds", stats.remap_seconds);
        push("abft_corrections", static_cast<double>(stats.abft_corrections));
        push("invariant_violations",
             static_cast<double>(stats.invariant_violations));
        push("payload_corruptions",
             static_cast<double>(stats.payload_corruptions));
        push("oom_events", static_cast<double>(stats.oom_events));
        push("relief_actions", static_cast<double>(stats.relief_actions));
        push("rebalances", static_cast<double>(stats.rebalances));
        push("degraded_ranks", static_cast<double>(stats.degraded_ranks));
      });
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
