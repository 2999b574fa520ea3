#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "linalg/abft.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace aeqp::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Accuracy cost of the ReducedAccuracy rung: the CPSCF tolerance is
/// multiplied by this (capped at 1e-3 absolute).
constexpr double kReducedAccuracyFactor = 100.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t ms_between(Clock::time_point a, Clock::time_point b) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
  return ms > 0 ? static_cast<std::size_t>(ms) : 0;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Succeeded: return "succeeded";
    case JobState::Rejected: return "rejected";
    case JobState::DeadlineExpired: return "deadline_expired";
    case JobState::Failed: return "failed";
  }
  return "unknown";
}

const char* service_tier_name(ServiceTier t) {
  switch (t) {
    case ServiceTier::Full: return "full";
    case ServiceTier::ReducedRanks: return "reduced_ranks";
    case ServiceTier::ReducedAccuracy: return "reduced_accuracy";
  }
  return "unknown";
}

/// Everything the server tracks about one admitted job. Shared between the
/// queue, the id map, and the executing worker; the record's outcome is
/// written by exactly one worker and read by waiters only after `terminal`
/// flips under the server mutex.
struct SolveServer::JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  Clock::time_point admitted{};
  Clock::time_point deadline{};
  JobOutcome outcome;
  bool terminal = false;
};

SolveServer::SolveServer(ServerOptions options)
    : options_(std::move(options)),
      store_(options_.checkpoint_dir),
      cache_(options_.cache),
      cache_reclaimer_("warm_cache", [this] { return cache_.clear(); }) {
  AEQP_CHECK(options_.workers >= 1, "SolveServer: need at least one worker");
  AEQP_CHECK(options_.queue_capacity >= 1,
             "SolveServer: queue capacity must be positive");
  AEQP_CHECK(options_.max_atoms >= 1, "SolveServer: max_atoms must be positive");
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveServer::~SolveServer() { shutdown(); }

std::uint64_t SolveServer::submit(JobSpec spec) {
  // Validate before touching the queue: a malformed job must never reach a
  // worker, and the rejection tells the client what to fix.
  std::string reason;
  if (spec.structure.size() == 0) {
    reason = "empty structure";
  } else if (spec.dfpt.observer) {
    reason = "DfptOptions::observer is owned by the recovery driver";
  } else if (spec.structure.size() > options_.max_atoms) {
    reason = "structure has " + std::to_string(spec.structure.size()) +
             " atoms, above the server limit of " +
             std::to_string(options_.max_atoms);
  } else if (spec.direction < 0 || spec.direction > 2) {
    reason = "perturbation direction must be 0, 1, or 2";
  } else if (spec.deadline.count() <= 0) {
    reason = "deadline must be positive";
  } else if (spec.ranks > 1 && spec.ranks_per_node == 0) {
    reason = "ranks_per_node must be positive";
  } else {
    for (const auto& atom : spec.structure.atoms()) {
      if (atom.z <= 0) {
        reason = "atomic number must be positive";
        break;
      }
      if (!std::isfinite(atom.pos.x) || !std::isfinite(atom.pos.y) ||
          !std::isfinite(atom.pos.z)) {
        reason = "non-finite atomic coordinate";
        break;
      }
    }
  }

  // Admission-time memory estimation: with a budget armed, a job whose
  // fitted-scaling estimate cannot fit is rejected up front -- a structured
  // refusal now beats an OutOfMemoryBudget after burning queue and solver
  // time. Estimation is per rank: MORE ranks mean LESS replicated state
  // each, so the estimate uses the ranks the job asked for.
  std::string reason_kind = "JobRejected";
  if (reason.empty() && resilience::mem_budget_enabled()) {
    const std::size_t ranks = std::max<std::size_t>(spec.ranks, 1);
    const std::size_t estimate =
        resilience::estimate_job_memory(spec.structure.size(), ranks);
    const std::size_t budget = resilience::mem_budget_bytes();
    if (estimate > budget) {
      reason = "estimated per-rank memory " + std::to_string(estimate) +
               " bytes exceeds the budget of " + std::to_string(budget) +
               " bytes";
      reason_kind = "MemoryBudgetExceeded";
    }
  }

  std::unique_lock<std::mutex> lk(mutex_);
  if (!reason.empty()) {
    if (reason_kind == "MemoryBudgetExceeded") {
      ++stats_.rejected_memory;
    } else {
      ++stats_.rejected_invalid;
    }
    lk.unlock();
    obs::trace_instant("service/reject");
    throw JobRejected(reason, reason_kind);
  }
  if (!accepting_) {
    ++stats_.rejected_invalid;
    lk.unlock();
    obs::trace_instant("service/reject");
    throw JobRejected("server is shutting down");
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++stats_.rejected_queue_full;
    const std::size_t depth = queue_.size();
    lk.unlock();
    obs::trace_instant("service/shed");
    throw QueueFull(depth, options_.queue_capacity);
  }

  auto rec = std::make_shared<JobRecord>();
  rec->id = next_id_++;
  rec->spec = std::move(spec);
  rec->admitted = Clock::now();
  rec->deadline = rec->admitted + rec->spec.deadline;
  rec->outcome.id = rec->id;
  rec->outcome.state = JobState::Queued;
  jobs_.emplace(rec->id, rec);
  queue_.push_back(rec);
  ++stats_.submitted;
  ++stats_.admitted;
  stats_.queue_depth = queue_.size();
  const std::uint64_t id = rec->id;
  lk.unlock();
  cv_work_.notify_one();
  obs::trace_instant("service/admit");
  return id;
}

JobOutcome SolveServer::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mutex_);
  const auto it = jobs_.find(id);
  AEQP_CHECK(it != jobs_.end(),
             "SolveServer::wait: unknown or already-collected job id");
  const std::shared_ptr<JobRecord> rec = it->second;
  cv_done_.wait(lk, [&] { return rec->terminal; });
  JobOutcome out = std::move(rec->outcome);
  jobs_.erase(id);
  return out;
}

void SolveServer::shutdown() {
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    accepting_ = false;
    stopping_ = true;
    // Shed still-queued jobs with a structured terminal outcome -- a
    // shutdown must not leave a waiter blocked on a job nobody will run.
    for (const auto& rec : queue_) {
      rec->outcome.state = JobState::Rejected;
      rec->outcome.error = "job rejected: server shut down before execution";
      rec->outcome.error_kind = "JobRejected";
      rec->outcome.queue_seconds = seconds_between(rec->admitted, Clock::now());
      rec->terminal = true;
      ++stats_.completed;
      ++stats_.shed_on_shutdown;
    }
    queue_.clear();
    stats_.queue_depth = 0;
    workers.swap(workers_);
  }
  cv_work_.notify_all();
  cv_done_.notify_all();
  for (std::thread& w : workers) w.join();
}

ServerStats SolveServer::stats() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  ServerStats s = stats_;
  s.queue_depth = queue_.size();
  return s;
}

void SolveServer::worker_loop() {
  for (;;) {
    std::shared_ptr<JobRecord> rec;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_work_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      rec = queue_.front();
      queue_.pop_front();
      stats_.queue_depth = queue_.size();
      ++stats_.in_flight;
      rec->outcome.state = JobState::Running;
    }
    execute(*rec);
  }
}

void SolveServer::finish(JobRecord& rec, JobOutcome&& outcome) {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    rec.outcome = std::move(outcome);
    rec.terminal = true;
    // Same critical section as the terminal flip: a waiter woken by this
    // job must never still see it counted as in flight.
    --stats_.in_flight;
    ++stats_.completed;
    stats_.degradations += static_cast<std::size_t>(rec.outcome.degradations);
    stats_.rebalances += rec.outcome.recovery.rebalances;
    stats_.degraded_ranks_seen = std::max(stats_.degraded_ranks_seen,
                                          rec.outcome.recovery.degraded_ranks);
    switch (rec.outcome.state) {
      case JobState::Succeeded: ++stats_.succeeded; break;
      case JobState::Failed: ++stats_.failed; break;
      case JobState::DeadlineExpired: ++stats_.deadline_expired; break;
      default: break;
    }
  }
  cv_done_.notify_all();
}

void SolveServer::execute(JobRecord& rec) {
  const Clock::time_point started = Clock::now();
  const std::size_t budget_ms =
      static_cast<std::size_t>(rec.spec.deadline.count());

  JobOutcome out;
  out.id = rec.id;
  out.queue_seconds = seconds_between(rec.admitted, started);

  const auto expired = [&rec] { return Clock::now() >= rec.deadline; };
  const auto elapsed_ms = [&rec] { return ms_between(rec.admitted, Clock::now()); };

  // Per-job isolation: ABFT counters scoped to this job (rank threads
  // inherit the scope), checkpoints under a private namespace that is
  // garbage-collected below on every terminal path.
  const linalg::AbftStatsScope abft_scope;
  resilience::CheckpointStore job_store =
      store_.scoped("job-" + std::to_string(rec.id));

  try {
    AEQP_TRACE_SCOPE("service/job");
    if (expired()) {
      throw DeadlineExceeded("job expired while queued", budget_ms,
                             elapsed_ms());
    }

    // --- Ground state: warm cache, then SCF with deadline observer. ---
    const std::uint64_t s_hash = structure_hash(rec.spec.structure);
    const std::uint64_t g_key = s_hash ^ scf_options_hash(rec.spec.scf);
    std::shared_ptr<const scf::ScfResult> ground = cache_.find_ground(g_key);
    if (ground) {
      out.ground_cache_hit = true;
    } else {
      scf::ScfOptions sopt = rec.spec.scf;
      if (auto ws = cache_.find_density(s_hash)) {
        sopt.warm_start =
            std::make_shared<const scf::ScfWarmStart>(std::move(*ws));
        out.density_warm_start = true;
      }
      bool deadline_abort = false;
      sopt.observer = [&](const scf::ScfIterationState&) {
        if (expired()) {
          deadline_abort = true;
          return scf::ScfAction::Abort;
        }
        return scf::ScfAction::Continue;
      };
      scf::ScfResult res = scf::ScfSolver(rec.spec.structure, sopt).run();
      if (!res.converged && !deadline_abort && sopt.warm_start) {
        // Belt-and-braces beyond the CRC check: a warm start that fails to
        // converge (hash collision, stale geometry) costs one cold rerun,
        // never the job.
        sopt.warm_start.reset();
        out.density_warm_start = false;
        res = scf::ScfSolver(rec.spec.structure, sopt).run();
      }
      if (deadline_abort) {
        throw DeadlineExceeded("deadline expired during SCF", budget_ms,
                               elapsed_ms());
      }
      AEQP_CHECK(res.converged, "SCF failed to converge within max_iterations");
      out.scf_iterations = res.iterations;
      auto shared = std::make_shared<const scf::ScfResult>(std::move(res));
      cache_.put_ground(g_key, shared);
      cache_.put_density(s_hash, shared->density_matrix);
      ground = std::move(shared);
    }

    // --- CPSCF under the degradation ladder. ---
    struct Rung {
      ServiceTier tier;
      std::size_t ranks;  // 1 = the serial solver's one-rank world
      core::DfptOptions dfpt;
    };
    core::DfptOptions base = rec.spec.dfpt;
    // Non-convergence must surface as a fault the ladder can act on, not as
    // a silently unconverged "result".
    base.require_convergence = true;
    std::vector<Rung> rungs;
    rungs.push_back(
        {ServiceTier::Full, std::max<std::size_t>(rec.spec.ranks, 1), base});
    if (rec.spec.allow_degradation) {
      if (rec.spec.ranks > 1) {
        // Memory-aware ladder: halving the ranks RAISES the per-rank
        // footprint (the same replicated state spread over fewer ranks).
        // Under an armed budget the rung is skipped when the halved-world
        // estimate no longer fits -- degrading into a guaranteed OOM is
        // worse than jumping straight to the serial reduced-accuracy tier.
        const std::size_t half = rec.spec.ranks / 2;
        const bool fits =
            !resilience::mem_budget_enabled() ||
            resilience::estimate_job_memory(rec.spec.structure.size(), half) <=
                resilience::mem_budget_bytes();
        if (fits) {
          rungs.push_back({ServiceTier::ReducedRanks, half, base});
        } else {
          obs::trace_instant("service/skip_reduced_ranks");
        }
      }
      core::DfptOptions loose = base;
      loose.tolerance =
          std::min(base.tolerance * kReducedAccuracyFactor, 1e-3);
      rungs.push_back({ServiceTier::ReducedAccuracy, 1, loose});
    }

    std::string last_error = "degradation ladder exhausted";
    std::string last_kind = "Error";
    bool solved = false;
    for (std::size_t i = 0; i < rungs.size() && !solved; ++i) {
      const Rung& rung = rungs[i];
      if (expired()) {
        throw DeadlineExceeded(
            "deadline expired before tier " +
                std::string(service_tier_name(rung.tier)) + " could start",
            budget_ms, elapsed_ms());
      }
      resilience::RecoveryOptions ropt = options_.recovery;
      // The per-job store is already namespaced; a per-rung key keeps a
      // degraded retry from resuming a previous tier's trajectory.
      ropt.checkpoint_key = "cpscf-tier" + std::to_string(i);
      ropt.cancel = expired;
      resilience::RecoveryDriver driver(job_store, ropt);
      try {
        std::size_t rung_ranks = rung.ranks;
        // Degraded-rank awareness: when an earlier tier reported N degraded
        // (slow but alive) ranks, the ReducedRanks rung drops only those N
        // instead of blindly halving -- losing the minimum compute the
        // evidence justifies. A larger world than the pre-checked half has
        // a LOWER per-rank footprint, so the admission memory estimate
        // still holds.
        if (rung.tier == ServiceTier::ReducedRanks &&
            out.recovery.degraded_ranks > 0 &&
            rec.spec.ranks > out.recovery.degraded_ranks) {
          const std::size_t spared =
              rec.spec.ranks - out.recovery.degraded_ranks;
          if (spared > rung_ranks) {
            rung_ranks = spared;
            obs::trace_instant("service/degraded_aware_ranks");
          }
        }
        core::ParallelDfptOptions popts;
        popts.dfpt = rung.dfpt;
        popts.ranks = rung_ranks;
        popts.ranks_per_node =
            std::clamp<std::size_t>(rec.spec.ranks_per_node, 1, rung_ranks);
        // The reduced-accuracy tier exists to leave the faulty cluster.
        if (rung.tier != ServiceTier::ReducedAccuracy)
          popts.fault_injector = rec.spec.fault_injector;
        // A collective may not out-wait the job: clamp its timeout to the
        // remaining budget so a stalled rank surfaces as a recoverable
        // CollectiveTimeout inside the deadline.
        const std::size_t left =
            budget_ms > elapsed_ms() ? budget_ms - elapsed_ms() : 1;
        popts.collective_timeout_ms =
            std::min(popts.collective_timeout_ms, std::max<std::size_t>(left, 1));
        out.result =
            driver.solve_direction_parallel(*ground, popts, rec.spec.direction)
                .direction;
        out.recovery += driver.last_stats();
        out.tier = rung.tier;
        out.state = JobState::Succeeded;
        solved = true;
      } catch (const DeadlineExceeded&) {
        out.recovery += driver.last_stats();
        throw;  // the budget is gone; no further rung can help
      } catch (const std::exception& e) {
        out.recovery += driver.last_stats();
        last_error = e.what();
        last_kind = error_kind(e);
        if (i + 1 < rungs.size()) {
          ++out.degradations;
          obs::trace_instant("service/degrade");
        }
      }
    }
    if (!solved) {
      out.state = JobState::Failed;
      out.error = last_error;
      out.error_kind = last_kind;
      // Terminal for this job: every degradation rung failed. Dump the
      // flight recorder so the post-mortem shows the run-up.
      obs::flight_on_error(out.error_kind.c_str(), out.error);
    }
  } catch (const DeadlineExceeded& e) {
    out.state = JobState::DeadlineExpired;
    out.error = e.what();
    out.error_kind = e.kind();
    obs::trace_instant("service/deadline");
    obs::flight_on_error(out.error_kind.c_str(), out.error);
  } catch (const std::exception& e) {
    // Job-boundary isolation: any escape becomes THIS job's structured
    // failure; the worker, the queue, and sibling jobs are unaffected.
    out.state = JobState::Failed;
    out.error = e.what();
    out.error_kind = error_kind(e);
    obs::flight_on_error(out.error_kind.c_str(), out.error);
  }

  out.abft = abft_scope.stats();
  // Checkpoint hygiene: the job's namespace dies with the job. A GC failure
  // is counted and reported, never fatal to an already-terminal job.
  try {
    job_store.clear();
    std::error_code ec;
    std::filesystem::remove(options_.checkpoint_dir /
                                ("job-" + std::to_string(rec.id)),
                            ec);
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.checkpoint_gc_failures;
  }
  out.run_seconds = seconds_between(started, Clock::now());
  finish(rec, std::move(out));
}

obs::ScopedMetricsSource register_metrics(const SolveServer& server,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&server,
       prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const ServerStats s = server.stats();
        const auto push = [&](const char* name, double v) {
          out.push_back({prefix + "/" + name, v});
        };
        push("submitted", static_cast<double>(s.submitted));
        push("admitted", static_cast<double>(s.admitted));
        push("rejected_queue_full", static_cast<double>(s.rejected_queue_full));
        push("rejected_invalid", static_cast<double>(s.rejected_invalid));
        push("rejected_memory", static_cast<double>(s.rejected_memory));
        push("completed", static_cast<double>(s.completed));
        push("succeeded", static_cast<double>(s.succeeded));
        push("failed", static_cast<double>(s.failed));
        push("deadline_expired", static_cast<double>(s.deadline_expired));
        push("degradations", static_cast<double>(s.degradations));
        push("rebalances", static_cast<double>(s.rebalances));
        push("degraded_ranks_seen",
             static_cast<double>(s.degraded_ranks_seen));
        push("shed_on_shutdown", static_cast<double>(s.shed_on_shutdown));
        push("checkpoint_gc_failures",
             static_cast<double>(s.checkpoint_gc_failures));
        push("queue_depth", static_cast<double>(s.queue_depth));
        push("in_flight", static_cast<double>(s.in_flight));
      });
}

}  // namespace aeqp::service
