#pragma once

/// \file server.hpp
/// SolveServer: a long-lived multi-tenant DFPT solve service over the
/// existing ThreadPool + simmpi machinery (ROADMAP item 1). Robustness is
/// the headline contract:
///
///   **No input, fault, or load pattern may crash the server or wedge the
///   queue; every admitted job terminates with a result or a structured
///   error.**
///
/// The contract is enforced in four layers:
///
///  - **Admission control + backpressure.** A bounded queue; submissions
///    beyond capacity are shed with a structured QueueFull (never a silent
///    drop), malformed or oversized requests with JobRejected before they
///    can poison a worker. The job's wall-clock deadline starts at
///    admission, so queue wait spends the same budget as compute.
///
///  - **Deadlines + degradation ladder.** Each job runs under a
///    deadline-aware RecoveryDriver (checkpointed retry,
///    RecoveryOptions::cancel polled every CPSCF iteration). When
///    retries keep failing, the server degrades instead of spinning:
///    damped retry (inside the driver) -> reduced simmpi ranks -> a
///    reduced-accuracy serial tier -> structured DeadlineExceeded/Failed.
///    Every rung taken is reported in the outcome.
///
///  - **Hard job isolation.** A job's RankFailure, AbftError,
///    InvariantViolation -- any exception at all -- is caught at the job
///    boundary and converted into that job's terminal outcome; sibling
///    jobs and server state are untouched (an unaffected job's result is
///    bit-identical to its solo run). Each job gets its own checkpoint
///    namespace (garbage-collected on terminal states), its own
///    RecoveryStats, and a scoped ABFT accumulator instead of process-wide
///    deltas.
///
///  - **Warm-state cache.** Converged ground states (with their radial
///    splines, angular tables, and basis tabulations) and structure-hashed
///    densities are reused across requests with LRU bounds and CRC-checked,
///    corruption-safe invalidation (see warm_cache.hpp).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/membudget.hpp"
#include "resilience/recovery.hpp"
#include "service/job.hpp"
#include "service/warm_cache.hpp"

namespace aeqp::service {

/// Server configuration.
struct ServerOptions {
  std::size_t workers = 2;         ///< concurrent job executors
  std::size_t queue_capacity = 8;  ///< admitted-but-not-running bound
  /// Admission guard: structures above this atom count are rejected with a
  /// structured JobRejected (an oversized job would blow the deadline of
  /// every sibling behind it in the queue).
  std::size_t max_atoms = 64;
  /// Root of the per-job checkpoint namespaces ("job-<id>/" subdirectories,
  /// removed when the job reaches a terminal state).
  std::filesystem::path checkpoint_dir;
  /// Per-attempt retry policy handed to every job's RecoveryDriver; the
  /// server owns checkpoint_key and cancel.
  resilience::RecoveryOptions recovery;
  WarmCacheOptions cache;
};

/// Monotonic server-wide counters plus live gauges; snapshot via
/// SolveServer::stats(). Per-job numbers live in each JobOutcome -- these
/// are the fleet view the obs dashboard scrapes.
struct ServerStats {
  std::size_t submitted = 0;            ///< submit() calls that passed validation
  std::size_t admitted = 0;             ///< entered the queue
  std::size_t rejected_queue_full = 0;  ///< shed by backpressure
  std::size_t rejected_invalid = 0;     ///< malformed/oversized at admission
  std::size_t rejected_memory = 0;      ///< estimated footprint over budget
  std::size_t completed = 0;            ///< reached a terminal state
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t deadline_expired = 0;
  std::size_t degradations = 0;         ///< ladder rungs taken, fleet-wide
  std::size_t rebalances = 0;           ///< straggler rebalances, fleet-wide
  std::size_t degraded_ranks_seen = 0;  ///< peak degraded ranks in one job
  std::size_t shed_on_shutdown = 0;     ///< queued jobs rejected by shutdown()
  std::size_t checkpoint_gc_failures = 0;  ///< clear() errors (logged, non-fatal)
  std::size_t queue_depth = 0;          ///< gauge: waiting jobs
  std::size_t in_flight = 0;            ///< gauge: running jobs
};

class SolveServer {
public:
  /// Spawns `options.workers` executor threads. `checkpoint_dir` must be
  /// usable (created if missing).
  explicit SolveServer(ServerOptions options);

  /// Drains running jobs, sheds queued ones with a structured error, joins
  /// the workers (equivalent to shutdown()).
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Admit a job. Returns its id on admission; throws QueueFull when the
  /// bounded queue is at capacity (backpressure -- retry later) and
  /// JobRejected when the spec itself is unservable (oversized structure,
  /// non-finite coordinates, bad direction -- retrying unchanged is
  /// pointless). With a per-rank memory budget armed (AEQP_MEM_BUDGET), a
  /// job whose resilience::estimate_job_memory exceeds it is rejected with
  /// kind "MemoryBudgetExceeded"; the same estimate skips a ReducedRanks
  /// rung that no longer fits. Never blocks on the queue.
  std::uint64_t submit(JobSpec spec);

  /// Block until job `id` reaches a terminal state; returns its outcome and
  /// releases the server's record of it (a second wait on the same id
  /// throws). Every admitted job terminates, so wait() always returns.
  [[nodiscard]] JobOutcome wait(std::uint64_t id);

  /// Stop admitting, shed still-queued jobs with a structured shutdown
  /// error, let running jobs finish, join workers. Idempotent.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] WarmCache& cache() { return cache_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

private:
  struct JobRecord;

  void worker_loop();
  void execute(JobRecord& rec);
  void finish(JobRecord& rec, JobOutcome&& outcome);

  ServerOptions options_;
  resilience::CheckpointStore store_;
  WarmCache cache_;
  /// Registers the warm cache with the membudget relief ladder: under
  /// memory pressure the governor may clear it (recompute-only cost).
  /// Declared after cache_ so it unregisters before the cache dies.
  resilience::ScopedMemReclaimer cache_reclaimer_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   ///< queue became non-empty / stopping
  std::condition_variable cv_done_;   ///< some job reached a terminal state
  std::deque<std::shared_ptr<JobRecord>> queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<JobRecord>> jobs_;
  std::vector<std::thread> workers_;
  ServerStats stats_;
  std::uint64_t next_id_ = 1;
  bool accepting_ = true;
  bool stopping_ = false;
};

/// Register a live view of `server`'s stats as an obs metrics source
/// ("<prefix>/queue_depth", "<prefix>/in_flight", "<prefix>/rejected_queue_full",
/// ...). The server must outlive the registration. The warm cache has its
/// own source (service::register_metrics(WarmCache&)).
[[nodiscard]] obs::ScopedMetricsSource register_metrics(
    const SolveServer& server, std::string prefix = "service");

}  // namespace aeqp::service
