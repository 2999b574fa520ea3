#pragma once

/// \file error.hpp
/// Error handling primitives shared by every AEQP module.
///
/// Library code throws aeqp::Error for recoverable misuse and uses
/// AEQP_ASSERT for internal invariants that indicate a programming bug.

#include <cstddef>
#include <stdexcept>
#include <string>

namespace aeqp {

/// Exception type thrown by all AEQP components on invalid input or
/// unsatisfiable requests (bad dimensions, non-convergence, ...).
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  /// Taxonomy name of the failure: "Error" here, the class name in every
  /// structured error below. Flight dumps, job outcomes and the recovery
  /// driver all name a failure by it.
  [[nodiscard]] virtual std::string kind() const { return "Error"; }
};

/// Taxonomy name of any exception: an aeqp::Error's kind(), "BadAlloc" for
/// a std::bad_alloc, "std::exception" for any other standard exception.
[[nodiscard]] std::string error_kind(const std::exception& e);

/// A physics or numerical invariant failed its check: the all-electron
/// formulation guarantees exact conserved quantities (electron count,
/// Hermiticity, trace identities, finiteness) whose violation is the
/// signature of silent data corruption, not of a user mistake. Carries the
/// invariant's name and site so the recovery ladder (ABFT correct ->
/// recompute -> rollback -> shrink; see docs/sdc.md) can report and route it.
class InvariantViolation : public Error {
public:
  InvariantViolation(std::string invariant, std::string site, double measured,
                     double expected)
      : Error("invariant violation: " + invariant + " at " + site +
              " (measured " + std::to_string(measured) + ", expected " +
              std::to_string(expected) + ")"),
        invariant_(std::move(invariant)),
        site_(std::move(site)),
        measured_(measured),
        expected_(expected) {}

  /// Which invariant failed, e.g. "finite", "hermitian", "electron_count".
  [[nodiscard]] const std::string& invariant() const noexcept {
    return invariant_;
  }
  /// Where it was checked, e.g. "cpscf/rho" or "scf/hamiltonian".
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] double measured() const noexcept { return measured_; }
  [[nodiscard]] double expected() const noexcept { return expected_; }
  [[nodiscard]] std::string kind() const override { return "InvariantViolation"; }

private:
  std::string invariant_;
  std::string site_;
  double measured_;
  double expected_;
};

/// Admission control rejected a request because the bounded queue is at
/// capacity (backpressure / load shedding). Structured so clients can tell
/// "try again later" apart from "this request is wrong": a QueueFull is
/// never the job's fault, and the carried depth/capacity let callers size
/// their retry policy.
class QueueFull : public Error {
public:
  QueueFull(std::size_t depth, std::size_t capacity)
      : Error("queue full: " + std::to_string(depth) + "/" +
              std::to_string(capacity) + " jobs queued; request shed"),
        depth_(depth),
        capacity_(capacity) {}

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::string kind() const override { return "QueueFull"; }

private:
  std::size_t depth_;
  std::size_t capacity_;
};

/// Admission control rejected a request on its merits: oversized, malformed
/// (non-finite coordinates, empty structure), estimated to exceed the
/// per-rank memory budget, or otherwise unservable. The request itself is at
/// fault -- retrying unchanged will be rejected again. `kind` refines the
/// rejection for the structured-error taxonomy ("JobRejected" for plain
/// validation failures, "MemoryBudgetExceeded" for admission-time memory
/// estimates that cannot fit AEQP_MEM_BUDGET).
class JobRejected : public Error {
public:
  explicit JobRejected(const std::string& reason,
                       std::string kind = "JobRejected")
      : Error("job rejected: " + reason),
        reason_(reason),
        kind_(std::move(kind)) {}

  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }
  /// Taxonomy kind: "JobRejected" or "MemoryBudgetExceeded".
  [[nodiscard]] std::string kind() const override { return kind_; }

private:
  std::string reason_;
  std::string kind_;
};

/// A deadline-bounded computation ran out of budget. Raised by the
/// resilience layer when a RecoveryOptions::cancel hook trips mid-solve and
/// by the service layer when a job's wall-clock budget expires before any
/// degradation rung can finish. Carries budget and elapsed milliseconds so
/// clients can distinguish "barely missed" from "hopelessly oversized".
class DeadlineExceeded : public Error {
public:
  DeadlineExceeded(const std::string& what, std::size_t budget_ms,
                   std::size_t elapsed_ms)
      : Error("deadline exceeded: " + what + " (budget " +
              std::to_string(budget_ms) + " ms, elapsed " +
              std::to_string(elapsed_ms) + " ms)"),
        budget_ms_(budget_ms),
        elapsed_ms_(elapsed_ms) {}

  /// Raised by layers that only see the cancellation verdict, not the
  /// budget (e.g. a RecoveryDriver whose cancel hook tripped); budget_ms()
  /// and elapsed_ms() report 0 = unknown.
  explicit DeadlineExceeded(const std::string& what)
      : Error("deadline exceeded: " + what) {}

  [[nodiscard]] std::size_t budget_ms() const noexcept { return budget_ms_; }
  [[nodiscard]] std::size_t elapsed_ms() const noexcept { return elapsed_ms_; }
  [[nodiscard]] std::string kind() const override { return "DeadlineExceeded"; }

private:
  std::size_t budget_ms_ = 0;
  std::size_t elapsed_ms_ = 0;
};

/// The per-rank memory-budget governor (resilience/membudget.hpp) refused an
/// allocation: admitting `requested_bytes` more at `site` would cross the
/// hard watermark of the AEQP_MEM_BUDGET ceiling (or an OomInjector fired
/// there). This is the structured replacement for an unrecoverable
/// std::bad_alloc: it names the allocation site and carries the live byte
/// accounting so the pressure-relief ladder (drop point cache, evict warm
/// cache, shrink staging windows, spill buddy replicas) can route it like
/// any other fault class instead of aborting the run.
class OutOfMemoryBudget : public Error {
public:
  OutOfMemoryBudget(std::string site, std::size_t requested_bytes,
                    std::size_t budget_bytes, std::size_t in_use_bytes)
      : Error("out of memory budget: " + site + " requested " +
              std::to_string(requested_bytes) + " bytes with " +
              std::to_string(in_use_bytes) + " of " +
              std::to_string(budget_bytes) + " budget bytes in use"),
        site_(std::move(site)),
        requested_bytes_(requested_bytes),
        budget_bytes_(budget_bytes),
        in_use_bytes_(in_use_bytes) {}

  /// The allocation site that breached, e.g. "dfpt/point_cache".
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] std::size_t requested_bytes() const noexcept {
    return requested_bytes_;
  }
  /// The hard ceiling in force; 0 when the breach came from an injector
  /// with no byte budget armed.
  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return budget_bytes_;
  }
  [[nodiscard]] std::size_t in_use_bytes() const noexcept {
    return in_use_bytes_;
  }
  [[nodiscard]] std::string kind() const override { return "OutOfMemoryBudget"; }

private:
  std::string site_;
  std::size_t requested_bytes_;
  std::size_t budget_bytes_;
  std::size_t in_use_bytes_;
};

namespace detail {
[[noreturn]] void throw_error(const char* file, int line, const std::string& msg);
[[noreturn]] void assert_fail(const char* file, int line, const char* expr);
}  // namespace detail

}  // namespace aeqp

/// Throw aeqp::Error with file/line context.
#define AEQP_THROW(msg) ::aeqp::detail::throw_error(__FILE__, __LINE__, (msg))

/// Validate a user-facing precondition; throws aeqp::Error when violated.
#define AEQP_CHECK(cond, msg)                                  \
  do {                                                         \
    if (!(cond)) ::aeqp::detail::throw_error(__FILE__, __LINE__, (msg)); \
  } while (0)

/// Internal invariant check; enabled in all build types because the library
/// is numerical and silent corruption is worse than an abort.
#define AEQP_ASSERT(expr)                                      \
  do {                                                         \
    if (!(expr)) ::aeqp::detail::assert_fail(__FILE__, __LINE__, #expr); \
  } while (0)
