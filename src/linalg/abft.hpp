#pragma once

/// \file abft.hpp
/// Algorithm-based fault tolerance (Huang-Abraham checksums) for the matmul
/// kernels that dominate the DM-build and Sternheimer paths. The product
/// C = A*B satisfies two exact linear identities:
///
///   row sums:    C * e = A * (B * e)
///   column sums: e^T * C = (e^T * A) * B
///
/// both computable in O(n^2) against the O(n^3) product. A single corrupted
/// element C(i,j) shows up as a matching residual in row i and column j;
/// the intersection locates it, and recomputing that one dot product (in
/// the kernel's exact accumulation order) restores the bit-exact value.
/// Multi-element corruption beyond one row/column pair is detected but not
/// correctable; detect-only mode never mutates and always throws on
/// detection, letting the caller choose recompute-vs-rollback.
///
/// Fault-free, abft_matmul returns exactly matmul(a, b) -- the checksums
/// only read -- so the bit-for-bit determinism contract of
/// docs/parallelism.md is preserved. The verified product is probed via
/// resilience::sdc_probe *before* verification, so a planted compute-site
/// fault exercises the same detect -> locate -> correct path a real upset
/// would.

#include <cstddef>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace aeqp::linalg {

enum class AbftMode {
  DetectOnly,      ///< throw AbftError on any detected corruption
  CorrectInPlace,  ///< single-element: locate + exact recompute; else throw
};

/// Thrown when a checksum violation cannot be (or must not be) corrected.
/// Carries the site so the recovery ladder can account the escalation.
class AbftError : public Error {
public:
  AbftError(const std::string& site, const std::string& what)
      : Error("ABFT: " + what + " at " + site), site_(site) {}
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] std::string kind() const override { return "AbftError"; }

private:
  std::string site_;
};

/// Counters of what the ABFT layer observed: process-wide and cumulative,
/// the values of the obs counters "abft/checks", "abft/detections",
/// "abft/corrections" and "abft/uncorrectable" (obs::reset_counters zeroes
/// them).
struct AbftStats {
  std::size_t checks = 0;         ///< verified products
  std::size_t detections = 0;     ///< products with a checksum violation
  std::size_t corrections = 0;    ///< single-element corruptions fixed
  std::size_t uncorrectable = 0;  ///< violations escalated to the caller
};

[[nodiscard]] AbftStats abft_stats();

/// Scoped ABFT accounting for long-lived multi-tenant processes: the
/// process-wide AbftStats accumulate across every job a solve server runs,
/// so "delta the global counters" mis-attributes work the moment two jobs
/// overlap. An AbftStatsScope opens a private accumulator on the
/// constructing thread (via the common/task_scope.hpp context, which simmpi
/// rank threads inherit), so stats() reports exactly the checks/detections/
/// corrections performed on behalf of this scope -- including work done on
/// rank threads the scope's task spawned, and excluding every concurrent
/// sibling. Scopes nest: an inner scope (e.g. a RecoveryDriver attempt)
/// also credits its enclosing scope (the owning service job). The global
/// counters keep accumulating unchanged.
class AbftStatsScope {
public:
  AbftStatsScope();
  ~AbftStatsScope();
  AbftStatsScope(const AbftStatsScope&) = delete;
  AbftStatsScope& operator=(const AbftStatsScope&) = delete;

  /// Counts observed while this scope has been active (live; callable
  /// before destruction and from the owning thread at any time).
  [[nodiscard]] AbftStats stats() const;

  struct Slot;  ///< opaque accumulator (defined in abft.cpp)

private:
  std::unique_ptr<Slot> slot_;
  void* prev_scope_ = nullptr;
};

/// C = A * B with checksum verification of the product. `site` (a static
/// string) names the call site in probes, traces, and errors.
[[nodiscard]] Matrix abft_matmul(const Matrix& a, const Matrix& b,
                                 const char* site,
                                 AbftMode mode = AbftMode::CorrectInPlace);

/// C = A^T * B with checksum verification of the product.
[[nodiscard]] Matrix abft_matmul_tn(const Matrix& a, const Matrix& b,
                                    const char* site,
                                    AbftMode mode = AbftMode::CorrectInPlace);

}  // namespace aeqp::linalg
