#pragma once

/// \file health.hpp
/// Numerical health validation for iterative solver state. A fault that
/// corrupts a collective payload (bit flip, NaN, Inf) does not announce
/// itself; it surfaces as a non-finite or absurdly large response density
/// matrix, or as a residual that jumps by orders of magnitude between
/// iterations. These checks turn that silent poisoning into a detected
/// fault the recovery driver can roll back.

#include <string>

#include "linalg/matrix.hpp"

namespace aeqp::resilience {

/// Bounds a healthy CPSCF/SCF iteration must satisfy.
struct HealthPolicy {
  bool check_finite = true;      ///< reject NaN/Inf anywhere in the state
  double max_abs_value = 1e8;    ///< ceiling on |state| entries
  /// The residual may grow at most this factor between consecutive
  /// iterations. Pulay residuals are not monotone -- the worst legitimate
  /// CPSCF growth measured is 1.3x per iteration (H2, H4, CH4 and a
  /// 14-atom chain at mixing 0.0625-0.5) -- while a corrupted payload
  /// blows the residual up by many orders.
  double max_delta_growth = 1e3;
};

/// Outcome of a health check; `reason` names the violated bound.
struct HealthReport {
  bool healthy = true;
  std::string reason;
};

/// Check a state matrix for finiteness and magnitude.
[[nodiscard]] HealthReport check_matrix_health(const linalg::Matrix& m,
                                               const HealthPolicy& policy);

/// Check one iteration: the state matrix plus the residual trajectory.
/// `prev_delta` <= 0 disables the growth check (first observed iteration).
[[nodiscard]] HealthReport check_iteration_health(const linalg::Matrix& state,
                                                  double delta,
                                                  double prev_delta,
                                                  const HealthPolicy& policy);

}  // namespace aeqp::resilience
