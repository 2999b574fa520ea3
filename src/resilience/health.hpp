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

/// Outcome of a health check; `reason` names the violated bound.
struct HealthReport {
  bool healthy = true;
  std::string reason;
};

/// Check one iteration: every state entry and the residual finite, every
/// entry at most 1e8 in magnitude, and the residual grown at most 1e3x
/// since `prev_delta` (<= 0 skips the growth check: the first observed
/// iteration). Pulay residuals are not monotone -- the worst legitimate
/// CPSCF growth measured is 1.3x per iteration (H2, H4, CH4 and a 14-atom
/// chain at mixing 0.0625-0.5) -- while a corrupted payload blows the
/// residual up by many orders.
[[nodiscard]] HealthReport check_iteration_health(const linalg::Matrix& state,
                                                  double delta,
                                                  double prev_delta);

}  // namespace aeqp::resilience
