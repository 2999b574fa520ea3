#include "resilience/health.hpp"

#include <cmath>

namespace aeqp::resilience {

namespace {

constexpr double kMaxAbsEntry = 1e8;      ///< ceiling on |state| entries
constexpr double kMaxDeltaGrowth = 1e3;   ///< residual growth per iteration

}  // namespace

HealthReport check_iteration_health(const linalg::Matrix& state, double delta,
                                    double prev_delta) {
  if (!std::isfinite(delta)) return {false, "non-finite residual"};
  if (prev_delta > 0.0 && delta > prev_delta * kMaxDeltaGrowth)
    return {false, "residual jumped from " + std::to_string(prev_delta) +
                       " to " + std::to_string(delta) + " (growth bound " +
                       std::to_string(kMaxDeltaGrowth) + "x)"};
  const double* p = state.data();
  const std::size_t n = state.rows() * state.cols();
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i]))
      return {false, "non-finite state entry at flat index " + std::to_string(i)};
    if (std::fabs(p[i]) > kMaxAbsEntry)
      return {false, "state entry |" + std::to_string(p[i]) + "| exceeds bound " +
                         std::to_string(kMaxAbsEntry)};
  }
  return {};
}

}  // namespace aeqp::resilience
