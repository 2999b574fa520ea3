#include "grid/quadrature.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace aeqp::grid {

GaussLegendreRule gauss_legendre(std::size_t n) {
  AEQP_CHECK(n >= 1, "gauss_legendre needs n >= 1");
  GaussLegendreRule rule;
  rule.nodes.resize(n);
  rule.weights.resize(n);
  const std::size_t m = (n + 1) / 2;  // roots come in +/- pairs
  for (std::size_t i = 0; i < m; ++i) {
    // Chebyshev-based initial guess for the i-th root.
    double x = std::cos(constants::pi * (static_cast<double>(i) + 0.75) /
                        (static_cast<double>(n) + 0.5));
    double dp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      // Evaluate P_n and its derivative together.
      double pm1 = 1.0, p = x;
      for (std::size_t k = 2; k <= n; ++k) {
        const double pk = ((2.0 * k - 1.0) * x * p - (k - 1.0) * pm1) / k;
        pm1 = p;
        p = pk;
      }
      dp = static_cast<double>(n) * (x * p - pm1) / (x * x - 1.0);
      const double dx = p / dp;
      x -= dx;
      if (std::fabs(dx) < 1e-15) break;
    }
    const double w = 2.0 / ((1.0 - x * x) * dp * dp);
    rule.nodes[i] = -x;
    rule.nodes[n - 1 - i] = x;
    rule.weights[i] = w;
    rule.weights[n - 1 - i] = w;
  }
  if (n % 2 == 1) rule.nodes[n / 2] = 0.0;  // exact central root
  return rule;
}

}  // namespace aeqp::grid
