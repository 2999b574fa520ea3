#pragma once

/// \file quadrature.hpp
/// One-dimensional Gauss-Legendre quadrature, used to build product angular
/// grids and for reference integrals in tests.

#include <cstddef>
#include <vector>

namespace aeqp::grid {

/// Nodes and weights of an n-point rule on [-1, 1], exact for polynomials
/// of degree <= 2n-1.
struct GaussLegendreRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};

/// Compute the n-point Gauss-Legendre rule by Newton iteration on P_n.
GaussLegendreRule gauss_legendre(std::size_t n);

}  // namespace aeqp::grid
