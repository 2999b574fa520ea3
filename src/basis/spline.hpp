#pragma once

/// \file spline.hpp
/// Natural cubic spline interpolation. Splines are the central data object
/// of the paper's Rho phase: the multipole expansion of the response density
/// (`rho_multipole_spl`) and the partitioned Hartree potential
/// (`delta_v_hart_part_spl`) are both stored as radial cubic splines, built
/// by the producer kernel and interpolated by the consumer kernel.

#include <cstddef>
#include <vector>

namespace aeqp::basis {

/// Natural cubic spline over strictly increasing knots.
class CubicSpline {
public:
  CubicSpline() = default;

  /// Build from knots x (strictly increasing) and samples y.
  CubicSpline(std::vector<double> x, std::vector<double> y);

  [[nodiscard]] bool empty() const { return x_.empty(); }
  [[nodiscard]] std::size_t size() const { return x_.size(); }

  /// Interpolated value; clamped linear extrapolation outside the knot span.
  [[nodiscard]] double value(double x) const;

  /// First derivative of the interpolant.
  [[nodiscard]] double derivative(double x) const;

  /// Second derivative of the interpolant.
  [[nodiscard]] double second_derivative(double x) const;

  /// Bytes of coefficient storage; used by the Fig. 12(a) data-volume model.
  [[nodiscard]] std::size_t bytes() const {
    return (x_.size() + y_.size() + y2_.size()) * sizeof(double);
  }

  /// Total CubicSpline constructions since process start (the "number of
  /// cubic splines performed" counter behind paper Fig. 9(c)).
  static std::size_t constructions();
  static void reset_construction_counter();

  /// Read access for bulk repacking (SplineBundle).
  [[nodiscard]] const std::vector<double>& knots() const { return x_; }
  [[nodiscard]] const std::vector<double>& samples() const { return y_; }
  [[nodiscard]] const std::vector<double>& second_derivs() const { return y2_; }

private:
  [[nodiscard]] std::size_t interval(double x) const;

  std::vector<double> x_, y_, y2_;
};

/// Many cubic splines sharing one knot mesh, packed channel-contiguous so a
/// single evaluation point costs ONE interval search plus an elementwise
/// loop over channels (contiguous loads, no per-channel binary search).
/// This is the Rho-phase consumer layout: the (l,m) channels of one atom's
/// partitioned potential and the radial shells of one element are all
/// evaluated at the same radius. Per-channel arithmetic replicates
/// CubicSpline::value() exactly -- including the boundary extrapolation --
/// so eval_all() is bit-identical to calling value() channel by channel
/// (asserted in tests/test_rho_batch.cpp).
class SplineBundle {
public:
  SplineBundle() = default;

  /// Pack splines with identical knot vectors (checked).
  static SplineBundle pack(const std::vector<const CubicSpline*>& splines);
  /// Convenience overload over a contiguous container of splines.
  static SplineBundle pack(const std::vector<CubicSpline>& splines);

  [[nodiscard]] bool empty() const { return nch_ == 0; }
  [[nodiscard]] std::size_t channels() const { return nch_; }
  [[nodiscard]] std::size_t knots() const { return x_.size(); }

  /// Evaluate every channel at x into out[0..channels()).
  void eval_all(double x, double* out) const;

  /// Bytes of packed coefficient storage (knots, per-channel samples and
  /// second derivatives, boundary slopes); feeds the memory audit.
  [[nodiscard]] std::size_t bytes() const {
    return (x_.size() + y_.size() + y2_.size() + slope_front_.size() +
            slope_back_.size()) *
           sizeof(double);
  }

private:
  std::size_t nch_ = 0;
  std::vector<double> x_;        // shared knots
  std::vector<double> y_, y2_;   // [knot * nch_ + channel]
  // Boundary slopes (CubicSpline::derivative at the end knots), for the
  // clamped linear extrapolation outside the knot span.
  std::vector<double> slope_front_, slope_back_;
};

}  // namespace aeqp::basis
