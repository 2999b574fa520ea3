#pragma once

/// \file diis.hpp
/// Pulay's Direct Inversion in the Iterative Subspace (DIIS): the one
/// extrapolation behind the SCF and the CPSCF. The mixer stores pairs
/// (x, e) of an iterate and its error vector and returns the combination
/// sum c_i x_i whose extrapolated error |sum c_i e_i| is least, subject to
/// sum c_i = 1 (a bordered Lagrange solve). The SCF pairs the Hamiltonian
/// with the commutator residual e = H P S - S P H, which vanishes exactly
/// at self-consistency; the CPSCF pairs P^(1) + beta r with the response
/// residual r = F(P^(1)) - P^(1), which makes the step Anderson mixing --
/// a Krylov (GMRES-equivalent) solver on the linear response equation.

#include <deque>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace aeqp::scf {

/// (x, e) pairs the SCF and the CPSCF mixers keep: 16 nb^2 doubles each.
inline constexpr std::size_t kDiisHistory = 8;

/// DIIS history and extrapolation.
class DiisMixer {
public:
  /// `max_history`: number of (x, e) pairs retained.
  explicit DiisMixer(std::size_t max_history = kDiisHistory);

  /// The DIIS residual e = H P S - S P H.
  static linalg::Matrix residual(const linalg::Matrix& h, const linalg::Matrix& p,
                                 const linalg::Matrix& s);

  /// Push the iterate `x` with its error vector `e` and return the
  /// extrapolated iterate. With fewer than two stored pairs (or an
  /// ill-conditioned B matrix) `x` is returned unchanged. Throws
  /// InvariantViolation (with guards on) on a non-finite x or e, which
  /// would otherwise poison every later extrapolation.
  [[nodiscard]] linalg::Matrix extrapolate(linalg::Matrix x, linalg::Matrix e);

  /// The SCF step: extrapolate the Hamiltonian on its commutator residual.
  [[nodiscard]] linalg::Matrix extrapolate(const linalg::Matrix& h,
                                           const linalg::Matrix& p,
                                           const linalg::Matrix& s);

  /// Max |e_ij| of the most recent error vector (a convergence diagnostic).
  [[nodiscard]] double last_residual_norm() const { return last_residual_norm_; }

  [[nodiscard]] std::size_t history_size() const { return history_.size(); }

  /// Serialize the stored (x, e) pairs, oldest first, for checkpointing.
  [[nodiscard]] std::vector<std::pair<linalg::Matrix, linalg::Matrix>>
  export_history() const;

  /// Replace the history with pairs from export_history() (oldest first;
  /// truncated to the most recent `max_history` entries). Restores the
  /// mixer to the exact state it was exported from, so an extrapolation
  /// after import is bit-identical to one without the round-trip.
  void import_history(
      std::vector<std::pair<linalg::Matrix, linalg::Matrix>> history);

private:
  struct Entry {
    linalg::Matrix x;
    linalg::Matrix e;
  };
  std::size_t max_history_;
  std::deque<Entry> history_;
  double last_residual_norm_ = 0.0;
};

}  // namespace aeqp::scf
