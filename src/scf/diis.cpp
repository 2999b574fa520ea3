#include "scf/diis.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "linalg/lu.hpp"
#include "resilience/guards.hpp"

namespace aeqp::scf {

using linalg::Matrix;
using linalg::Vector;

DiisMixer::DiisMixer(std::size_t max_history) : max_history_(max_history) {
  AEQP_CHECK(max_history_ >= 2, "DiisMixer: history must hold at least 2 entries");
}

Matrix DiisMixer::residual(const Matrix& h, const Matrix& p, const Matrix& s) {
  // e = H P S - S P H; antisymmetric, zero at self-consistency.
  const Matrix hp = linalg::matmul(h, p);
  const Matrix sp = linalg::matmul(s, p);
  Matrix e = linalg::matmul(hp, s);
  e.axpy(-1.0, linalg::matmul(sp, h));
  return e;
}

std::vector<std::pair<Matrix, Matrix>> DiisMixer::export_history() const {
  std::vector<std::pair<Matrix, Matrix>> out;
  out.reserve(history_.size());
  for (const Entry& entry : history_) out.emplace_back(entry.x, entry.e);
  return out;
}

void DiisMixer::import_history(
    std::vector<std::pair<Matrix, Matrix>> history) {
  history_.clear();
  const std::size_t skip =
      history.size() > max_history_ ? history.size() - max_history_ : 0;
  for (std::size_t i = skip; i < history.size(); ++i)
    history_.push_back(
        Entry{std::move(history[i].first), std::move(history[i].second)});
  last_residual_norm_ = history_.empty() ? 0.0 : history_.back().e.max_abs();
}

Matrix DiisMixer::extrapolate(const Matrix& h, const Matrix& p, const Matrix& s) {
  return extrapolate(h, residual(h, p, s));
}

Matrix DiisMixer::extrapolate(Matrix x, Matrix e) {
  // A single non-finite entry admitted to the history poisons every later
  // extrapolation (the B-matrix dots touch all stored residuals), so refuse
  // corrupt input at the door instead of letting it spread.
  if (resilience::guards_enabled()) {
    resilience::guard_finite(x, "diis/x");
    resilience::guard_finite(e, "diis/residual");
  }
  last_residual_norm_ = e.max_abs();
  history_.push_back(Entry{std::move(x), std::move(e)});
  if (history_.size() > max_history_) history_.pop_front();
  const std::size_t m = history_.size();
  if (m < 2) return history_.back().x;

  // Bordered Lagrange system: minimize |sum c_i e_i|^2 with sum c_i = 1.
  Matrix b(m + 1, m + 1);
  Vector rhs(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double dot = 0.0;
      const Matrix& ei = history_[i].e;
      const Matrix& ej = history_[j].e;
      for (std::size_t k = 0; k < ei.rows() * ei.cols(); ++k)
        dot += ei.data()[k] * ej.data()[k];
      b(i, j) = dot;
    }
    b(i, m) = -1.0;
    b(m, i) = -1.0;
  }
  rhs[m] = -1.0;

  Vector coeff;
  try {
    coeff = linalg::solve_linear(b, rhs);
  } catch (const Error&) {
    // Ill-conditioned subspace: drop the oldest entries and carry on.
    AEQP_LOG_DEBUG << "DIIS B-matrix singular; resetting history";
    Entry latest = std::move(history_.back());
    history_.clear();
    history_.push_back(std::move(latest));
    return history_.back().x;
  }

  const Matrix& latest = history_.back().x;
  Matrix mixed(latest.rows(), latest.cols());
  for (std::size_t i = 0; i < m; ++i) mixed.axpy(coeff[i], history_[i].x);
  return mixed;
}

}  // namespace aeqp::scf
