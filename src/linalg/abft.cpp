#include "linalg/abft.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/task_scope.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/sdc_inject.hpp"

namespace aeqp::linalg {

/// Per-scope accumulator, linked to its enclosing scope so nested scopes
/// (service job -> RecoveryDriver attempt) both see the counts. Installed
/// as the thread's opaque task scope; rank threads inherit the pointer, so
/// fields are atomics (ranks bump concurrently).
struct AbftStatsScope::Slot {
  std::atomic<std::size_t> checks{0};
  std::atomic<std::size_t> detections{0};
  std::atomic<std::size_t> corrections{0};
  std::atomic<std::size_t> uncorrectable{0};
  Slot* parent = nullptr;
};

namespace {

/// The process-wide "abft/<name>" obs counters abft_stats() reads.
struct Counters {
  obs::Counter& checks = obs::counter("abft/checks");
  obs::Counter& detections = obs::counter("abft/detections");
  obs::Counter& corrections = obs::counter("abft/corrections");
  obs::Counter& uncorrectable = obs::counter("abft/uncorrectable");
};

Counters& counters() {
  static Counters c;
  return c;
}

/// Bump a counter globally and in every scope enclosing the calling thread.
void bump(obs::Counter& global,
          std::atomic<std::size_t> AbftStatsScope::Slot::*field) {
  global.increment();
  for (auto* s = static_cast<AbftStatsScope::Slot*>(task_scope()); s != nullptr;
       s = s->parent)
    (s->*field).fetch_add(1, std::memory_order_relaxed);
}

/// Checksum tolerance for C of inner dimension k, outer extent n: the
/// row/column sums accumulate k*n products of magnitude <= max|A| max|B|,
/// so roundoff scales with k*n*eps; the factor 1024 gives generous margin
/// against accumulation-order differences without eating into the orders
/// of magnitude a high-bit flip produces.
double checksum_tolerance(std::size_t k, std::size_t n, double max_a,
                          double max_b) {
  const double eps = std::numeric_limits<double>::epsilon();
  return 1024.0 * eps * static_cast<double>(k) * static_cast<double>(n) *
         std::max(max_a * max_b, 1e-300);
}

/// Exact recomputation of C(i,j) in the kernel's accumulation order
/// (k ascending, zero-skip), so a located corruption restores bit-exact.
double recompute_element(const Matrix& a, const Matrix& b, std::size_t i,
                         std::size_t j, bool a_transposed) {
  double c = 0.0;
  const std::size_t kk = a_transposed ? a.rows() : a.cols();
  for (std::size_t k = 0; k < kk; ++k) {
    const double av = a_transposed ? a(k, i) : a(i, k);
    if (av == 0.0) continue;
    c += av * b(k, j);
  }
  return c;
}

/// Verify C against the Huang-Abraham identities and, in CorrectInPlace
/// mode, repair a single located corruption. Throws AbftError on anything
/// it cannot fix. `a_transposed` selects the C = A^T B variant.
void verify_product(const Matrix& a, const Matrix& b, Matrix& c,
                    bool a_transposed, const char* site, AbftMode mode) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kk = a_transposed ? a.rows() : a.cols();

  // Reference checksum vectors from the *inputs* (O(n^2)):
  //   expected row sums:    A   * (B * e)
  //   expected column sums: (e^T A) * B
  std::vector<double> b_rowsum(kk, 0.0);
  for (std::size_t k = 0; k < kk; ++k) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += b(k, j);
    b_rowsum[k] = s;
  }
  std::vector<double> a_colsum(kk, 0.0);  // over C's row index
  for (std::size_t k = 0; k < kk; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i < m; ++i) s += a_transposed ? a(k, i) : a(i, k);
    a_colsum[k] = s;
  }

  const double tau = checksum_tolerance(kk, std::max(m, n), a.max_abs(),
                                        b.max_abs());

  // Residuals of the actual product against the references. A NaN/Inf in C
  // poisons its row and column sums, failing the <= comparison, so
  // non-finite corruption is flagged by the same test as a numeric delta.
  std::vector<std::size_t> bad_rows, bad_cols;
  for (std::size_t i = 0; i < m; ++i) {
    double actual = 0.0, expected = 0.0;
    for (std::size_t j = 0; j < n; ++j) actual += c(i, j);
    for (std::size_t k = 0; k < kk; ++k)
      expected += (a_transposed ? a(k, i) : a(i, k)) * b_rowsum[k];
    const double r = actual - expected;
    if (!(std::fabs(r) <= tau)) bad_rows.push_back(i);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double actual = 0.0, expected = 0.0;
    for (std::size_t i = 0; i < m; ++i) actual += c(i, j);
    for (std::size_t k = 0; k < kk; ++k) expected += a_colsum[k] * b(k, j);
    const double r = actual - expected;
    if (!(std::fabs(r) <= tau)) bad_cols.push_back(j);
  }

  Counters& global = counters();
  bump(global.checks, &AbftStatsScope::Slot::checks);
  if (bad_rows.empty() && bad_cols.empty()) return;

  bump(global.detections, &AbftStatsScope::Slot::detections);
  obs::trace_instant("sdc/detect");

  const bool single = bad_rows.size() == 1 && bad_cols.size() == 1;
  if (mode == AbftMode::CorrectInPlace && single) {
    const std::size_t i0 = bad_rows.front();
    const std::size_t j0 = bad_cols.front();
    c(i0, j0) = recompute_element(a, b, i0, j0, a_transposed);
    bump(global.corrections, &AbftStatsScope::Slot::corrections);
    obs::trace_instant("sdc/correct");
    return;
  }

  bump(global.uncorrectable, &AbftStatsScope::Slot::uncorrectable);
  const std::string what =
      mode == AbftMode::DetectOnly
          ? ("checksum violation detected (" +
             std::to_string(bad_rows.size()) + " rows, " +
             std::to_string(bad_cols.size()) + " cols)")
          : ("uncorrectable corruption (" + std::to_string(bad_rows.size()) +
             " rows, " + std::to_string(bad_cols.size()) + " cols affected)");
  throw AbftError(site, what);
}

}  // namespace

AbftStats abft_stats() {
  const Counters& global = counters();
  AbftStats s;
  s.checks = global.checks.value();
  s.detections = global.detections.value();
  s.corrections = global.corrections.value();
  s.uncorrectable = global.uncorrectable.value();
  return s;
}

AbftStatsScope::AbftStatsScope()
    : slot_(std::make_unique<Slot>()), prev_scope_(task_scope()) {
  slot_->parent = static_cast<Slot*>(prev_scope_);
  set_task_scope(slot_.get());
}

AbftStatsScope::~AbftStatsScope() { set_task_scope(prev_scope_); }

AbftStats AbftStatsScope::stats() const {
  AbftStats s;
  s.checks = slot_->checks.load(std::memory_order_relaxed);
  s.detections = slot_->detections.load(std::memory_order_relaxed);
  s.corrections = slot_->corrections.load(std::memory_order_relaxed);
  s.uncorrectable = slot_->uncorrectable.load(std::memory_order_relaxed);
  return s;
}

Matrix abft_matmul(const Matrix& a, const Matrix& b, const char* site,
                   AbftMode mode) {
  Matrix c = matmul(a, b);
  resilience::sdc_probe(site, {c.data(), c.rows() * c.cols()});
  verify_product(a, b, c, /*a_transposed=*/false, site, mode);
  return c;
}

Matrix abft_matmul_tn(const Matrix& a, const Matrix& b, const char* site,
                      AbftMode mode) {
  Matrix c = matmul_tn(a, b);
  resilience::sdc_probe(site, {c.data(), c.rows() * c.cols()});
  verify_product(a, b, c, /*a_transposed=*/true, site, mode);
  return c;
}

}  // namespace aeqp::linalg
