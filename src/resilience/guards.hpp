#pragma once

/// \file guards.hpp
/// Physics invariant guards: cheap, physically exact checks the all-electron
/// formulation guarantees -- electron count (integral of rho equals
/// N_electrons on the integration grid), Hermiticity of H and delta-H,
/// trace(DM * S) = N, agreement of the two polarizability paths, and
/// finiteness sweeps at phase boundaries. A silent
/// compute-side corruption that slips past ABFT (or strikes a non-ABFT
/// kernel) violates one of these within the same iteration; the guard turns
/// the eventual wrong answer into an immediate structured
/// aeqp::InvariantViolation the recovery ladder can act on (see docs/sdc.md).
///
/// Gating mirrors AEQP_TRACE exactly: the env var AEQP_GUARDS (default ON;
/// "off"/"0"/"false" disables) is read once into an atomic, and a disabled
/// guard costs one relaxed atomic load -- no scan, no allocation. Guards
/// only read; they never modify operands, so a guarded fault-free run is
/// bit-identical to an unguarded one.
///
/// Header-only on purpose: guards are called from scf, poisson, and core --
/// modules *below* resilience in the link graph -- so they must not pull
/// link-time symbols out of the resilience archive.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/vec3.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aeqp::resilience {

namespace detail {

/// -1 = not yet initialized from the environment.
inline std::atomic<int> g_guards{-1};

inline bool init_guards_from_env() {
  const char* env = std::getenv("AEQP_GUARDS");
  int v = 1;  // default ON: trustworthiness is opt-out, not opt-in
  if (env != nullptr) {
    const std::string s(env);
    if (s == "off" || s == "0" || s == "false") v = 0;
  }
  int expected = -1;
  g_guards.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  return g_guards.load(std::memory_order_relaxed) != 0;
}

[[noreturn]] inline void raise_violation(const char* invariant,
                                         const char* site, double measured,
                                         double expected) {
  obs::counter("guards/violations").increment();
  obs::trace_instant("guard/violation");
  throw InvariantViolation(invariant, site, measured, expected);
}

inline void count_check() {
  static obs::Counter& checks = obs::counter("guards/checks");
  checks.increment();
}

}  // namespace detail

/// Whether invariant guards run (lazily initialized from AEQP_GUARDS).
/// Off-mode cost: one relaxed atomic load.
[[nodiscard]] inline bool guards_enabled() {
  const int v = detail::g_guards.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return detail::init_guards_from_env();
}

/// Programmatic override (tests, benches). Takes effect immediately.
inline void set_guards(bool on) {
  detail::g_guards.store(on ? 1 : 0, std::memory_order_relaxed);
}

/// Every element finite (no NaN/Inf). `site` must be a string literal.
inline void guard_finite(std::span<const double> values, const char* site) {
  if (!guards_enabled()) return;
  detail::count_check();
  for (double v : values)
    if (!std::isfinite(v)) detail::raise_violation("finite", site, v, 0.0);
}

inline void guard_finite(const linalg::Matrix& m, const char* site) {
  if (!guards_enabled()) return;
  guard_finite(std::span<const double>(m.data(), m.rows() * m.cols()), site);
}

/// Hermiticity (real-symmetric here): max |m_ij - m_ji| within `tol` of
/// zero, scaled by the matrix magnitude. H and delta-H are exactly
/// symmetric by construction, so any asymmetry is corruption.
inline void guard_hermitian(const linalg::Matrix& m, const char* site,
                            double tol = 1e-10) {
  if (!guards_enabled()) return;
  detail::count_check();
  const std::size_t n = m.rows();
  if (n != m.cols())
    detail::raise_violation("hermitian", site, static_cast<double>(m.cols()),
                            static_cast<double>(n));
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = m(i, j) - m(j, i);
      const double a = d < 0 ? -d : d;
      if (a > worst) worst = a;
      if (!std::isfinite(d))
        detail::raise_violation("hermitian", site, d, 0.0);
    }
  const double scale = std::max(1.0, m.max_abs());
  if (worst > tol * scale)
    detail::raise_violation("hermitian", site, worst, tol * scale);
}

/// Integral of the density over the grid equals the electron count. The
/// tolerance is relative and loose (grid quadrature error dominates); a bit
/// flip in a density batch moves the integral by orders of magnitude more.
inline void guard_electron_count(double integrated, double n_electrons,
                                 const char* site, double rel_tol = 1e-2) {
  if (!guards_enabled()) return;
  detail::count_check();
  if (!std::isfinite(integrated))
    detail::raise_violation("electron_count", site, integrated, n_electrons);
  const double scale = std::max(1.0, std::abs(n_electrons));
  if (std::abs(integrated - n_electrons) > rel_tol * scale)
    detail::raise_violation("electron_count", site, integrated, n_electrons);
}

/// trace(DM * S) = N_electrons: the density matrix in a non-orthogonal
/// basis carries the electron count through the overlap metric.
inline void guard_trace_identity(const linalg::Matrix& dm,
                                 const linalg::Matrix& overlap,
                                 double n_electrons, const char* site,
                                 double rel_tol = 1e-6) {
  if (!guards_enabled()) return;
  detail::count_check();
  const std::size_t n = dm.rows();
  if (n != dm.cols() || n != overlap.rows() || n != overlap.cols())
    detail::raise_violation("trace_identity", site,
                            static_cast<double>(overlap.rows()),
                            static_cast<double>(n));
  double tr = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) tr += dm(i, j) * overlap(j, i);
  if (!std::isfinite(tr))
    detail::raise_violation("trace_identity", site, tr, n_electrons);
  const double scale = std::max(1.0, std::abs(n_electrons));
  if (std::abs(tr - n_electrons) > rel_tol * scale)
    detail::raise_violation("trace_identity", site, tr, n_electrons);
}

/// Relative gap between the two polarizability paths of one field
/// direction: max_I |grid_I - trace_I| / max_I |grid_I| (0 when the paths
/// agree exactly, infinite when either holds a non-finite value), with
/// grid_I the grid moment \int r_I n^(1) and trace_I = Tr(P^(1) D_I).
[[nodiscard]] inline double alpha_path_gap(const Vec3& grid, const Vec3& trace) {
  double diff = 0.0, scale = 0.0;
  for (int i = 0; i < 3; ++i) {
    if (!std::isfinite(grid[i]) || !std::isfinite(trace[i]))
      return std::numeric_limits<double>::infinity();
    diff = std::max(diff, std::abs(grid[i] - trace[i]));
    scale = std::max(scale, std::abs(grid[i]));
  }
  return diff == 0.0 ? 0.0 : diff / scale;
}

/// The two polarizability paths of a converged direction agree: both sum
/// P^(1)_mu_nu chi_mu r_I chi_nu over the same grid, in different orders,
/// so they sit about 1e-14 apart. A corrupted final Sumup moves only the
/// grid moment: max_I |grid_I - trace_I| must stay within
/// rel_tol * max_I |grid_I|.
inline void guard_alpha_paths(const Vec3& grid, const Vec3& trace, const char* site,
                              double rel_tol = 1e-8) {
  if (!guards_enabled()) return;
  detail::count_check();
  const double gap = alpha_path_gap(grid, trace);
  if (!(gap <= rel_tol)) detail::raise_violation("alpha_paths", site, gap, rel_tol);
}

}  // namespace aeqp::resilience
