#include "poisson/multipole.hpp"

#include <algorithm>
#include <cmath>

#include "basis/basis_set.hpp"
#include "basis/spherical_harmonics.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/ipow.hpp"
#include "exec/thread_pool.hpp"
#include "grid/molecular_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poisson/adams_moulton.hpp"
#include "resilience/guards.hpp"
#include "resilience/sdc_inject.hpp"
#include "tune/tune.hpp"

namespace aeqp::poisson {

using basis::lm_count;
using basis::lm_index;

BatchDensityFn basis_density(const basis::BasisSet& basis,
                             std::span<const double> screen,
                             const linalg::Matrix& folded) {
  return [&basis, screen, &folded](const Vec3* pts, std::size_t n, double* out) {
    thread_local basis::BatchEval ev;
    basis.evaluate_batch(pts, n, screen, ev);
    basis::block_density(folded, ev, out);
  };
}

std::size_t MultipoleDensity::spline_bytes() const {
  std::size_t b = 0;
  for (const auto& per_atom : splines)
    for (const auto& s : per_atom) b += s.bytes();
  return b;
}

HartreeSolver::HartreeSolver(const grid::Structure& structure,
                             const PoissonSpec& spec)
    : structure_(structure),
      spec_(spec),
      mesh_(spec.radial_points, spec.r_min, spec.r_max),
      partition_(structure) {
  AEQP_CHECK(spec.l_max >= 0 && spec.l_max <= 9,
             "HartreeSolver: l_max must be in [0, 9]");
  // The integration grid's ramp at the exactness the full expansion needs
  // (Y_lm * Y_l'm' through l = l_max). A rule of degree d integrates the
  // products through l = d / 2 exactly, so its rings project only those
  // channels: a higher channel on a small rule would be aliasing, not signal.
  grid::ShellRules ramp =
      grid::shell_rules(mesh_.size(), static_cast<std::size_t>(2 * spec.l_max + 2));
  rule_of_shell_ = std::move(ramp.rule_of_shell);
  for (grid::AngularGrid& ang : ramp.rules) {
    const int l_cap = std::min(spec.l_max, static_cast<int>(ang.degree() / 2));
    const std::size_t nlm = lm_count(l_cap);
    std::vector<double> ylm(ang.size() * nlm);
    for (std::size_t k = 0; k < ang.size(); ++k)
      basis::real_ylm_all(l_cap, ang.direction(k), ylm.data() + k * nlm);
    rules_.push_back({std::move(ang), nlm, std::move(ylm)});
  }
  ring_offsets_.assign(1, 0);
  for (std::size_t a = 0; a < structure_.size(); ++a)
    for (std::size_t i = 0; i < mesh_.size(); ++i)
      ring_offsets_.push_back(ring_offsets_.back() + rules_[rule_of_shell_[i]].ang.size());
}

MultipoleDensity HartreeSolver::project(const DensityFn& density) const {
  // Ring-at-a-time adapter: the batched path evaluates the same points in
  // the same order with the same arithmetic, so delegation is bit-exact.
  return project(BatchDensityFn(
      [&density](const Vec3* pts, std::size_t n, double* out) {
        for (std::size_t k = 0; k < n; ++k) out[k] = density(pts[k]);
      }));
}

MultipoleDensity HartreeSolver::project(const BatchDensityFn& density) const {
  MultipoleDensity rho = project_rows(density, 0, projection_row_count());
  finalize_splines(rho);
  return rho;
}

std::size_t HartreeSolver::projection_row_count() const {
  return structure_.size() * mesh_.size();
}

MultipoleDensity HartreeSolver::project_rows(const BatchDensityFn& density,
                                             std::size_t row_begin,
                                             std::size_t row_end) const {
  AEQP_TRACE_SCOPE("poisson/project");
  const std::size_t n_atoms = structure_.size();
  const std::size_t nlm = lm_count(spec_.l_max);
  const std::size_t nr = mesh_.size();
  AEQP_CHECK(row_begin <= row_end && row_end <= n_atoms * nr,
             "HartreeSolver::project_rows: row range out of bounds");

  MultipoleDensity rho;
  rho.samples.assign(n_atoms,
                     std::vector<std::vector<double>>(nlm, std::vector<double>(nr, 0.0)));
  rho.splines.resize(n_atoms);

  // Parallel over (atom, radial shell): each task owns the [a][*][i] slots
  // it writes, and the angular loop order inside one shell is unchanged, so
  // the projection is bit-identical for every thread count. One task hands
  // its whole angular ring to the density callback at once -- the ring is a
  // geometry-defined block (atom center, shell radius, the shell's rule),
  // so batch-level screening decisions inside the callback are identical on
  // every thread and rank. The callback must be thread-safe (pure
  // evaluation; every caller in the codebase captures only const state).
  // The Becke weights are read from the geometry-once table; the product
  // keeps its dens * w_becke * w_ang order, so samples are bit-identical to
  // evaluating the partition per projection.
  std::call_once(ring_weights_once_, [this] { build_ring_weights(); });
  exec::parallel_for(row_begin, row_end, [&](std::size_t task) {
    const std::size_t a = task / nr;
    const std::size_t i = task % nr;
    const RingRule& rule = rules_[rule_of_shell_[i]];
    const Vec3 center = structure_.atom(a).pos;
    const double r = mesh_.r(i);
    auto& per_lm = rho.samples[a];
    thread_local std::vector<Vec3> ring;
    thread_local std::vector<double> dens;
    const std::size_t nk = rule.ang.size();
    const double* becke = ring_weights_.data() + ring_offsets_[task];
    ring.resize(nk);
    dens.resize(nk);
    for (std::size_t k = 0; k < nk; ++k) ring[k] = center + r * rule.ang.direction(k);
    density(ring.data(), nk, dens.data());
    for (std::size_t k = 0; k < nk; ++k) {
      const double val = dens[k] * becke[k] * rule.ang.weight(k);
      if (val == 0.0) continue;
      const double* ylm = rule.ylm.data() + k * rule.nlm;
      for (std::size_t lm = 0; lm < rule.nlm; ++lm) per_lm[lm][i] += val * ylm[lm];
    }
  });
  return rho;
}

void HartreeSolver::build_ring_weights() const {
  AEQP_TRACE_SCOPE("poisson/ring_weights");
  const std::size_t nr = mesh_.size();
  ring_weights_.resize(ring_offsets_.back());
  exec::parallel_for(0, projection_row_count(), [&](std::size_t task) {
    const std::size_t a = task / nr;
    const std::size_t i = task % nr;
    const grid::AngularGrid& ang = rules_[rule_of_shell_[i]].ang;
    const Vec3 center = structure_.atom(a).pos;
    const double r = mesh_.r(i);
    double* w = ring_weights_.data() + ring_offsets_[task];
    // The same ring-point expression as project_rows.
    for (std::size_t k = 0; k < ang.size(); ++k)
      w[k] = partition_.weight(a, center + r * ang.direction(k));
  });
  ring_weights_mem_.add(
      static_cast<std::int64_t>(ring_weights_.capacity() * sizeof(double)));
}

void HartreeSolver::finalize_splines(MultipoleDensity& rho) const {
  AEQP_CHECK(rho.atom_count() == structure_.size(),
             "HartreeSolver::finalize_splines: density built for a different "
             "structure");
  const std::size_t nlm = lm_count(spec_.l_max);
  rho.splines.resize(rho.samples.size());
  for (auto& per_atom : rho.splines) per_atom.resize(nlm);
  // One pool region over every (atom, lm) channel, as in solve(): each
  // channel owns its spline slot.
  exec::parallel_for(0, rho.samples.size() * nlm, [&](std::size_t task) {
    std::vector<double>& samples = rho.samples[task / nlm][task % nlm];
    // SDC probe + finiteness guard before the spline fit: a struck sample
    // would otherwise be smeared over the whole radial channel by the
    // spline's tridiagonal solve and surface only as slow divergence.
    resilience::sdc_probe("poisson/rho_multipole", samples);
    resilience::guard_finite(samples, "poisson/rho_multipole");
    rho.splines[task / nlm][task % nlm] = basis::CubicSpline(mesh_.points(), samples);
  });
}

PartitionedPotential HartreeSolver::solve(const MultipoleDensity& rho) const {
  AEQP_TRACE_SCOPE("poisson/solve");
  AEQP_CHECK(rho.atom_count() == structure_.size(),
             "HartreeSolver::solve: density built for a different structure");
  const std::size_t nlm = lm_count(spec_.l_max);
  const std::size_t nr = mesh_.size();
  const double h = mesh_.log_step();

  PartitionedPotential out;
  out.l_max = spec_.l_max;
  out.r_max = mesh_.r_max();
  out.splines.resize(structure_.size());
  out.moments.assign(structure_.size(), std::vector<double>(nlm, 0.0));

  for (std::size_t a = 0; a < structure_.size(); ++a) out.splines[a].resize(nlm);

  // Every (atom, l, m) channel is an independent radial solve writing its
  // own spline and moment slot; flatten the loops and run them across the
  // pool with task-local scratch.
  exec::parallel_for(0, structure_.size() * nlm, [&](std::size_t task) {
    const std::size_t a = task / nlm;
    const std::size_t lm = task % nlm;
    int l = 0;
    while (static_cast<std::size_t>((l + 1) * (l + 1)) <= lm) ++l;

    std::vector<double> g_inner(nr), g_outer(nr), v(nr);
    const std::vector<double>& rho_lm = rho.samples[a][lm];
    // Integrands in t = log r: ds = s dt. Small integer powers by repeated
    // multiplication (ipow): elementwise, branch-free, vectorizable --
    // std::pow's transcendental path is neither.
    for (std::size_t i = 0; i < nr; ++i) {
      const double s = mesh_.r(i);
      g_inner[i] = ipow(s, l + 3) * rho_lm[i];
      g_outer[i] = ipow(s, 2 - l) * rho_lm[i];
    }
    const std::vector<double> inner = cumulative_integral_am4(h, g_inner);
    const std::vector<double> outer = cumulative_integral_am4(h, g_outer);
    // Tail below r_min, where the density is treated as constant; only
    // the inner integral reaches into [0, r_min).
    const double r0 = mesh_.r_min();
    const double inner0 = rho_lm[0] * ipow(r0, l + 3) / (l + 3);

    const double prefac = constants::four_pi / (2.0 * l + 1.0);
    for (std::size_t i = 0; i < nr; ++i) {
      const double r = mesh_.r(i);
      const double q_in = inner0 + inner[i];
      const double q_out = (outer.back() - outer[i]);
      v[i] = prefac * (q_in / ipow(r, l + 1) + ipow(r, l) * q_out);
    }
    out.moments[a][lm] = inner0 + inner.back();
    out.splines[a][lm] = basis::CubicSpline(mesh_.points(), v);
  });
  // Repack each atom's channels for the consumer kernel: one interval
  // search per (atom, point) instead of one per (atom, lm, point).
  out.bundles.resize(structure_.size());
  for (std::size_t a = 0; a < structure_.size(); ++a)
    out.bundles[a] = basis::SplineBundle::pack(out.splines[a]);
  return out;
}

double HartreeSolver::potential(const PartitionedPotential& v, const Vec3& p) const {
  double out = 0.0;
  potential_batch(v, &p, 1, &out);
  return out;
}

void HartreeSolver::potential_batch(const PartitionedPotential& v,
                                    const Vec3* pts, std::size_t n,
                                    double* out) const {
  AEQP_CHECK(v.splines.size() == structure_.size(),
             "HartreeSolver::potential: potential built for a different structure");
  static obs::Counter& c_far = obs::counter("rho/screen/potential_far_blocks");
  static obs::Counter& c_near = obs::counter("rho/screen/potential_near_blocks");
  static obs::Counter& c_mixed = obs::counter("rho/screen/potential_mixed_blocks");

  const std::size_t nlm = lm_count(v.l_max);
  const double r_floor = mesh_.r_min();
  thread_local std::vector<double> ylm, vch;
  ylm.resize(nlm);
  vch.resize(nlm);
  for (std::size_t k = 0; k < n; ++k) out[k] = 0.0;

  // Block bounds around the centroid (spherical shell [r_lo, r_hi], tight
  // for hollow rings) for the per-(atom, block) near/far classification.
  // Geometry only: the classification never changes a point's branch
  // outcome (it only skips re-deriving it per point), so results are
  // independent of blocking, thread count, and rank count.
  Vec3 centroid{};
  for (std::size_t k = 0; k < n; ++k) centroid += pts[k];
  if (n > 0) centroid = centroid / static_cast<double>(n);
  double lo2 = n > 0 ? (pts[0] - centroid).norm2() : 0.0, hi2 = lo2;
  for (std::size_t k = 1; k < n; ++k) {
    const double d2 = (pts[k] - centroid).norm2();
    lo2 = std::min(lo2, d2);
    hi2 = std::max(hi2, d2);
  }
  const double r_lo = std::sqrt(lo2), r_hi = std::sqrt(hi2);

  for (std::size_t a = 0; a < structure_.size(); ++a) {
    const Vec3 center = structure_.atom(a).pos;
    const double dist = (center - centroid).norm();
    const bool all_far = n > 1 && std::max(dist - r_hi, r_lo - dist) > v.r_max;
    const bool all_near = n > 1 && dist + r_hi <= v.r_max;
    if (n > 1) (all_far ? c_far : all_near ? c_near : c_mixed).increment();

    const basis::SplineBundle& bundle = v.bundles[a];
    const std::vector<double>& moments = v.moments[a];
    for (std::size_t k = 0; k < n; ++k) {
      const Vec3 d = pts[k] - center;
      const double r = d.norm();
      const Vec3 u = (r > 1e-12) ? d / r : Vec3{0.0, 0.0, 1.0};
      basis::real_ylm_all(v.l_max, u, ylm.data());
      if (all_near || (!all_far && r <= v.r_max)) {
        // Near field: one interval search for all channels, then the same
        // per-lm accumulation (and ylm == 0 skip) as the scalar path.
        bundle.eval_all(std::max(r, r_floor), vch.data());
        double total = out[k];
        for (std::size_t lm = 0; lm < nlm; ++lm) {
          const double ylm_v = ylm[lm];
          if (ylm_v == 0.0) continue;
          total += vch[lm] * ylm_v;
        }
        out[k] = total;
      } else {
        // Far field from the stored moments.
        double total = out[k];
        for (int l = 0; l <= v.l_max; ++l) {
          const double radial =
              constants::four_pi / (2.0 * l + 1.0) / ipow(r, l + 1);
          for (int m = -l; m <= l; ++m)
            total += radial * moments[lm_index(l, m)] * ylm[lm_index(l, m)];
        }
        out[k] = total;
      }
    }
  }
}

void HartreeSolver::potential_points(const PartitionedPotential& v,
                                     std::span<const Vec3> pts,
                                     std::span<double> out) const {
  AEQP_CHECK(out.size() == pts.size(), "HartreeSolver::potential_points: size mismatch");
  constexpr std::size_t block = tune::kRhoBlockSize;
  exec::parallel_for(0, (pts.size() + block - 1) / block, [&](std::size_t b) {
    const std::size_t begin = b * block;
    potential_batch(v, pts.data() + begin, std::min(block, pts.size() - begin),
                    out.data() + begin);
  });
}

PartitionedPotential HartreeSolver::solve_density(const DensityFn& density) const {
  return solve(project(density));
}

PartitionedPotential HartreeSolver::solve_density(const BatchDensityFn& density) const {
  return solve(project(density));
}

double HartreeSolver::total_charge(const MultipoleDensity& rho) const {
  const double y00 = 1.0 / std::sqrt(constants::four_pi);
  double q = 0.0;
  for (std::size_t a = 0; a < rho.atom_count(); ++a)
    q += mesh_.integrate_volume(rho.samples[a][0]) / y00;
  return q;
}

}  // namespace aeqp::poisson
