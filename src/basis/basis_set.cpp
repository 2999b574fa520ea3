#include "basis/basis_set.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "basis/spherical_harmonics.hpp"
#include "obs/metrics.hpp"

namespace aeqp::basis {

BasisSet::BasisSet(const grid::Structure& structure, BasisTier tier, double r_cut)
    : structure_(structure),
      tier_(tier),
      r_cut_(r_cut),
      mesh_(220, 1e-5, r_cut) {
  AEQP_CHECK(structure_.size() > 0, "BasisSet: empty structure");

  for (std::size_t a = 0; a < structure_.size(); ++a) {
    const int z = structure_.atom(a).z;
    if (!elements_.contains(z)) {
      ElementEntry entry;
      entry.def = ElementBasis::standard(z, tier);
      for (const auto& shell : entry.def.shells) {
        entry.radial_indices.push_back(radials_.size());
        radials_.push_back(
            std::make_unique<NumericRadialFunction>(shell, mesh_, r_cut));
        l_max_ = std::max(l_max_, shell.l);
      }
      // Pack the element's shell splines channel-contiguous (they all live
      // on mesh_) and record the radial tail envelope for screening.
      std::vector<const CubicSpline*> shell_splines;
      for (const std::size_t idx : entry.radial_indices)
        shell_splines.push_back(&radials_[idx]->spline());
      entry.radial_bundle = SplineBundle::pack(shell_splines);
      entry.tail_envelope.assign(mesh_.size(), 0.0);
      for (const std::size_t idx : entry.radial_indices) {
        const auto& samples = radials_[idx]->samples();
        for (std::size_t i = 0; i < samples.size(); ++i)
          entry.tail_envelope[i] =
              std::max(entry.tail_envelope[i], std::fabs(samples[i]));
      }
      for (std::size_t i = mesh_.size() - 1; i-- > 0;)
        entry.tail_envelope[i] =
            std::max(entry.tail_envelope[i], entry.tail_envelope[i + 1]);
      elements_.emplace(z, std::move(entry));
    }
  }

  atom_first_.reserve(structure_.size() + 1);
  for (std::size_t a = 0; a < structure_.size(); ++a) {
    atom_first_.push_back(functions_.size());
    const ElementEntry& entry = elements_.at(structure_.atom(a).z);
    for (std::size_t s = 0; s < entry.def.shells.size(); ++s) {
      const int l = entry.def.shells[s].l;
      for (int m = -l; m <= l; ++m) {
        BasisFunction f;
        f.atom = static_cast<std::uint32_t>(a);
        f.radial = static_cast<std::uint32_t>(entry.radial_indices[s]);
        f.l = l;
        f.m = m;
        functions_.push_back(f);
      }
    }
  }
  atom_first_.push_back(functions_.size());

  // Resolve each atom's element entry once; elements_ never changes after
  // construction, so the pointers stay valid for the BasisSet lifetime.
  atom_entries_.reserve(structure_.size());
  for (std::size_t a = 0; a < structure_.size(); ++a)
    atom_entries_.push_back(&elements_.at(structure_.atom(a).z));

  // Memory audit (ROADMAP item 3): the spline tables are per-element (O(1)
  // in atom count), while the function/atom tables replicate O(N) per rank
  // -- exactly the split the fig09a memory bench fits exponents for.
  if (obs::memaudit_enabled()) {
    std::size_t spline_bytes = 0;
    for (const auto& [z, entry] : elements_) {
      spline_bytes += entry.radial_bundle.bytes();
      spline_bytes += entry.tail_envelope.capacity() * sizeof(double);
    }
    for (const auto& rad : radials_)
      spline_bytes += rad->samples().capacity() * sizeof(double) +
                      rad->spline().bytes();
    spline_mem_.add(static_cast<std::int64_t>(spline_bytes));
    const std::size_t table_bytes =
        functions_.capacity() * sizeof(BasisFunction) +
        atom_first_.capacity() * sizeof(std::size_t) +
        atom_entries_.capacity() * sizeof(const ElementEntry*);
    table_mem_.add(static_cast<std::int64_t>(table_bytes));
  }
}

std::pair<std::size_t, std::size_t> BasisSet::atom_range(std::size_t a) const {
  AEQP_CHECK(a < structure_.size(), "atom_range: atom index out of range");
  return {atom_first_[a], atom_first_[a + 1]};
}

void BasisSet::evaluate(const Vec3& p, bool with_laplacian, PointEval& out) const {
  out.clear();
  std::vector<double> ylm;
  for (std::size_t a = 0; a < structure_.size(); ++a) {
    const Vec3 d = p - structure_.atom(a).pos;
    const double r2 = d.norm2();
    if (r2 >= r_cut_ * r_cut_) continue;
    const double r = std::sqrt(r2);
    const ElementEntry& entry = *atom_entries_[a];

    const Vec3 u = (r > 1e-12) ? d / r : Vec3{0.0, 0.0, 1.0};
    real_ylm_all(entry.def.l_max(), u, ylm);
    // Clamp the radius used in the Laplacian's 1/r terms to the innermost
    // mesh point; integration weights (~r^2) vanish there anyway.
    const double r_safe = std::max(r, mesh_.r_min());

    std::size_t mu = atom_first_[a];
    for (std::size_t s = 0; s < entry.def.shells.size(); ++s) {
      const NumericRadialFunction& rad = *radials_[entry.radial_indices[s]];
      const int l = rad.l();
      const double rv = rad.value(r);
      double lap_radial = 0.0;
      if (with_laplacian) {
        const double d1 = rad.derivative(r);
        const double d2 = rad.second_derivative(r);
        lap_radial = d2 + 2.0 * d1 / r_safe -
                     static_cast<double>(l * (l + 1)) * rv / (r_safe * r_safe);
      }
      for (int m = -l; m <= l; ++m, ++mu) {
        const double y = ylm[lm_index(l, m)];
        const double v = rv * y;
        if (v == 0.0 && (!with_laplacian || lap_radial == 0.0)) continue;
        out.indices.push_back(static_cast<std::uint32_t>(mu));
        out.values.push_back(v);
        if (with_laplacian) out.laplacians.push_back(lap_radial * y);
      }
    }
  }
}

std::vector<double> BasisSet::screening_radii(double tau) const {
  std::vector<double> radii(structure_.size(), r_cut_);
  if (tau <= 0.0) return radii;
  for (std::size_t a = 0; a < structure_.size(); ++a) {
    const ElementEntry& entry = *atom_entries_[a];
    // Outermost mesh point whose tail envelope still exceeds tau; the next
    // point bounds the radius beyond which every shell is <= ~tau.
    std::size_t last = 0;
    for (std::size_t i = mesh_.size(); i-- > 0;) {
      if (entry.tail_envelope[i] > tau) {
        last = i;
        break;
      }
    }
    const std::size_t bound = std::min(last + 1, mesh_.size() - 1);
    radii[a] = std::min(r_cut_, mesh_.r(bound));
  }
  return radii;
}

void BasisSet::evaluate_batch(const Vec3* pts, std::size_t n,
                              std::span<const double> screen,
                              BatchEval& out) const {
  AEQP_CHECK(screen.empty() || screen.size() == structure_.size(),
             "evaluate_batch: screening radii must match the atom count");
  static obs::Counter& c_skipped = obs::counter("rho/screen/atom_blocks_skipped");
  static obs::Counter& c_kept = obs::counter("rho/screen/atom_blocks_evaluated");
  static obs::Counter& c_points = obs::counter("rho/batch_points_evaluated");

  out.offsets.assign(1, 0);
  out.indices.clear();
  out.values.clear();
  out.offsets.reserve(n + 1);
  out.ylm.resize(lm_count(l_max_));
  out.radial.resize(radials_.size());
  c_points.add(n);

  // Block bounds for the per-(atom, block) screening decision: the points
  // lie in a spherical shell [r_lo, r_hi] around their centroid. The shell
  // is tight for the projection's angular rings (hollow: r_lo = r_hi = ring
  // radius), where a plain bounding ball would contain the ring center and
  // never screen anything; for compact grid blocks r_lo ~ 0 and the shell
  // degenerates to the ball. Geometry-only, so the decision is identical on
  // every thread and rank.
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

  // Active-atom list for the whole block: skip atom a when every block
  // point is at least `reach` away (min distance from the atom to the
  // shell). Skipping at tau = 0 only drops points with r >= r_cut --
  // exactly the entries the per-point path skips -- so the batched CSR
  // matches it entry for entry.
  thread_local std::vector<std::uint32_t> active;
  active.clear();
  for (std::size_t a = 0; a < structure_.size(); ++a) {
    const double reach = screen.empty() ? r_cut_ : screen[a];
    const double dist = (structure_.atom(a).pos - centroid).norm();
    const double min_dist = std::max(dist - r_hi, r_lo - dist);
    if (min_dist >= reach) {
      c_skipped.increment();
      continue;
    }
    c_kept.increment();
    active.push_back(static_cast<std::uint32_t>(a));
  }

  const double* screen_radii = screen.empty() ? nullptr : screen.data();
  for (std::size_t k = 0; k < n; ++k) {
    const Vec3 p = pts[k];
    for (const std::uint32_t a : active) {
      const Vec3 d = p - structure_.atom(a).pos;
      const double r2 = d.norm2();
      if (r2 >= r_cut_ * r_cut_) continue;
      const double r = std::sqrt(r2);
      // Per-point refinement of the block decision (tau > 0 only): the
      // same tau envelope, applied at point resolution.
      if (screen_radii && r >= screen_radii[a]) continue;
      const ElementEntry& entry = *atom_entries_[a];

      const Vec3 u = (r > 1e-12) ? d / r : Vec3{0.0, 0.0, 1.0};
      real_ylm_all(entry.def.l_max(), u, out.ylm.data());
      // One interval search for every shell of the element; bit-identical
      // to NumericRadialFunction::value per shell (r < r_cut here).
      entry.radial_bundle.eval_all(r, out.radial.data());

      std::size_t mu = atom_first_[a];
      for (std::size_t s = 0; s < entry.def.shells.size(); ++s) {
        const int l = entry.def.shells[s].l;
        const double rv = out.radial[s];
        for (int m = -l; m <= l; ++m, ++mu) {
          const double v = rv * out.ylm[lm_index(l, m)];
          if (v == 0.0) continue;
          out.indices.push_back(static_cast<std::uint32_t>(mu));
          out.values.push_back(v);
        }
      }
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.indices.size()));
  }
}

double BasisSet::free_atom_density(int z, double r) const {
  const auto it = elements_.find(z);
  AEQP_CHECK(it != elements_.end(), "free_atom_density: element not in basis");
  double n = 0.0;
  for (std::size_t s = 0; s < it->second.def.shells.size(); ++s) {
    const double occ = it->second.def.shells[s].occupation;
    if (occ == 0.0) continue;
    const double rv = radials_[it->second.radial_indices[s]]->value(r);
    n += occ * rv * rv / constants::four_pi;
  }
  return n;
}

void contract_density(const linalg::Matrix& p, const BatchEval& ev, double* out) {
  const std::size_t nb = p.cols();
  for (std::size_t k = 0; k < ev.points(); ++k) {
    const std::uint32_t* idx = ev.indices.data() + ev.offsets[k];
    const double* val = ev.values.data() + ev.offsets[k];
    const std::size_t ne = ev.offsets[k + 1] - ev.offsets[k];
    double n = 0.0;
    for (std::size_t a = 0; a < ne; ++a) {
      const double* prow = p.data() + static_cast<std::size_t>(idx[a]) * nb;
      const double va = val[a];
      for (std::size_t b = 0; b < ne; ++b) n += prow[idx[b]] * va * val[b];
    }
    out[k] = n;
  }
}

void fold_density(const linalg::Matrix& p, linalg::Matrix& f) {
  const std::size_t nb = p.rows();
  AEQP_CHECK(p.cols() == nb && f.rows() == nb && f.cols() == nb,
             "fold_density: matrix shape mismatch");
  for (std::size_t a = 0; a < nb; ++a) {
    f(a, a) = p(a, a);
    for (std::size_t b = a + 1; b < nb; ++b) f(a, b) = f(b, a) = p(a, b) + p(b, a);
  }
}

namespace {

/// The folded half-pair kernel over rows of a row-major `f` with leading
/// dimension `ld`, for global (uint32) or tile-local (uint16) indices.
template <typename Index>
void folded_kernel(const double* f, std::size_t ld, const std::uint32_t* offsets,
                   std::size_t n_points, const Index* indices,
                   const double* values, double* out) {
  const auto row = [&](Index mu) { return f + static_cast<std::size_t>(mu) * ld; };
  for (std::size_t k = 0; k < n_points; ++k) {
    const Index* idx = indices + offsets[k];
    const double* val = values + offsets[k];
    const std::size_t ne = offsets[k + 1] - offsets[k];
    // Rows a and a+1 of the upper triangle run together: they share every
    // idx/val load, and their four partial sums (two per row) split the
    // point's pair updates into independent add chains.
    double n0 = 0.0, n1 = 0.0;
    std::size_t a = 0;
    for (; a + 1 < ne; a += 2) {
      const double* f0 = row(idx[a]);
      const double* f1 = row(idx[a + 1]);
      double s0 = f0[idx[a]] * val[a] + f0[idx[a + 1]] * val[a + 1], s1 = 0.0;
      double t0 = f1[idx[a + 1]] * val[a + 1], t1 = 0.0;
      std::size_t b = a + 2;
      for (; b + 1 < ne; b += 2) {
        s0 += f0[idx[b]] * val[b];
        s1 += f0[idx[b + 1]] * val[b + 1];
        t0 += f1[idx[b]] * val[b];
        t1 += f1[idx[b + 1]] * val[b + 1];
      }
      if (b < ne) {
        s0 += f0[idx[b]] * val[b];
        t0 += f1[idx[b]] * val[b];
      }
      n0 += val[a] * (s0 + s1);
      n1 += val[a + 1] * (t0 + t1);
    }
    if (a < ne) n0 += val[a] * (row(idx[a])[idx[a]] * val[a]);
    out[k] = n0 + n1;
  }
}

}  // namespace

void contract_density_folded(const linalg::Matrix& f, const std::uint32_t* offsets,
                             std::size_t n_points, const std::uint32_t* indices,
                             const double* values, double* out) {
  folded_kernel(f.data(), f.cols(), offsets, n_points, indices, values, out);
}

void contract_density_folded(const double* f, std::size_t ld,
                             const std::uint32_t* offsets, std::size_t n_points,
                             const std::uint16_t* indices, const double* values,
                             double* out) {
  folded_kernel(f, ld, offsets, n_points, indices, values, out);
}

void contract_density_folded(const linalg::Matrix& f, const BatchEval& ev,
                             double* out) {
  contract_density_folded(f, ev.offsets.data(), ev.points(), ev.indices.data(),
                          ev.values.data(), out);
}

}  // namespace aeqp::basis
