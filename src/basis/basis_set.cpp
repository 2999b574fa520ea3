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

void DenseBlock::reset(std::size_t n) {
  ld = (basis_ids.size() + 3) & ~std::size_t{3};
  n_points = n;
  phi.assign(n * ld, 0.0);
}

void BasisSet::evaluate_batch(const Vec3* pts, std::size_t n,
                              std::span<const double> screen,
                              BatchEval& out) const {
  AEQP_CHECK(screen.empty() || screen.size() == structure_.size(),
             "evaluate_batch: screening radii must match the atom count");
  static obs::Counter& c_skipped = obs::counter("rho/screen/atom_blocks_skipped");
  static obs::Counter& c_kept = obs::counter("rho/screen/atom_blocks_evaluated");
  static obs::Counter& c_points = obs::counter("rho/batch_points_evaluated");

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
  // exactly the entries the per-point path skips -- so the block's rows
  // match it entry for entry. The active atoms' functions are the columns.
  out.active.clear();
  out.first_col.clear();
  out.basis_ids.clear();
  for (std::size_t a = 0; a < structure_.size(); ++a) {
    const double reach = screen.empty() ? r_cut_ : screen[a];
    const double dist = (structure_.atom(a).pos - centroid).norm();
    const double min_dist = std::max(dist - r_hi, r_lo - dist);
    if (min_dist >= reach) {
      c_skipped.increment();
      continue;
    }
    c_kept.increment();
    out.active.push_back(static_cast<std::uint32_t>(a));
    out.first_col.push_back(static_cast<std::uint32_t>(out.basis_ids.size()));
    for (std::size_t mu = atom_first_[a]; mu < atom_first_[a + 1]; ++mu)
      out.basis_ids.push_back(static_cast<std::uint32_t>(mu));
  }
  out.reset(n);

  const double* screen_radii = screen.empty() ? nullptr : screen.data();
  for (std::size_t k = 0; k < n; ++k) {
    const Vec3 p = pts[k];
    double* row = out.phi.data() + k * out.ld;
    for (std::size_t q = 0; q < out.active.size(); ++q) {
      const std::uint32_t a = out.active[q];
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

      double* col = row + out.first_col[q];
      for (std::size_t s = 0; s < entry.def.shells.size(); ++s) {
        const int l = entry.def.shells[s].l;
        const double rv = out.radial[s];
        for (int m = -l; m <= l; ++m) *col++ = rv * out.ylm[lm_index(l, m)];
      }
    }
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
  thread_local std::vector<std::uint32_t> idx;  // one row's nonzeros, column order
  thread_local std::vector<double> val;
  for (std::size_t k = 0; k < ev.points(); ++k) {
    const double* row = ev.phi.data() + k * ev.ld;
    idx.clear();
    val.clear();
    for (std::size_t i = 0; i < ev.basis_ids.size(); ++i) {
      if (row[i] == 0.0) continue;
      idx.push_back(ev.basis_ids[i]);
      val.push_back(row[i]);
    }
    double n = 0.0;
    for (std::size_t a = 0; a < idx.size(); ++a) {
      const double* prow = p.data() + static_cast<std::size_t>(idx[a]) * nb;
      const double va = val[a];
      for (std::size_t b = 0; b < idx.size(); ++b) n += prow[idx[b]] * va * val[b];
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

void gather_upper(const linalg::Matrix& f, const DenseBlock& block, double* u) {
  const std::size_t nloc = block.basis_ids.size(), ld = block.ld;
  std::fill(u, u + nloc * ld, 0.0);
  for (std::size_t i = 0; i < nloc; ++i) {
    const double* frow = f.data() + std::size_t{block.basis_ids[i]} * f.cols();
    for (std::size_t j = i; j < nloc; ++j) u[i * ld + j] = frow[block.basis_ids[j]];
  }
}

void contract_upper(const double* u, const DenseBlock& block, double* out) {
  const std::size_t nloc = block.basis_ids.size(), ld = block.ld, n = block.points();
  const double* phi = block.phi.data();
  thread_local std::vector<double> quad;  // four rows interleaved: quad[4 i + q]
  quad.resize(4 * ld);
  for (std::size_t k = 0; k < n; k += 4) {
    // Four points per pass; a short last pass repeats its last point and
    // stores only the real ones.
    const double* x0 = phi + k * ld;
    const double* x1 = phi + std::min(k + 1, n - 1) * ld;
    const double* x2 = phi + std::min(k + 2, n - 1) * ld;
    const double* x3 = phi + std::min(k + 3, n - 1) * ld;
    // Interleaved, the four values of a column are one contiguous load, so
    // the compiler can keep the accumulators in vector registers.
    for (std::size_t i = 0; i < ld; ++i) {
      quad[4 * i] = x0[i];
      quad[4 * i + 1] = x1[i];
      quad[4 * i + 2] = x2[i];
      quad[4 * i + 3] = x3[i];
    }
    double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
    for (std::size_t jb = 0; jb < ld; jb += 4) {
      // Sixteen named accumulators, c<point><column> = G over the column
      // block, kept in registers (an indexed array would live on the
      // stack). U is 0 below its diagonal, so rows i in [jb, jb + 4) add
      // only their upper entries.
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0, c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0, c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      const double* xr = quad.data();
      for (std::size_t i = 0, ie = std::min(jb + 4, nloc); i < ie; ++i, xr += 4) {
        const double* ur = u + i * ld + jb;
        const double u0 = ur[0], u1 = ur[1], u2 = ur[2], u3 = ur[3];
        const double p0 = xr[0], p1 = xr[1], p2 = xr[2], p3 = xr[3];
        c00 += p0 * u0, c01 += p0 * u1, c02 += p0 * u2, c03 += p0 * u3;
        c10 += p1 * u0, c11 += p1 * u1, c12 += p1 * u2, c13 += p1 * u3;
        c20 += p2 * u0, c21 += p2 * u1, c22 += p2 * u2, c23 += p2 * u3;
        c30 += p3 * u0, c31 += p3 * u1, c32 += p3 * u2, c33 += p3 * u3;
      }
      n0 += x0[jb] * c00, n0 += x0[jb + 1] * c01, n0 += x0[jb + 2] * c02, n0 += x0[jb + 3] * c03;
      n1 += x1[jb] * c10, n1 += x1[jb + 1] * c11, n1 += x1[jb + 2] * c12, n1 += x1[jb + 3] * c13;
      n2 += x2[jb] * c20, n2 += x2[jb + 1] * c21, n2 += x2[jb + 2] * c22, n2 += x2[jb + 3] * c23;
      n3 += x3[jb] * c30, n3 += x3[jb + 1] * c31, n3 += x3[jb + 2] * c32, n3 += x3[jb + 3] * c33;
    }
    const double nk[4] = {n0, n1, n2, n3};
    for (std::size_t q = 0; q < 4 && k + q < n; ++q) out[k + q] = nk[q];
  }
}

void block_density(const linalg::Matrix& folded, const DenseBlock& block, double* out) {
  thread_local std::vector<double> u;
  u.resize(block.basis_ids.size() * block.ld);
  gather_upper(folded, block, u.data());
  contract_upper(u.data(), block, out);
}

std::size_t upper_pairs(const DenseBlock& block) {
  std::size_t pairs = block.ld;
  for (std::size_t jb = 0; jb < block.ld; jb += 4)
    pairs += 4 * std::min(jb + 4, block.basis_ids.size());
  return pairs;
}

}  // namespace aeqp::basis
