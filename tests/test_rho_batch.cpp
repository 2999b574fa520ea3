// Tests for the Rho-phase batching stack: the raw real_ylm_all overload,
// SplineBundle::eval_all, ipow, BasisSet::evaluate_batch + contract_density,
// the blocked density kernel, cutoff screening, the projection's
// geometry-once Becke table and per-shell rings, HartreeSolver::potential_batch, the fixed
// block partition of the one Rho consumer, and the tune/ resolvers. Most
// claims are bit-for-bit: the batched kernels must reproduce the per-point
// call chain exactly, screening at tau = 0 must change nothing, the Becke
// table must not move a projection sample, the blocked kernel must give a
// point the same bits in every block, and the SCF and CPSCF must not move
// with the thread count. The blocked kernel's sum is the exception: it
// regroups the pair sum, so it is held to the reference contraction within
// rounding.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "basis/spherical_harmonics.hpp"
#include "basis/spline.hpp"
#include "common/ipow.hpp"
#include "common/rng.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "exec/thread_pool.hpp"
#include "grid/angular_grid.hpp"
#include "grid/molecular_grid.hpp"
#include "grid/partition.hpp"
#include "obs/metrics.hpp"
#include "poisson/multipole.hpp"
#include "scf/integrator.hpp"
#include "scf/scf_solver.hpp"
#include "tune/tune.hpp"

namespace {

using namespace aeqp;

TEST(RhoBatch, RawYlmMatchesVectorOverloadAndPerHarmonic) {
  Rng rng(1234);
  const int l_max = 8;
  std::vector<double> ref;
  std::vector<double> raw(basis::lm_count(l_max), -1.0);
  for (int trial = 0; trial < 50; ++trial) {
    Vec3 d{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (d.norm() < 1e-8) d = {0, 0, 1};
    const Vec3 u = d / d.norm();
    basis::real_ylm_all(l_max, u, ref);
    basis::real_ylm_all(l_max, u, raw.data());
    ASSERT_EQ(ref.size(), raw.size());
    for (int l = 0; l <= l_max; ++l)
      for (int m = -l; m <= l; ++m) {
        const std::size_t i = basis::lm_index(l, m);
        EXPECT_EQ(raw[i], ref[i]) << "l=" << l << " m=" << m;
        EXPECT_EQ(raw[i], basis::real_ylm(l, m, u)) << "l=" << l << " m=" << m;
      }
  }
}

TEST(RhoBatch, SplineBundleBitIdenticalToCubicSpline) {
  const std::size_t nk = 40;
  std::vector<double> x(nk);
  for (std::size_t i = 0; i < nk; ++i) x[i] = 0.05 * static_cast<double>(i * i);
  std::vector<basis::CubicSpline> splines;
  for (int c = 0; c < 5; ++c) {
    std::vector<double> y(nk);
    for (std::size_t i = 0; i < nk; ++i)
      y[i] = std::sin(0.7 * (c + 1) * x[i]) + 0.1 * c * x[i];
    splines.emplace_back(x, y);
  }
  const basis::SplineBundle bundle = basis::SplineBundle::pack(splines);
  ASSERT_EQ(bundle.channels(), splines.size());

  std::vector<double> out(splines.size());
  // Interior points, the knots themselves, and both extrapolation sides.
  std::vector<double> probes = {-1.0, -0.001, 0.0,    0.013, 1.7,
                                x.back(),     x.back() + 0.5, x.back() + 10.0};
  Rng rng(99);
  for (int t = 0; t < 200; ++t) probes.push_back(rng.uniform(-0.5, x.back() + 0.5));
  for (const double p : probes) {
    bundle.eval_all(p, out.data());
    for (std::size_t c = 0; c < splines.size(); ++c)
      EXPECT_EQ(out[c], splines[c].value(p)) << "x=" << p << " ch=" << c;
  }
}

TEST(RhoBatch, IpowIsAFixedMultiplyChain) {
  EXPECT_EQ(ipow(3.7, 0), 1.0);
  EXPECT_EQ(ipow(3.7, 1), 3.7);
  EXPECT_EQ(ipow(3.7, 3), 3.7 * 3.7 * 3.7);
  EXPECT_EQ(ipow(0.2, 5), 0.2 * 0.2 * 0.2 * 0.2 * 0.2);
  EXPECT_EQ(ipow(2.5, -2), 1.0 / (2.5 * 2.5));
  EXPECT_EQ(ipow(0.0, 3), 0.0);
  EXPECT_EQ(ipow(-2.0, 3), -8.0);
}

struct BasisFixture {
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  std::vector<Vec3> pts;
};

BasisFixture water_points() {
  BasisFixture f;
  const grid::Structure s = core::water();
  f.basis = std::make_shared<const basis::BasisSet>(s, basis::BasisTier::Light);
  grid::GridSpec spec;
  spec.radial_points = 20;
  spec.angular_degree = 7;
  f.grid = std::make_shared<const grid::MolecularGrid>(
      grid::MolecularGrid::build(s, spec));
  for (std::size_t i = 0; i < f.grid->size(); ++i)
    f.pts.push_back(f.grid->point(i).pos);
  // A few points far outside every cutoff: must yield empty rows.
  f.pts.push_back({50.0, 0.0, 0.0});
  f.pts.push_back({0.0, -80.0, 3.0});
  return f;
}

/// Row k's nonzero entries, (global id, value), in column order.
std::vector<std::pair<std::uint32_t, double>> row_entries(const basis::DenseBlock& b,
                                                          std::size_t k) {
  std::vector<std::pair<std::uint32_t, double>> out;
  for (std::size_t i = 0; i < b.basis_ids.size(); ++i)
    if (const double v = b.phi[k * b.ld + i]; v != 0.0) out.emplace_back(b.basis_ids[i], v);
  return out;
}

TEST(RhoBatch, EvaluateBatchMatchesPerPointEntryForEntry) {
  const BasisFixture f = water_points();
  basis::BatchEval batch;
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), {}, batch);
  ASSERT_EQ(batch.points(), f.pts.size());
  // Dense layout: ascending columns, row stride rounded up to 4.
  EXPECT_TRUE(std::is_sorted(batch.basis_ids.begin(), batch.basis_ids.end()));
  EXPECT_EQ(batch.ld % 4, 0u);
  EXPECT_GE(batch.ld, batch.basis_ids.size());
  EXPECT_LT(batch.ld, batch.basis_ids.size() + 4);
  ASSERT_EQ(batch.phi.size(), f.pts.size() * batch.ld);

  // Each row's nonzeros, in column order, are the per-point entries.
  basis::PointEval point;
  for (std::size_t k = 0; k < f.pts.size(); ++k) {
    f.basis->evaluate(f.pts[k], false, point);
    std::vector<std::pair<std::uint32_t, double>> want;
    for (std::size_t e = 0; e < point.indices.size(); ++e)
      want.emplace_back(point.indices[e], point.values[e]);
    EXPECT_EQ(row_entries(batch, k), want) << "point " << k;
  }
  // The two far points contribute nothing.
  const std::size_t n = f.pts.size();
  EXPECT_TRUE(row_entries(batch, n - 1).empty());
  EXPECT_TRUE(row_entries(batch, n - 2).empty());
}

TEST(RhoBatch, ScreeningAtTauZeroIsBitExact) {
  const BasisFixture f = water_points();
  const std::vector<double> radii = f.basis->screening_radii(0.0);
  ASSERT_EQ(radii.size(), f.basis->structure().size());

  basis::BatchEval off, on;
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), {}, off);
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), radii, on);
  EXPECT_EQ(on.basis_ids, off.basis_ids);
  ASSERT_EQ(on.points(), off.points());
  for (std::size_t k = 0; k < on.points(); ++k)
    EXPECT_EQ(row_entries(on, k), row_entries(off, k)) << "point " << k;
}

TEST(RhoBatch, ScreeningRadiiShrinkWithTau) {
  const BasisFixture f = water_points();
  const std::vector<double> r0 = f.basis->screening_radii(0.0);
  const std::vector<double> r1 = f.basis->screening_radii(1e-12);
  const std::vector<double> r2 = f.basis->screening_radii(1e-4);
  for (std::size_t a = 0; a < r0.size(); ++a) {
    EXPECT_GT(r2[a], 0.0);
    EXPECT_LE(r1[a], r0[a]);
    EXPECT_LE(r2[a], r1[a]);
  }
}

TEST(RhoBatch, ContractDensityMatchesDoubleLoop) {
  const BasisFixture f = water_points();
  const std::size_t nb = f.basis->size();
  Rng rng(7);
  linalg::Matrix p(nb, nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j <= i; ++j) p(i, j) = p(j, i) = rng.uniform(-1, 1);

  basis::BatchEval ev;
  f.basis->evaluate_batch(f.pts.data(), f.pts.size(), {}, ev);
  std::vector<double> n(f.pts.size());
  basis::contract_density(p, ev, n.data());

  basis::PointEval pe;
  for (std::size_t k = 0; k < f.pts.size(); ++k) {
    f.basis->evaluate(f.pts[k], false, pe);
    double ref = 0.0;
    for (std::size_t a = 0; a < pe.indices.size(); ++a) {
      const double va = pe.values[a];
      for (std::size_t b = 0; b < pe.indices.size(); ++b)
        ref += p(pe.indices[a], pe.indices[b]) * va * pe.values[b];
    }
    EXPECT_EQ(n[k], ref) << "point " << k;
  }
}

// Largest |a - b| relative to the largest |b| (absolute when b is all 0).
double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t k = 0; k < b.size(); ++k) {
    diff = std::max(diff, std::fabs(a[k] - b[k]));
    scale = std::max(scale, std::fabs(b[k]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

/// One projection-style ring: the Lebedev directions of degree 10 (the
/// projection's rule at l_max = 4) at radius r around atom a.
std::vector<Vec3> ring(const grid::Structure& s, std::size_t a, double r) {
  const grid::AngularGrid ang = grid::AngularGrid::for_degree(10);
  std::vector<Vec3> pts;
  for (const Vec3& d : ang.directions()) pts.push_back(s.atom(a).pos + r * d);
  return pts;
}

TEST(RhoBatch, FoldedContractionMatchesReferenceForNonSymmetricP) {
  const BasisFixture f = water_points();
  const std::size_t nb = f.basis->size();
  Rng rng(11);
  linalg::Matrix p(nb, nb);  // non-symmetric, like P^(1) of alpha(omega)
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j < nb; ++j) p(i, j) = rng.uniform(-1, 1);
  linalg::Matrix folded(nb, nb);
  basis::fold_density(p, folded);

  // The blocked kernel against the bitwise reference over the same block.
  bool odd_columns = false, odd_points = false;
  const auto check = [&](const basis::BatchEval& ev) {
    std::vector<double> ref(ev.points()), out(ev.points());
    basis::contract_density(p, ev, ref.data());
    basis::block_density(folded, ev, out.data());
    EXPECT_LT(max_rel_diff(out, ref), 1e-13);
    odd_columns = odd_columns || ev.basis_ids.size() % 4 != 0;
    odd_points = odd_points || ev.points() % 4 != 0;
  };

  // Projection rings (the Rho producer's blocks), inner and outer.
  basis::BatchEval ev;
  for (const double r : {0.3, 1.7, 6.0}) {
    const std::vector<Vec3> pts = ring(f.basis->structure(), 0, r);
    f.basis->evaluate_batch(pts.data(), pts.size(), {}, ev);
    check(ev);
  }
  // Every grid point in blocks of 37.
  for (std::size_t b = 0; b < f.pts.size(); b += 37) {
    f.basis->evaluate_batch(f.pts.data() + b, std::min<std::size_t>(37, f.pts.size() - b),
                            {}, ev);
    check(ev);
  }
  // A hand-built block: 37 points, every column but the last (nloc % 4 != 0
  // whatever nb is), column 2 zero at every point and random zeros
  // elsewhere -- the kernel's padding and skip-free zero handling.
  basis::BatchEval hand;
  for (std::uint32_t mu = 0; mu + 1 < nb; ++mu) hand.basis_ids.push_back(mu);
  if (hand.basis_ids.size() % 4 == 0) hand.basis_ids.pop_back();
  hand.reset(37);
  for (std::size_t k = 0; k < hand.points(); ++k)
    for (std::size_t i = 0; i < hand.basis_ids.size(); ++i)
      if (i != 2 && rng.uniform(0, 1) < 0.8) hand.phi[k * hand.ld + i] = rng.uniform(-1, 1);
  check(hand);
  EXPECT_TRUE(odd_columns) << "no block with nloc % 4 != 0";
  EXPECT_TRUE(odd_points) << "no block with a point count % 4 != 0";

  // The integrator's tiles (BatchIntegrator::density).
  const scf::BatchIntegrator integ(f.basis, f.grid);
  const std::vector<double> grid_n = integ.density(p);
  ASSERT_EQ(grid_n.size(), f.grid->size());
  f.basis->evaluate_batch(f.pts.data(), f.grid->size(), {}, ev);
  std::vector<double> ref(f.grid->size());
  basis::contract_density(p, ev, ref.data());
  EXPECT_LT(max_rel_diff(grid_n, ref), 1e-13);
}

// A point's blocked density depends only on the fold and its own entries:
// the same bits in one block of the whole grid, in blocks of 37, in blocks
// of 5, and in the integrator's tiles.
TEST(RhoBatch, BlockedDensityIsTheSameInEveryBlock) {
  const BasisFixture f = water_points();
  const std::size_t nb = f.basis->size(), np = f.grid->size();
  Rng rng(12);
  linalg::Matrix p(nb, nb);
  for (std::size_t i = 0; i < nb; ++i)
    for (std::size_t j = 0; j < nb; ++j) p(i, j) = rng.uniform(-1, 1);
  linalg::Matrix folded(nb, nb);
  basis::fold_density(p, folded);

  basis::BatchEval ev;
  const auto blocked = [&](std::size_t block) {
    std::vector<double> out(np);
    for (std::size_t b = 0; b < np; b += block) {
      f.basis->evaluate_batch(f.pts.data() + b, std::min(block, np - b), {}, ev);
      basis::block_density(folded, ev, out.data() + b);
    }
    return out;
  };
  const std::vector<double> whole = blocked(np);
  EXPECT_EQ(blocked(37), whole);
  EXPECT_EQ(blocked(5), whole);
  EXPECT_EQ(scf::BatchIntegrator(f.basis, f.grid).density(p), whole);
}

// Smooth model density shared by the projection tests.
double model_density(const grid::Structure& s, const Vec3& p) {
  double n = 0.0;
  for (std::size_t a = 0; a < s.size(); ++a)
    n += std::exp(-1.3 * (p - s.atom(a).pos).norm2());
  return n;
}

/// The projection from public pieces, with the partition evaluated point by
/// point. `ramp`: each shell's ring on the integration grid's rule for it
/// (grid::shell_rules at degree 2 l_max + 2), projected through l <=
/// min(l_max, degree / 2), the solver's specification. Otherwise: the full
/// rule and every channel on every shell.
poisson::MultipoleDensity hand_projection(const grid::Structure& s,
                                          const poisson::HartreeSolver& hartree,
                                          bool ramp) {
  const int l_max = hartree.spec().l_max;
  const std::size_t nr = hartree.mesh().size();
  const std::size_t outer = static_cast<std::size_t>(2 * l_max + 2);
  const grid::ShellRules rules = grid::shell_rules(nr, outer);
  const grid::AngularGrid full = grid::AngularGrid::for_degree(outer);
  const grid::BeckePartition partition(s);
  const std::size_t nlm = basis::lm_count(l_max);
  poisson::MultipoleDensity rho;
  rho.samples.assign(s.size(), std::vector<std::vector<double>>(
                                   nlm, std::vector<double>(nr, 0.0)));
  std::vector<double> ylm;
  for (std::size_t a = 0; a < s.size(); ++a)
    for (std::size_t i = 0; i < nr; ++i) {
      const grid::AngularGrid& ang = ramp ? rules.rules[rules.rule_of_shell[i]] : full;
      const int l_cap = ramp ? std::min(l_max, static_cast<int>(ang.degree() / 2)) : l_max;
      const double r = hartree.mesh().r(i);
      for (std::size_t k = 0; k < ang.size(); ++k) {
        const Vec3 pt = s.atom(a).pos + r * ang.direction(k);
        const double val = model_density(s, pt) * partition.weight(a, pt) * ang.weight(k);
        if (val == 0.0) continue;
        basis::real_ylm_all(l_cap, ang.direction(k), ylm);
        for (std::size_t lm = 0; lm < ylm.size(); ++lm) rho.samples[a][lm][i] += val * ylm[lm];
      }
    }
  return rho;
}

// The solver's Becke table, per-row ring offsets and per-rule Y_lm tables
// must not move a sample of the specified projection, the zeros above each
// shell's cap included.
TEST(RhoBatch, ProjectionMatchesIndependentBeckeLoop) {
  const grid::Structure s = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 40;
  const poisson::HartreeSolver hartree(s, spec);
  const poisson::MultipoleDensity rho = hartree.project(
      poisson::DensityFn([&s](const Vec3& p) { return model_density(s, p); }));
  const poisson::MultipoleDensity ref = hand_projection(s, hartree, /*ramp=*/true);
  for (std::size_t a = 0; a < s.size(); ++a)
    for (std::size_t lm = 0; lm < ref.samples[a].size(); ++lm)
      for (std::size_t i = 0; i < hartree.mesh().size(); ++i)
        ASSERT_EQ(rho.samples[a][lm][i], ref.samples[a][lm][i])
            << "atom " << a << " shell " << i << " lm " << lm;
}

// At the example_aeqp_run settings (80 shells, l_max 4) the ramp gives four
// bands of rings, 2,608 points per atom instead of 80 x 66, and no shell
// carries a channel its rule cannot integrate.
TEST(RhoBatch, RingsFollowTheRampAndChannelsAboveTheCapAreZero) {
  const grid::Structure s = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 80;
  const poisson::HartreeSolver hartree(s, spec);
  const std::vector<std::size_t>& offsets = hartree.ring_offsets();
  ASSERT_EQ(offsets.size(), s.size() * 80 + 1);
  EXPECT_EQ(offsets.back(), s.size() * 2608);
  // (first shell of the band, ring points, highest channel)
  const std::array<std::array<std::size_t, 3>, 4> bands = {
      {{0, 6, 1}, {20, 14, 2}, {36, 26, 3}, {52, 66, 4}}};
  const poisson::MultipoleDensity rho = hartree.project(
      poisson::DensityFn([&s](const Vec3& p) { return model_density(s, p); }));
  for (std::size_t a = 0; a < s.size(); ++a)
    for (std::size_t i = 0; i < 80; ++i) {
      std::size_t band = 0;
      while (band + 1 < bands.size() && i >= bands[band + 1][0]) ++band;
      const std::size_t row = a * 80 + i;
      EXPECT_EQ(offsets[row + 1] - offsets[row], bands[band][1]) << "shell " << i;
      const std::size_t kept = basis::lm_count(static_cast<int>(bands[band][2]));
      for (std::size_t lm = kept; lm < rho.samples[a].size(); ++lm)
        ASSERT_EQ(rho.samples[a][lm][i], 0.0) << "atom " << a << " shell " << i << " lm " << lm;
      EXPECT_NE(rho.samples[a][0][i], 0.0) << "atom " << a << " shell " << i;
    }
}

// The cap keeps the ramp physical: the Hartree energy of the water model
// density through the ramped rings stays within 1e-8 relative of a
// projection with the full rule and every channel on every shell.
TEST(RhoBatch, RampedHartreeEnergyMatchesOneRuleProjection) {
  const grid::Structure s = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 80;
  const poisson::HartreeSolver hartree(s, spec);
  poisson::MultipoleDensity one_rule = hand_projection(s, hartree, /*ramp=*/false);
  hartree.finalize_splines(one_rule);
  const poisson::PartitionedPotential v_ramp = hartree.solve(hartree.project(
      poisson::DensityFn([&s](const Vec3& p) { return model_density(s, p); })));
  const poisson::PartitionedPotential v_one = hartree.solve(one_rule);

  const grid::MolecularGrid grid = grid::MolecularGrid::build(s, grid::GridSpec{});
  std::vector<Vec3> pts(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) pts[p] = grid.point(p).pos;
  const auto energy = [&](const poisson::PartitionedPotential& v) {
    std::vector<double> vp(grid.size());
    hartree.potential_points(v, pts, vp);
    double e = 0.0;
    for (std::size_t p = 0; p < grid.size(); ++p)
      e += 0.5 * grid.point(p).weight * model_density(s, pts[p]) * vp[p];
    return e;
  };
  const double e_ramp = energy(v_ramp), e_one = energy(v_one);
  EXPECT_GT(e_one, 1.0);
  EXPECT_LT(std::fabs(e_ramp - e_one), 1e-8 * e_one)
      << "ramp " << e_ramp << " one rule " << e_one;
}

TEST(RhoBatch, ConcurrentFirstProjectionsAgree) {
  const grid::Structure s = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 40;
  const poisson::BatchDensityFn density = [&s](const Vec3* pts, std::size_t n,
                                               double* out) {
    for (std::size_t k = 0; k < n; ++k) out[k] = model_density(s, pts[k]);
  };
  const poisson::MultipoleDensity ref =
      poisson::HartreeSolver(s, spec).project(density);

  // Four threads race into the first projection of a fresh solver: one
  // builds the Becke table, the others wait for it.
  exec::ThreadPool::set_global_threads(4);
  const poisson::HartreeSolver fresh(s, spec);
  std::vector<poisson::MultipoleDensity> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] { got[t] = fresh.project(density); });
  for (auto& th : threads) th.join();
  exec::ThreadPool::set_global_threads(0);
  for (const auto& rho : got) EXPECT_EQ(rho.samples, ref.samples);
}

TEST(RhoBatch, PotentialBatchBitIdenticalToScalar) {
  const grid::Structure s = core::water();
  poisson::PoissonSpec spec;
  spec.l_max = 4;
  spec.radial_points = 60;
  const poisson::HartreeSolver hartree(s, spec);
  // A smooth two-center model density; no SCF needed for a kernel test.
  const auto v = hartree.solve_density(poisson::DensityFn([&s](const Vec3& p) {
    double n = 0.0;
    for (std::size_t a = 0; a < s.size(); ++a)
      n += std::exp(-1.3 * (p - s.atom(a).pos).norm2());
    return n;
  }));

  // Probe blocks straddling near-field, far-field, and mixed geometry.
  std::vector<Vec3> pts;
  Rng rng(42);
  for (int t = 0; t < 300; ++t)
    pts.push_back({rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)});
  for (int t = 0; t < 50; ++t)  // tight near-field cluster
    pts.push_back(s.atom(0).pos + Vec3{rng.uniform(-0.3, 0.3),
                                       rng.uniform(-0.3, 0.3),
                                       rng.uniform(-0.3, 0.3)});

  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    std::vector<double> out(pts.size());
    for (std::size_t b = 0; b < pts.size(); b += block) {
      const std::size_t e = std::min(pts.size(), b + block);
      hartree.potential_batch(v, pts.data() + b, e - b, out.data() + b);
    }
    for (std::size_t k = 0; k < pts.size(); ++k)
      EXPECT_EQ(out[k], hartree.potential(v, pts[k])) << "block=" << block;
  }
}

scf::ScfResult h2_ground() {
  grid::Structure s;
  s.add_atom(1, {0, 0, -0.7});
  s.add_atom(1, {0, 0, 0.7});
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 32;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 70;
  opt.poisson.l_max = 2;
  return scf::ScfSolver(s, opt).run();
}

TEST(RhoBatch, PolarizabilityInsensitiveToScreeningThreshold) {
  const scf::ScfResult ground = h2_ground();
  ASSERT_TRUE(ground.converged);

  core::DfptOptions base;
  base.tolerance = 1e-8;
  auto exact = base;
  exact.screening_threshold = 0.0;  // tau = 0: screening is a no-op

  const auto r_tau = core::DfptSolver(ground, base).solve_direction(2);
  const auto r_exact = core::DfptSolver(ground, exact).solve_direction(2);
  ASSERT_TRUE(r_tau.converged);
  ASSERT_TRUE(r_exact.converged);
  EXPECT_NEAR(r_tau.dipole_response.z, r_exact.dipole_response.z, 1e-10);
  EXPECT_NEAR(r_tau.dipole_response.x, r_exact.dipole_response.x, 1e-10);
}

/// The consumer's block counters: near, mixed, far.
std::array<std::uint64_t, 3> potential_blocks() {
  return {obs::counter("rho/screen/potential_near_blocks").value(),
          obs::counter("rho/screen/potential_mixed_blocks").value(),
          obs::counter("rho/screen/potential_far_blocks").value()};
}

std::array<std::uint64_t, 3> minus(const std::array<std::uint64_t, 3>& a,
                                   const std::array<std::uint64_t, 3>& b) {
  return {a[0] - b[0], a[1] - b[1], a[2] - b[2]};
}

/// One H2 SCF and one CPSCF direction on a pool of `threads`, with the
/// consumer's block counts of each phase.
struct RhoPhaseRun {
  double energy = 0.0;
  core::DfptDirectionResult direction;
  std::array<std::uint64_t, 3> scf_blocks{}, cpscf_blocks{};
};

RhoPhaseRun rho_phase_run(std::size_t threads) {
  exec::ThreadPool::set_global_threads(threads);
  RhoPhaseRun run;
  const auto start = potential_blocks();
  const scf::ScfResult ground = h2_ground();
  const auto scf_done = potential_blocks();
  core::DfptOptions opt;
  opt.tolerance = 1e-8;
  run.direction = core::DfptSolver(ground, opt).solve_direction(2);
  exec::ThreadPool::set_global_threads(0);
  run.energy = ground.total_energy;
  run.scf_blocks = minus(scf_done, start);
  run.cpscf_blocks = minus(potential_blocks(), scf_done);
  EXPECT_TRUE(ground.converged);
  EXPECT_TRUE(run.direction.converged);
  return run;
}

TEST(RhoBatch, RhoPhaseDeterministicAcrossThreadCounts) {
  const RhoPhaseRun r1 = rho_phase_run(1);
  const RhoPhaseRun r4 = rho_phase_run(4);
  EXPECT_EQ(r1.energy, r4.energy);
  EXPECT_EQ(r1.direction.dipole_response.x, r4.direction.dipole_response.x);
  EXPECT_EQ(r1.direction.dipole_response.y, r4.direction.dipole_response.y);
  EXPECT_EQ(r1.direction.dipole_response.z, r4.direction.dipole_response.z);
  EXPECT_EQ(r1.direction.iterations, r4.direction.iterations);
  // The consumer cuts the same fixed blocks at every thread count, so it
  // classifies the same blocks.
  EXPECT_EQ(r1.scf_blocks, r4.scf_blocks);
  EXPECT_EQ(r1.cpscf_blocks, r4.cpscf_blocks);
  EXPECT_GT(r1.scf_blocks[0] + r1.scf_blocks[1] + r1.scf_blocks[2], 0u);
  EXPECT_GT(r1.cpscf_blocks[0] + r1.cpscf_blocks[1] + r1.cpscf_blocks[2], 0u);
}

TEST(TuneConstants, ZeroResolvesToTheConstantAndARequestWins) {
  EXPECT_EQ(tune::rho_block_size(0), tune::kRhoBlockSize);
  EXPECT_EQ(tune::rho_block_size(17), 17u);
}

}  // namespace
