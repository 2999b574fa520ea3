#include "scf/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"

namespace aeqp::scf {

using linalg::Matrix;

namespace {
/// Points per accumulation tile. Comparable to the paper's batch sizes
/// (100-300 points); small enough to keep the dense local blocks in cache
/// and to load-balance across the pool.
constexpr std::size_t kTilePoints = 128;
}  // namespace

BatchIntegrator::BatchIntegrator(std::shared_ptr<const basis::BasisSet> basis,
                                 std::shared_ptr<const grid::MolecularGrid> grid)
    : basis_(std::move(basis)), grid_(std::move(grid)) {
  AEQP_CHECK(basis_ && grid_, "BatchIntegrator: null basis or grid");
  const std::size_t np = grid_->size();
  offsets_.assign(np + 1, 0);
  basis::PointEval ev;
  for (std::size_t p = 0; p < np; ++p) {
    basis_->evaluate(grid_->point(p).pos, /*with_laplacian=*/true, ev);
    offsets_[p + 1] = offsets_[p] + static_cast<std::uint32_t>(ev.indices.size());
    indices_.insert(indices_.end(), ev.indices.begin(), ev.indices.end());
    values_.insert(values_.end(), ev.values.begin(), ev.values.end());
    laplacians_.insert(laplacians_.end(), ev.laplacians.begin(),
                       ev.laplacians.end());
  }

  // Cut the point range into tiles and build each tile's dense local index
  // space (sorted union of active basis ids). Grid points are laid out
  // atom-by-atom, so contiguous ranges are spatially compact and their
  // unions stay small.
  const std::size_t n_tiles = (np + kTilePoints - 1) / kTilePoints;
  tiles_.resize(n_tiles);
  exec::parallel_for(0, n_tiles, [&](std::size_t t) {
    Tile& tile = tiles_[t];
    tile.p_begin = static_cast<std::uint32_t>(t * kTilePoints);
    tile.p_end = static_cast<std::uint32_t>(
        std::min(np, (t + 1) * kTilePoints));
    const std::uint32_t e_begin = offsets_[tile.p_begin];
    const std::uint32_t e_end = offsets_[tile.p_end];
    tile.basis_ids.assign(indices_.begin() + e_begin, indices_.begin() + e_end);
    std::sort(tile.basis_ids.begin(), tile.basis_ids.end());
    tile.basis_ids.erase(
        std::unique(tile.basis_ids.begin(), tile.basis_ids.end()),
        tile.basis_ids.end());
    AEQP_CHECK(tile.basis_ids.size() < 65536,
               "BatchIntegrator: tile active-basis union too large");
    tile.local_index.resize(e_end - e_begin);
    for (std::uint32_t e = e_begin; e < e_end; ++e) {
      const auto it = std::lower_bound(tile.basis_ids.begin(),
                                       tile.basis_ids.end(), indices_[e]);
      tile.local_index[e - e_begin] =
          static_cast<std::uint16_t>(it - tile.basis_ids.begin());
    }
  });
}

template <typename Getter>
Matrix BatchIntegrator::accumulate_weighted(Getter&& point_factor,
                                            bool use_laplacian) const {
  const std::size_t nb = basis_->size();
  Matrix m(nb, nb);
  // Phase 1 (parallel): every tile accumulates into its dense local block
  // -- direct row[local_index] writes, no global scatter in the inner loop.
  std::vector<std::vector<double>> blocks(tiles_.size());
  exec::parallel_for(0, tiles_.size(), [&](std::size_t t) {
    const Tile& tile = tiles_[t];
    const std::size_t nloc = tile.basis_ids.size();
    std::vector<double>& blk = blocks[t];
    blk.assign(nloc * nloc, 0.0);
    const std::uint32_t e_base = offsets_[tile.p_begin];
    for (std::size_t p = tile.p_begin; p < tile.p_end; ++p) {
      const double f = point_factor(p);
      if (f == 0.0) continue;
      const double w = grid_->point(p).weight * f;
      const std::uint32_t begin = offsets_[p], end = offsets_[p + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const double xi = values_[i] * w;
        double* row =
            blk.data() + std::size_t{tile.local_index[i - e_base]} * nloc;
        for (std::uint32_t j = begin; j < end; ++j) {
          const double yj = use_laplacian ? laplacians_[j] : values_[j];
          row[tile.local_index[j - e_base]] += xi * yj;
        }
      }
    }
  });
  // Phase 2 (ordered): flush blocks in tile order, so the floating-point
  // accumulation sequence per element is fixed for every thread count.
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const Tile& tile = tiles_[t];
    const std::size_t nloc = tile.basis_ids.size();
    const std::vector<double>& blk = blocks[t];
    for (std::size_t i = 0; i < nloc; ++i) {
      double* mrow = m.data() + std::size_t{tile.basis_ids[i]} * nb;
      const double* brow = blk.data() + i * nloc;
      for (std::size_t j = 0; j < nloc; ++j) mrow[tile.basis_ids[j]] += brow[j];
    }
  }
  return m;
}

Matrix BatchIntegrator::overlap() const {
  return accumulate_weighted([](std::size_t) { return 1.0; }, false);
}

Matrix BatchIntegrator::kinetic() const {
  Matrix t = accumulate_weighted([](std::size_t) { return -0.5; }, true);
  // The asymmetric grid estimate of <mu|nabla^2|nu> is symmetrized, the
  // standard practice for NAO grid integration (FHI-aims does the same).
  t.symmetrize();
  return t;
}

Matrix BatchIntegrator::external_potential() const {
  std::call_once(vnuc_once_, [&] {
    const auto& atoms = basis_->structure().atoms();
    const std::size_t np = grid_->size();
    vnuc_samples_.resize(np);
    exec::parallel_for_ranges(0, np, 256, [&](std::size_t b, std::size_t e) {
      for (std::size_t p = b; p < e; ++p) {
        const Vec3 pos = grid_->point(p).pos;
        double v = 0.0;
        for (const auto& a : atoms) {
          const double r = distance(pos, a.pos);
          v += -static_cast<double>(a.z) / std::max(r, 1e-10);
        }
        vnuc_samples_[p] = v;
      }
    });
  });
  return accumulate_weighted(
      [&](std::size_t p) { return vnuc_samples_[p]; }, false);
}

Matrix BatchIntegrator::potential_matrix(std::span<const double> v_samples) const {
  AEQP_CHECK(v_samples.size() == grid_->size(),
             "potential_matrix: sample count mismatch");
  return accumulate_weighted([&](std::size_t p) { return v_samples[p]; }, false);
}

Matrix BatchIntegrator::dipole_matrix(int axis) const {
  AEQP_CHECK(axis >= 0 && axis < 3, "dipole_matrix: axis must be 0..2");
  return accumulate_weighted(
      [&](std::size_t p) { return grid_->point(p).pos[axis]; }, false);
}

std::vector<double> BatchIntegrator::density(const Matrix& p_mat) const {
  const std::size_t nb = basis_->size();
  AEQP_CHECK(p_mat.rows() == nb && p_mat.cols() == nb,
             "density: density matrix shape mismatch");
  Matrix folded(nb, nb);
  basis::fold_density(p_mat, folded);
  std::vector<double> n(grid_->size(), 0.0);
  // Every point owns its own output slot: embarrassingly parallel and
  // bit-identical for any thread count.
  exec::parallel_for_ranges(
      0, grid_->size(), 64, [&](std::size_t pb, std::size_t pe) {
        basis::contract_density_folded(folded, offsets_.data() + pb, pe - pb,
                                       indices_.data(), values_.data(),
                                       n.data() + pb);
      });
  return n;
}

double BatchIntegrator::moment(std::span<const double> samples, int axis) const {
  AEQP_CHECK(samples.size() == grid_->size(), "moment: sample count mismatch");
  AEQP_CHECK(axis >= 0 && axis < 3, "moment: axis must be 0..2");
  double s = 0.0;
  for (std::size_t p = 0; p < grid_->size(); ++p)
    s += grid_->point(p).weight * grid_->point(p).pos[axis] * samples[p];
  return s;
}

double BatchIntegrator::integrate(std::span<const double> samples) const {
  AEQP_CHECK(samples.size() == grid_->size(), "integrate: sample count mismatch");
  double s = 0.0;
  for (std::size_t p = 0; p < grid_->size(); ++p)
    s += grid_->point(p).weight * samples[p];
  return s;
}

std::size_t BatchIntegrator::active_points() const {
  std::size_t n = 0;
  for (std::size_t p = 0; p < grid_->size(); ++p)
    n += (offsets_[p + 1] > offsets_[p]);
  return n;
}

}  // namespace aeqp::scf
