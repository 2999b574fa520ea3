#include "scf/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "grid/batch.hpp"
#include "tune/tune.hpp"

namespace aeqp::scf {

using linalg::Matrix;

BatchIntegrator::BatchIntegrator(std::shared_ptr<const basis::BasisSet> basis,
                                 std::shared_ptr<const grid::MolecularGrid> grid)
    : basis_(std::move(basis)), grid_(std::move(grid)) {
  AEQP_CHECK(basis_ && grid_, "BatchIntegrator: null basis or grid");
  // Cut-plane batches are spatially compact, so their active-basis unions
  // (the dense local blocks) stay small.
  const std::vector<grid::Batch> batches =
      grid::make_batches(*grid_, tune::kGridBatchPoints);
  // The one basis-evaluation pass: each tile is built with its Laplacians
  // in a per-thread scratch, which feeds T's tile block at once and is
  // never stored.
  tiles_.resize(batches.size());
  std::vector<TileBlock> blocks(batches.size());
  exec::parallel_for(0, batches.size(), [&](std::size_t t) {
    thread_local std::vector<double> lap, w;
    GridTile& tile = tiles_[t];
    build_tile(*basis_, *grid_, batches[t].points, tile, &lap);
    tile_weights(*grid_, tile, [](std::size_t) { return -0.5; }, w);
    blocks[t].basis_ids = tile.basis_ids;
    accumulate_tile(tile, lap.data(), w.data(), blocks[t].values);
  });
  kinetic_ = Matrix(basis_->size(), basis_->size());
  flush_tile_blocks(blocks, kinetic_);
  // The asymmetric grid estimate of <mu|nabla^2|nu> is symmetrized, the
  // standard practice for NAO grid integration (FHI-aims does the same).
  kinetic_.symmetrize();
}

template <typename Factor>
Matrix BatchIntegrator::accumulate_weighted(Factor&& point_factor) const {
  Matrix m(basis_->size(), basis_->size());
  accumulate_tiles(
      *grid_, tiles_.size(),
      [&](std::size_t t, GridTile&) -> const GridTile& { return tiles_[t]; },
      [&](std::size_t, const GridTile& tile, std::size_t k) {
        return point_factor(tile.point_ids[k]);
      },
      m);
  return m;
}

Matrix BatchIntegrator::overlap() const {
  return accumulate_weighted([](std::size_t) { return 1.0; });
}

Matrix BatchIntegrator::kinetic() const { return kinetic_; }

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
  return accumulate_weighted([&](std::size_t p) { return vnuc_samples_[p]; });
}

Matrix BatchIntegrator::potential_matrix(std::span<const double> v_samples) const {
  AEQP_CHECK(v_samples.size() == grid_->size(),
             "potential_matrix: sample count mismatch");
  return accumulate_weighted([&](std::size_t p) { return v_samples[p]; });
}

const Matrix& BatchIntegrator::dipole_matrix(int axis) const {
  AEQP_CHECK(axis >= 0 && axis < 3, "dipole_matrix: axis must be 0..2");
  const auto a = static_cast<std::size_t>(axis);
  std::call_once(dipole_once_[a], [&] {
    dipole_[a] = accumulate_weighted([&](std::size_t p) { return grid_->point(p).pos[axis]; });
  });
  return dipole_[a];
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
  exec::parallel_for(0, tiles_.size(), [&](std::size_t t) {
    thread_local std::vector<double> out;
    const GridTile& tile = tiles_[t];
    out.resize(tile.size());
    basis::block_density(folded, tile, out.data());
    for (std::size_t k = 0; k < tile.size(); ++k) n[tile.point_ids[k]] = out[k];
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

}  // namespace aeqp::scf
