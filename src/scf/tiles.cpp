#include "scf/tiles.hpp"

#include <algorithm>

namespace aeqp::scf {

std::size_t GridTile::bytes() const {
  return (point_ids.capacity() + basis_ids.capacity()) * sizeof(std::uint32_t) +
         phi.capacity() * sizeof(double);
}

void build_tile(const basis::BasisSet& basis, const grid::MolecularGrid& grid,
                std::span<const std::uint32_t> points, GridTile& out,
                std::vector<double>* laplacians) {
  thread_local basis::PointEval ev;
  thread_local std::vector<std::uint32_t> first;   // point -> its first entry
  thread_local std::vector<std::uint32_t> global;  // entry -> global id
  thread_local std::vector<double> values, laps;   // entry -> chi, nabla^2 chi
  thread_local std::vector<std::int32_t> slot;     // global id -> local, -1 = absent
  const bool with_laplacian = laplacians != nullptr;
  out.point_ids.assign(points.begin(), points.end());
  out.basis_ids.clear();
  first.assign(1, 0);
  global.clear();
  values.clear();
  laps.clear();
  slot.resize(basis.size(), -1);
  for (const std::uint32_t pid : points) {
    basis.evaluate(grid.point(pid).pos, with_laplacian, ev);
    for (std::size_t i = 0; i < ev.indices.size(); ++i) {
      if (ev.values[i] == 0.0) continue;
      const std::uint32_t mu = ev.indices[i];
      if (slot[mu] < 0) {
        slot[mu] = 0;
        out.basis_ids.push_back(mu);
      }
      global.push_back(mu);
      values.push_back(ev.values[i]);
      if (with_laplacian) laps.push_back(ev.laplacians[i]);
    }
    first.push_back(static_cast<std::uint32_t>(global.size()));
  }
  std::sort(out.basis_ids.begin(), out.basis_ids.end());
  for (std::size_t i = 0; i < out.basis_ids.size(); ++i)
    slot[out.basis_ids[i]] = static_cast<std::int32_t>(i);
  out.reset(points.size());
  if (with_laplacian) laplacians->assign(out.phi.size(), 0.0);
  for (std::size_t k = 0; k < out.size(); ++k)
    for (std::uint32_t e = first[k]; e < first[k + 1]; ++e) {
      const std::size_t at = k * out.ld + static_cast<std::size_t>(slot[global[e]]);
      out.phi[at] = values[e];
      if (with_laplacian) (*laplacians)[at] = laps[e];
    }
  for (const std::uint32_t mu : out.basis_ids) slot[mu] = -1;
}

std::vector<GridTile> build_tiles(const basis::BasisSet& basis,
                                  const grid::MolecularGrid& grid,
                                  const std::vector<grid::Batch>& batches) {
  std::vector<GridTile> tiles(batches.size());
  exec::parallel_for(0, batches.size(), [&](std::size_t t) {
    build_tile(basis, grid, batches[t].points, tiles[t]);
  });
  return tiles;
}

namespace {

/// The one accumulation kernel: blk (n x n, row-major) = sum over the
/// points k with w[k] != 0, in point order, of (x_k w_k) y_k^T, where x_k
/// and y_k are rows of point-major arrays of stride ld (a multiple of 4,
/// zero-padded past n). Each 4x4 block of blk sums in registers, one
/// accumulator per (i, j). `symmetric` (y == x) runs the upper block
/// triangle only and mirrors every upper entry on store.
void rank_k_update(const double* x, const double* y, std::size_t ld, std::size_t n,
                   std::size_t n_points, const double* w, bool symmetric,
                   double* blk) {
  for (std::size_t ib = 0; ib < n; ib += 4) {
    for (std::size_t jb = symmetric ? ib : 0; jb < n; jb += 4) {
      // Sixteen named accumulators: the compiler keeps them in registers
      // (an indexed array would live on the stack).
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0, c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0, c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      for (std::size_t k = 0; k < n_points; ++k) {
        const double wk = w[k];
        if (wk == 0.0) continue;
        const double* xr = x + k * ld + ib;
        const double* yr = y + k * ld + jb;
        const double x0 = xr[0] * wk, x1 = xr[1] * wk, x2 = xr[2] * wk, x3 = xr[3] * wk;
        const double y0 = yr[0], y1 = yr[1], y2 = yr[2], y3 = yr[3];
        c00 += x0 * y0, c01 += x0 * y1, c02 += x0 * y2, c03 += x0 * y3;
        c10 += x1 * y0, c11 += x1 * y1, c12 += x1 * y2, c13 += x1 * y3;
        c20 += x2 * y0, c21 += x2 * y1, c22 += x2 * y2, c23 += x2 * y3;
        c30 += x3 * y0, c31 += x3 * y1, c32 += x3 * y2, c33 += x3 * y3;
      }
      const double c[4][4] = {{c00, c01, c02, c03},
                              {c10, c11, c12, c13},
                              {c20, c21, c22, c23},
                              {c30, c31, c32, c33}};
      const std::size_t ie = std::min<std::size_t>(4, n - ib);
      const std::size_t je = std::min<std::size_t>(4, n - jb);
      for (std::size_t a = 0; a < ie; ++a)
        for (std::size_t b = symmetric && ib == jb ? a : 0; b < je; ++b) {
          blk[(ib + a) * n + jb + b] = c[a][b];
          if (symmetric) blk[(jb + b) * n + ib + a] = c[a][b];
        }
    }
  }
}

}  // namespace

void accumulate_tile(const GridTile& tile, const double* w, std::vector<double>& blk) {
  const std::size_t nloc = tile.basis_ids.size();
  blk.resize(nloc * nloc);
  rank_k_update(tile.phi.data(), tile.phi.data(), tile.ld, nloc, tile.size(), w,
                /*symmetric=*/true, blk.data());
}

void accumulate_tile(const GridTile& tile, const double* y, const double* w,
                     std::vector<double>& blk) {
  const std::size_t nloc = tile.basis_ids.size();
  blk.resize(nloc * nloc);
  rank_k_update(tile.phi.data(), y, tile.ld, nloc, tile.size(), w,
                /*symmetric=*/false, blk.data());
}

std::size_t tile_update_pairs(const GridTile& tile) {
  const std::size_t blocks = tile.ld / 4;
  return 16 * blocks * (blocks + 1) / 2;
}

void flush_tile_blocks(const std::vector<TileBlock>& blocks, linalg::Matrix& m) {
  const std::size_t nb = m.cols();
  for (const TileBlock& b : blocks) {
    const std::size_t nloc = b.basis_ids.size();
    for (std::size_t i = 0; i < nloc; ++i) {
      double* mrow = m.data() + std::size_t{b.basis_ids[i]} * nb;
      const double* brow = b.values.data() + i * nloc;
      for (std::size_t j = 0; j < nloc; ++j) mrow[b.basis_ids[j]] += brow[j];
    }
  }
}

}  // namespace aeqp::scf
