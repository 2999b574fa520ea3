#include "scf/tiles.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace aeqp::scf {

std::size_t GridTile::bytes() const {
  return (point_ids.capacity() + basis_ids.capacity() + offsets.capacity()) *
             sizeof(std::uint32_t) +
         local_index.capacity() * sizeof(std::uint16_t) +
         (values.capacity() + laplacians.capacity()) * sizeof(double);
}

void build_tile(const basis::BasisSet& basis, const grid::MolecularGrid& grid,
                std::span<const std::uint32_t> points, bool with_laplacian,
                GridTile& out) {
  thread_local basis::PointEval ev;
  thread_local std::vector<std::uint32_t> global;  // entry -> global id
  thread_local std::vector<std::int32_t> slot;     // global id -> local, -1 = absent
  out.point_ids.assign(points.begin(), points.end());
  out.offsets.assign(1, 0);
  out.basis_ids.clear();
  out.values.clear();
  out.laplacians.clear();
  global.clear();
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
      out.values.push_back(ev.values[i]);
      if (with_laplacian) out.laplacians.push_back(ev.laplacians[i]);
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.values.size()));
  }
  std::sort(out.basis_ids.begin(), out.basis_ids.end());
  for (std::size_t i = 0; i < out.basis_ids.size(); ++i)
    slot[out.basis_ids[i]] = static_cast<std::int32_t>(i);
  out.local_index.resize(global.size());
  for (std::size_t e = 0; e < global.size(); ++e)
    out.local_index[e] = static_cast<std::uint16_t>(slot[global[e]]);
  for (const std::uint32_t mu : out.basis_ids) slot[mu] = -1;
  AEQP_CHECK(out.basis_ids.size() < 65536, "build_tile: active-basis union too large");
}

std::vector<GridTile> build_tiles(const basis::BasisSet& basis,
                                  const grid::MolecularGrid& grid,
                                  const std::vector<grid::Batch>& batches,
                                  bool with_laplacian) {
  std::vector<GridTile> tiles(batches.size());
  exec::parallel_for(0, batches.size(), [&](std::size_t t) {
    build_tile(basis, grid, batches[t].points, with_laplacian, tiles[t]);
  });
  return tiles;
}

void gather_block(const linalg::Matrix& f, const GridTile& tile, double* blk) {
  const std::size_t nloc = tile.basis_ids.size();
  for (std::size_t i = 0; i < nloc; ++i) {
    const double* frow = f.data() + std::size_t{tile.basis_ids[i]} * f.cols();
    for (std::size_t j = 0; j < nloc; ++j) blk[i * nloc + j] = frow[tile.basis_ids[j]];
  }
}

void contract_tile(const double* blk, const GridTile& tile, double* out) {
  basis::contract_density_folded(blk, tile.basis_ids.size(), tile.offsets.data(),
                                 tile.size(), tile.local_index.data(),
                                 tile.values.data(), out);
}

void tile_density(const linalg::Matrix& folded, const GridTile& tile, double* out) {
  thread_local std::vector<double> blk;
  const std::size_t nloc = tile.basis_ids.size();
  blk.resize(nloc * nloc);
  gather_block(folded, tile, blk.data());
  contract_tile(blk.data(), tile, out);
}

void accumulate_tile(const GridTile& tile, const double* w, bool laplacian,
                     std::vector<double>& blk) {
  const std::size_t nloc = tile.basis_ids.size();
  blk.assign(nloc * nloc, 0.0);
  const double* y = laplacian ? tile.laplacians.data() : tile.values.data();
  // Direct row[local_index] writes into the dense local block: no global
  // m(mu, indices[j]) scatter in the inner loop (the paper's Sec. 4.3
  // indirect-access elimination).
  for (std::size_t k = 0; k < tile.size(); ++k) {
    if (w[k] == 0.0) continue;
    const std::uint32_t begin = tile.offsets[k], end = tile.offsets[k + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const double xi = tile.values[i] * w[k];
      double* row = blk.data() + std::size_t{tile.local_index[i]} * nloc;
      for (std::uint32_t j = begin; j < end; ++j) row[tile.local_index[j]] += xi * y[j];
    }
  }
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
