#pragma once

/// \file tiles.hpp
/// The grid-tile engine: one layout and one implementation of each grid
/// operation, shared by the integrator, every CPSCF rank and the SIMT
/// kernels. A tile is one cut-plane batch of grid points (grid::make_batches,
/// paper Fig. 2) whose basis values are held densely against the tile's
/// local block -- the sorted union of the basis functions active anywhere
/// in it (the "small dense block" of Fig. 3(b)). A tile stores basis values
/// only; no Laplacian is cached (the integrator builds T while it builds
/// its tiles).
///
///  - Sumup (Eq. 8): gather the tile's upper triangle of the folded
///    density matrix and contract every point through the one blocked
///    density kernel (basis::block_density), the kernel the projection
///    rings run too. A point's value depends only on the fold and its own
///    entries: identical for every tiling, thread and rank count.
///  - Matrix accumulation (H, S, V, D; Eqs. 10-12): every tile fills its
///    own dense block with one symmetric rank-k update, and the blocks
///    flush to the global matrix in tile order: bit-identical for every
///    thread count, and exactly symmetric.

#include <cstdint>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "exec/thread_pool.hpp"
#include "grid/batch.hpp"
#include "grid/molecular_grid.hpp"
#include "linalg/matrix.hpp"

namespace aeqp::scf {

/// One grid tile: a batch's points and their basis values against the
/// tile's dense local block -- the sorted union of the basis functions
/// nonzero anywhere in the tile (basis::DenseBlock's columns).
struct GridTile : basis::DenseBlock {
  std::vector<std::uint32_t> point_ids;  ///< grid point ids, one per row of phi

  [[nodiscard]] std::size_t size() const { return point_ids.size(); }
  /// Heap bytes held (capacity), for the memory audit.
  [[nodiscard]] std::size_t bytes() const;
};

/// Build the tile of `points`. One entry filter for every tile: a point's
/// row holds exactly its nonzero basis values. (With Laplacians
/// BasisSet::evaluate also keeps zero values; those come from a Y_lm that
/// vanishes at a symmetry point, so their Laplacian vanishes too and
/// dropping them changes no integral.) The shared filter makes every tile
/// of a point -- integrator, rank cache, on-the-fly rebuild -- hold the
/// same values. When `laplacians` is given it receives nabla^2 chi of the
/// same entries in phi's layout (zero elsewhere): the kinetic matrix's
/// scratch, never stored in the tile.
void build_tile(const basis::BasisSet& basis, const grid::MolecularGrid& grid,
                std::span<const std::uint32_t> points, GridTile& out,
                std::vector<double>* laplacians = nullptr);

/// Tiles of every batch, built across the exec pool (geometry-only work,
/// done once per geometry: the initialization Fig. 11 optimizes).
[[nodiscard]] std::vector<GridTile> build_tiles(const basis::BasisSet& basis,
                                                const grid::MolecularGrid& grid,
                                                const std::vector<grid::Batch>& batches);

/// blk (nloc x nloc, overwritten) = sum_k w[k] chi_k chi_k^T over the
/// tile's points: a symmetric rank-k update of phi. 4x4 register blocks
/// cover the upper triangle; each (i, j) sums (chi_ki w_k) chi_kj in point
/// order, skipping points with w[k] == 0 -- the order of a per-point
/// scatter of the nonzero entries, so the bits match one -- and every
/// upper entry is mirrored on store, so blk is exactly symmetric.
void accumulate_tile(const GridTile& tile, const double* w, std::vector<double>& blk);

/// The same kernel over the full block: blk = sum_k (chi_k w_k) y_k^T for a
/// point-major `y` laid out like phi (build_tile's Laplacians: T).
void accumulate_tile(const GridTile& tile, const double* y, const double* w,
                     std::vector<double>& blk);

/// Multiply-adds accumulate_tile spends on every point it does not skip:
/// the 4x4 blocks of the upper block triangle of ld x ld.
[[nodiscard]] std::size_t tile_update_pairs(const GridTile& tile);

/// A tile's accumulated dense block and the global ids it scatters to.
struct TileBlock {
  std::vector<std::uint32_t> basis_ids;
  std::vector<double> values;
};

/// m(ids[i], ids[j]) += values[i * nloc + j], block by block in order --
/// the fixed flush order that makes accumulation thread-count invariant.
void flush_tile_blocks(const std::vector<TileBlock>& blocks, linalg::Matrix& m);

/// w[k] = grid weight of point k * factor(k) for every point of the tile,
/// exactly 0 where the factor is 0 (accumulate_tile skips those points).
template <typename Factor>
void tile_weights(const grid::MolecularGrid& grid, const GridTile& tile,
                  Factor&& factor, std::vector<double>& w) {
  w.resize(tile.size());
  for (std::size_t k = 0; k < tile.size(); ++k) {
    const double f = factor(k);
    w[k] = f == 0.0 ? 0.0 : grid.point(tile.point_ids[k]).weight * f;
  }
}

/// m += sum over tiles t < n_tiles of sum_k w_k chi_k chi_k^T, with
/// w_k = grid weight of the point * factor(t, tile, k). Tiles compute
/// across the exec pool, blocks flush in tile order. `tile_at(t, scratch)`
/// returns tile t, either a cached tile or one rebuilt into `scratch` (a
/// per-thread tile) -- both give the same bits.
template <typename TileAt, typename Factor>
void accumulate_tiles(const grid::MolecularGrid& grid, std::size_t n_tiles,
                      TileAt&& tile_at, Factor&& factor, linalg::Matrix& m) {
  std::vector<TileBlock> blocks(n_tiles);
  exec::parallel_for(0, n_tiles, [&](std::size_t t) {
    thread_local GridTile scratch;
    thread_local std::vector<double> w;
    const GridTile& tile = tile_at(t, scratch);
    tile_weights(grid, tile, [&](std::size_t k) { return factor(t, tile, k); }, w);
    blocks[t].basis_ids = tile.basis_ids;
    accumulate_tile(tile, w.data(), blocks[t].values);
  });
  flush_tile_blocks(blocks, m);
}

}  // namespace aeqp::scf
