#pragma once

/// \file tiles.hpp
/// The grid-tile engine: one layout and one implementation of each grid
/// operation, shared by the integrator, every CPSCF rank and the SIMT
/// kernels. A tile is one cut-plane batch of grid points (grid::make_batches,
/// paper Fig. 2) whose basis values are indexed against the tile's dense
/// local block -- the sorted union of the basis functions active anywhere
/// in it (the "small dense block" of Fig. 3(b)).
///
///  - Sumup (Eq. 8): gather the tile's block of the folded density matrix,
///    then contract every point over half its entry pairs. A point's value
///    depends only on the fold and its own entries: identical for every
///    tiling, thread and rank count.
///  - Matrix accumulation (H, S, T, V, D; Eqs. 10-12): every tile fills its
///    own dense block and the blocks flush to the global matrix in tile
///    order: bit-identical for every thread count.

#include <cstdint>
#include <span>
#include <vector>

#include "basis/basis_set.hpp"
#include "exec/thread_pool.hpp"
#include "grid/batch.hpp"
#include "grid/molecular_grid.hpp"
#include "linalg/matrix.hpp"

namespace aeqp::scf {

/// One grid tile: a batch's points and their nonzero basis values, indexed
/// against the tile's dense local basis block.
struct GridTile {
  std::vector<std::uint32_t> point_ids;    ///< grid point ids
  std::vector<std::uint32_t> basis_ids;    ///< local -> global basis index (sorted)
  std::vector<std::uint32_t> offsets;      ///< per-point CSR into the entries
  std::vector<std::uint16_t> local_index;  ///< entry -> local basis index
  std::vector<double> values;              ///< entry -> chi value
  std::vector<double> laplacians;          ///< entry -> nabla^2 chi (if built)

  [[nodiscard]] std::size_t size() const { return point_ids.size(); }
  /// Heap bytes held (capacity), for the memory audit.
  [[nodiscard]] std::size_t bytes() const;
};

/// Build the tile of `points`. One entry filter for every tile: a point
/// keeps exactly the entries with a nonzero basis value, in evaluation
/// order, whether or not Laplacians are stored. (BasisSet::evaluate keeps
/// zero values when asked for Laplacians; those come from a Y_lm that
/// vanishes at a symmetry point, so their Laplacian term vanishes too and
/// dropping them changes no integral.) The shared filter makes every tile
/// of a point -- integrator, rank cache, on-the-fly rebuild -- pair its
/// entries identically in the folded contraction.
void build_tile(const basis::BasisSet& basis, const grid::MolecularGrid& grid,
                std::span<const std::uint32_t> points, bool with_laplacian,
                GridTile& out);

/// Tiles of every batch, built across the exec pool (geometry-only work,
/// done once per geometry: the initialization Fig. 11 optimizes).
[[nodiscard]] std::vector<GridTile> build_tiles(const basis::BasisSet& basis,
                                                const grid::MolecularGrid& grid,
                                                const std::vector<grid::Batch>& batches,
                                                bool with_laplacian = false);

/// blk[i * nloc + j] = f(basis_ids[i], basis_ids[j]): the tile's dense
/// block of a global matrix.
void gather_block(const linalg::Matrix& f, const GridTile& tile, double* blk);

/// The folded tile contraction: out[k] = sum_{a<=b} F_ab chi_a chi_b for
/// every point k of the tile, against the gathered block `blk` of
/// F = basis::fold_density(P). Exact for non-symmetric P; rounds exactly
/// like basis::contract_density_folded over the same entries.
void contract_tile(const double* blk, const GridTile& tile, double* out);

/// gather_block + contract_tile through a per-thread scratch block.
void tile_density(const linalg::Matrix& folded, const GridTile& tile, double* out);

/// blk (nloc x nloc, zero-filled here) = sum_k w[k] chi_k x_k^T over the
/// tile's points, with x = chi, or nabla^2 chi when `laplacian` is set.
/// Points with w[k] == 0 are skipped.
void accumulate_tile(const GridTile& tile, const double* w, bool laplacian,
                     std::vector<double>& blk);

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

/// m += sum over tiles t < n_tiles of sum_k w_k chi_k x_k^T, with
/// w_k = grid weight of the point * factor(t, tile, k). Tiles compute
/// across the exec pool, blocks flush in tile order. `tile_at(t, scratch)`
/// returns tile t, either a cached tile or one rebuilt into `scratch` (a
/// per-thread tile) -- both give the same bits.
template <typename TileAt, typename Factor>
void accumulate_tiles(const grid::MolecularGrid& grid, std::size_t n_tiles,
                      TileAt&& tile_at, Factor&& factor, bool laplacian,
                      linalg::Matrix& m) {
  std::vector<TileBlock> blocks(n_tiles);
  exec::parallel_for(0, n_tiles, [&](std::size_t t) {
    thread_local GridTile scratch;
    thread_local std::vector<double> w;
    const GridTile& tile = tile_at(t, scratch);
    tile_weights(grid, tile, [&](std::size_t k) { return factor(t, tile, k); }, w);
    blocks[t].basis_ids = tile.basis_ids;
    accumulate_tile(tile, w.data(), laplacian, blocks[t].values);
  });
  flush_tile_blocks(blocks, m);
}

}  // namespace aeqp::scf
