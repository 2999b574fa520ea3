#include "kernels/batch_kernels.hpp"

#include "common/error.hpp"

namespace aeqp::kernels {

void sumup_kernel(simt::SimtRuntime& rt, const grid::MolecularGrid& grid,
                  const std::vector<scf::GridTile>& tiles, const linalg::Matrix& p,
                  std::vector<double>& n_out) {
  AEQP_CHECK(n_out.size() == grid.size(), "sumup_kernel: output size mismatch");
  const std::size_t nb = p.rows();
  AEQP_CHECK(p.cols() == nb, "sumup_kernel: density matrix must be square");
  linalg::Matrix folded(nb, nb);
  basis::fold_density(p, folded);

  auto out = rt.bind(n_out);
  rt.launch(tiles.size(), /*group_size=*/256, [&](simt::WorkGroup& wg) {
    const scf::GridTile& tile = tiles[wg.group_id()];
    const std::size_t nloc = tile.basis_ids.size();

    // Stage the tile's dense block of fold(P) in __local memory (the small
    // dense matrix of Fig. 3(b)); a block beyond on-chip capacity spills.
    const bool fits = nloc * nloc * sizeof(double) <= rt.model().onchip_bytes;
    std::vector<double> spill(fits ? 0 : nloc * nloc);
    const std::span<double> block = fits ? wg.local_mem(nloc * nloc) : std::span<double>(spill);
    scf::gather_block(folded, tile, block.data());
    rt.stats().offchip_read_bytes += nloc * nloc * sizeof(double);
    wg.barrier();

    // One work-item per grid point: the folded contraction over half the
    // point's entry pairs.
    std::vector<double> n(tile.size());
    scf::contract_tile(block.data(), tile, n.data());
    for (std::size_t k = 0; k < tile.size(); ++k) {
      out.store(tile.point_ids[k], n[k]);
      const std::size_t ne = tile.offsets[k + 1] - tile.offsets[k];
      wg.flops(ne * (ne + 1));
    }
    wg.issue_simt(tile.size(), 8);
  });
}

void h_kernel(simt::SimtRuntime& rt, const grid::MolecularGrid& grid,
              const std::vector<scf::GridTile>& tiles,
              std::span<const double> v_samples, linalg::Matrix& h_out) {
  AEQP_CHECK(v_samples.size() == grid.size(), "h_kernel: sample count mismatch");
  AEQP_CHECK(h_out.cols() == h_out.rows(), "h_kernel: output matrix must be square");

  // Tiles overlap in (mu, nu), so groups stage their dense blocks here and
  // the host flushes them in tile order after the launch: race-free under
  // parallel groups and deterministic for every thread count.
  std::vector<scf::TileBlock> blocks(tiles.size());

  rt.launch(tiles.size(), /*group_size=*/256, [&](simt::WorkGroup& wg) {
    const scf::GridTile& tile = tiles[wg.group_id()];
    const std::size_t nloc = tile.basis_ids.size();

    const bool fits = nloc * nloc * sizeof(double) <= rt.model().onchip_bytes;
    if (fits) (void)wg.local_mem(nloc * nloc);  // models on-chip residency
    std::vector<double> w;
    scf::tile_weights(grid, tile,
                      [&](std::size_t k) { return v_samples[tile.point_ids[k]]; }, w);
    for (std::size_t k = 0; k < tile.size(); ++k) {
      const std::size_t ne = tile.offsets[k + 1] - tile.offsets[k];
      if (w[k] != 0.0) wg.flops(2 * ne * ne);
    }
    blocks[wg.group_id()].basis_ids = tile.basis_ids;
    scf::accumulate_tile(tile, w.data(), /*laplacian=*/false,
                         blocks[wg.group_id()].values);
    wg.barrier();
    rt.stats().offchip_write_bytes += nloc * nloc * sizeof(double);
    wg.issue_simt(tile.size(), 8);
  });

  // Fixed-order reduction: flush every tile block to the global matrix in
  // tile order -- the reduced off-chip traffic the locality mapping buys.
  scf::flush_tile_blocks(blocks, h_out);
}

}  // namespace aeqp::kernels
