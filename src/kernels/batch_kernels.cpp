#include "kernels/batch_kernels.hpp"

#include <algorithm>

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

    // Stage the tile's upper triangle of fold(P) in __local memory (the
    // small dense matrix of Fig. 3(b)); a block beyond on-chip capacity
    // spills.
    const std::size_t u_size = nloc * tile.ld;
    const bool fits = u_size * sizeof(double) <= rt.model().onchip_bytes;
    std::vector<double> spill(fits ? 0 : u_size);
    const std::span<double> u = fits ? wg.local_mem(u_size) : std::span<double>(spill);
    basis::gather_upper(folded, tile, u.data());
    rt.stats().offchip_read_bytes += nloc * (nloc + 1) / 2 * sizeof(double);
    wg.barrier();

    // One work-item per grid point: the blocked density kernel, whose
    // dense pairs every point pays.
    std::vector<double> n(tile.size());
    basis::contract_upper(u.data(), tile, n.data());
    for (std::size_t k = 0; k < tile.size(); ++k) out.store(tile.point_ids[k], n[k]);
    wg.flops(2 * basis::upper_pairs(tile) * tile.size());
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
    // The dense update: every point the kernel does not skip costs the
    // upper block triangle's multiply-adds.
    const auto live = static_cast<std::size_t>(std::count_if(
        w.begin(), w.end(), [](double wk) { return wk != 0.0; }));
    wg.flops(2 * scf::tile_update_pairs(tile) * live);
    blocks[wg.group_id()].basis_ids = tile.basis_ids;
    scf::accumulate_tile(tile, w.data(), blocks[wg.group_id()].values);
    wg.barrier();
    rt.stats().offchip_write_bytes += nloc * nloc * sizeof(double);
    wg.issue_simt(tile.size(), 8);
  });

  // Fixed-order reduction: flush every tile block to the global matrix in
  // tile order -- the reduced off-chip traffic the locality mapping buys.
  scf::flush_tile_blocks(blocks, h_out);
}

}  // namespace aeqp::kernels
