#pragma once

/// \file batch_kernels.hpp
/// The Sumup and H phases expressed in the paper's OpenCL execution model
/// (Sec. 4.1) over *real* molecular data: each work-group processes one
/// grid tile, each work-item one grid point; the tile's dense block lives
/// in __local memory; producing the response density and the
/// response-Hamiltonian contribution of the tile.
///
/// The group bodies are the tile engine's own operations (scf/tiles.hpp):
/// the folded tile contraction and the tile accumulation with a tile-order
/// flush. The kernels therefore compute bit-for-bit what the host
/// integrator computes over the same tiles, while counting the
/// device-model events the portability analysis consumes.

#include <span>
#include <vector>

#include "grid/molecular_grid.hpp"
#include "linalg/matrix.hpp"
#include "scf/tiles.hpp"
#include "simt/runtime.hpp"

namespace aeqp::kernels {

/// Sumup kernel: density sum_{mu,nu} P_mu_nu chi_mu chi_nu at every point
/// of the given tiles, through the tile's __local block of fold(P).
/// Output is indexed by global grid-point id (only covered points written).
void sumup_kernel(simt::SimtRuntime& rt, const grid::MolecularGrid& grid,
                  const std::vector<scf::GridTile>& tiles, const linalg::Matrix& p,
                  std::vector<double>& n_out);

/// H kernel: accumulate sum_p w_p v(p) chi_mu(p) chi_nu(p) over the given
/// tiles into `h_out` (global basis indexing). Per-tile accumulation
/// happens in a dense local block, flushed to __global in tile order after
/// the launch -- the memory-traffic pattern the locality mapping enables.
void h_kernel(simt::SimtRuntime& rt, const grid::MolecularGrid& grid,
              const std::vector<scf::GridTile>& tiles,
              std::span<const double> v_samples, linalg::Matrix& h_out);

}  // namespace aeqp::kernels
