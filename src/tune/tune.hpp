#pragma once

/// \file tune.hpp
/// The performance-only constants of the Rho phase, the grid tiling and the
/// communication layer, with the paper's choices (100-300 point batches, a
/// 30 MB packing window). They are constants, not settings: no file,
/// environment variable or sweep changes them, so a run's tiling depends on
/// its inputs alone. docs/performance.md gives each one's evidence.
///
/// kRhoBlockSize and kPackWindowBytes regroup work without reordering any
/// floating-point accumulation, so they never change a bit.
/// kGridBatchPoints sets the grid tiling (scf/tiles.hpp), and with it the
/// tile order in which matrix blocks flush, so another value would move
/// results at the rounding level -- the same for every thread and rank
/// count, as docs/parallelism.md requires.

#include <cstddef>

namespace aeqp::tune {

/// Rho consumer block: grid points handed to potential_batch at once.
inline constexpr std::size_t kRhoBlockSize = 64;
/// Target points per grid tile (integrator, CPSCF ranks, device kernels).
inline constexpr std::size_t kGridBatchPoints = 128;
/// Packed-allreduce staging window in bytes.
inline constexpr std::size_t kPackWindowBytes = 30u * 1024u * 1024u;

/// Resolve a Rho block request: a nonzero request wins, 0 means the
/// constant.
[[nodiscard]] constexpr std::size_t rho_block_size(std::size_t requested) {
  return requested != 0 ? requested : kRhoBlockSize;
}

}  // namespace aeqp::tune
