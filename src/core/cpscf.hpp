#pragma once

/// \file cpscf.hpp
/// The one CPSCF iteration body behind DfptSolver and
/// solve_direction_parallel. Every simmpi rank runs
///
///   H -> Sternheimer -> DM/Pulay step/guards -> observer -> Sumup (+ SDC
///   recompute rung) -> convergence test -> Rho
///
/// over the grid tiles it owns and its share of the Rho producer's
/// (atom, radial shell) rows, synthesizing H^(1) and rho_multipole with
/// packed AllReduces. The serial solver is the one-rank world over the
/// integrator's tiles, so serial, distributed and device runs share every
/// line of the cycle.

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_dfpt.hpp"
#include "grid/batch.hpp"
#include "obs/memaudit.hpp"
#include "scf/tiles.hpp"

namespace aeqp::core::detail {

/// Ground-state data the cycle reads on every rank, built once per solver:
/// the occupied/virtual orbital splits, the LDA kernel f_xc(n_0) per grid
/// point and the per-atom screening radii of the Rho producer.
struct CpscfGround {
  CpscfGround(const scf::ScfResult& ground, double screening_threshold);

  const scf::ScfResult& ground;
  linalg::Matrix c_occ;
  linalg::Matrix c_virt;
  std::vector<double> fxc;
  std::vector<double> screen_radii;
};

/// The grid tiles one rank contracts, in its flush order: borrowed (the
/// integrator's tiles -- the serial world), cached per rank, or rebuilt on
/// the fly from the rank's batches. A rank cache is the "dfpt/point_cache"
/// allocation the memory governor probes and audits; the on-the-fly mode
/// is the relief ladder's first rung, bit-identical to the cache because
/// both come from the same tile builder.
class RankTiles {
public:
  /// Borrow prebuilt tiles (values only are read).
  explicit RankTiles(const std::vector<scf::GridTile>& tiles);
  /// The tiles of batches[owned[0]], batches[owned[1]], ...: built now
  /// when `cache` is set, else rebuilt on every use.
  RankTiles(const basis::BasisSet& basis, const grid::MolecularGrid& grid,
            const std::vector<grid::Batch>& batches,
            const std::vector<std::uint32_t>& owned, bool cache);
  RankTiles(const RankTiles&) = delete;  // tiles_ may point at cache_
  RankTiles& operator=(const RankTiles&) = delete;

  [[nodiscard]] std::size_t size() const { return begin_.size() - 1; }
  /// Tile t: the cached one, or one rebuilt into `scratch`.
  [[nodiscard]] const scf::GridTile& tile(std::size_t t, scf::GridTile& scratch) const;
  /// Every tile's point ids, concatenated in tile order: the rank's point
  /// slots. Tile t owns slots [begin(t), begin(t + 1)).
  [[nodiscard]] const std::vector<std::uint32_t>& points() const { return points_; }
  [[nodiscard]] std::size_t begin(std::size_t t) const { return begin_[t]; }
  /// The cached tiles (null in on-the-fly mode); the SIMT kernels launch
  /// one work-group per element.
  [[nodiscard]] const std::vector<scf::GridTile>* cached() const { return tiles_; }

private:
  [[nodiscard]] std::span<const std::uint32_t> points_of(std::size_t t) const {
    return {points_.data() + begin_[t], begin_[t + 1] - begin_[t]};
  }

  const basis::BasisSet* basis_ = nullptr;
  const grid::MolecularGrid* grid_ = nullptr;
  std::vector<scf::GridTile> cache_;
  const std::vector<scf::GridTile>* tiles_ = nullptr;
  std::vector<std::uint32_t> points_;
  std::vector<std::size_t> begin_;
  obs::MemScope mem_{"dfpt/point_cache"};
};

/// Speed weight of each rank of the running world (1.0 = healthy):
/// `world.rank_speed_weights`, original-world indexed, read through
/// `world.active_ranks`; all 1.0 when no weights are set.
[[nodiscard]] std::vector<double> world_speed_weights(const ParallelDfptOptions& world);

/// One direction's CPSCF run: what its ranks read and what they write.
/// Rank 0 writes the replicated results (iterations, flags, P^(1),
/// moments); every rank writes its own points of n^(1).
struct CpscfRun {
  /// Validates the warm start, prepares the bare perturbation -D_J and
  /// splits the Rho producer's rows over the running world. `world.dfpt`
  /// holds the cycle settings; the rest of `world` the world shape and the
  /// synthesis settings (reduce mode, pack window, payload verification,
  /// rank hook).
  CpscfRun(const CpscfGround& in, const ParallelDfptOptions& world, int direction);

  /// Throws on non-convergence when require_convergence is set, adds the
  /// Tr(P^(1) D_I) path and hands out the result. `who` and `context`
  /// frame the error message.
  [[nodiscard]] DfptDirectionResult finish(const std::string& who,
                                           const std::string& context = "");

  const CpscfGround& in;
  const ParallelDfptOptions& world;
  const int direction;
  linalg::Matrix h1_ext;
  /// Rank s projects the (atom, radial shell) rows [rho_row_begin[s],
  /// rho_row_begin[s + 1]): contiguous shares whose ring points are
  /// proportional to the speed weights (cut at the nearest row boundary),
  /// identical on every rank; {0, rows} on one rank.
  const std::vector<std::size_t> rho_row_begin;

  DfptDirectionResult result;
  double last_delta = 0.0;
  std::size_t collectives = 0;  ///< packed collectives (same on every rank)
  std::size_t rows = 0;         ///< rows reduced (same on every rank)
};

/// The CPSCF cycle on one rank of `comm` over `tiles`. Collective: every
/// rank of the world calls it with the same `run`.
void run_cpscf_rank(parallel::Communicator& comm, CpscfRun& run,
                    const RankTiles& tiles);

}  // namespace aeqp::core::detail
