#pragma once

/// \file task_mapping.hpp
/// Batch-to-process task mapping strategies (paper Sec. 3.1).
///
/// - least_loaded_mapping: the legacy load-balancing strategy of FHI-aims
///   [ref 6]: each batch goes to the process currently owning the fewest
///   grid points, ignoring which atoms the batch touches. Balanced, but an
///   atom's grid points scatter across many processes (Fig. 3a).
/// - locality_enhancing_mapping: the paper's Algorithm 1: recursive
///   bisection of batches by spatial projection, splitting the process set
///   and the (point-weighted) batch set in half each round, so neighbouring
///   atoms land on the same process (Fig. 3b).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/batch.hpp"
#include "obs/memaudit.hpp"

namespace aeqp::mapping {

/// batches_of_rank[r] lists batch indices assigned to rank r.
struct Assignment {
  std::vector<std::vector<std::uint32_t>> batches_of_rank;

  [[nodiscard]] std::size_t rank_count() const { return batches_of_rank.size(); }

  /// Total grid points of rank r.
  [[nodiscard]] std::size_t points_of_rank(
      std::size_t r, const std::vector<grid::Batch>& batches) const;

  /// Sorted unique atoms whose grid points rank r owns.
  [[nodiscard]] std::vector<std::uint32_t> atoms_of_rank(
      std::size_t r, const std::vector<grid::Batch>& batches) const;
};

/// Legacy strategy: greedy least-loaded assignment in batch order.
Assignment least_loaded_mapping(const std::vector<grid::Batch>& batches,
                                std::size_t n_ranks);

/// Register the real container bytes of `a` under the memory-audit gauge
/// "mapping/assignment" (ROADMAP item 3: the batch-to-rank tables are
/// per-rank state growing with global N). The returned scope owns the
/// registration and releases it on destruction; keep it alive exactly as
/// long as the assignment. One relaxed atomic load when the audit is off.
[[nodiscard]] obs::MemScope track_assignment(const Assignment& a);

/// Outcome of an elastic re-mapping: the survivor assignment (densely
/// renumbered: slot s of the result is survivors[s] of the previous
/// assignment) plus what had to move.
struct RemapResult {
  Assignment assignment;
  std::size_t moved_batches = 0;  ///< orphaned batches re-homed
  std::size_t moved_points = 0;   ///< grid points those batches carry
};

/// Locality-aware re-mapping after permanent rank loss (elastic recovery).
/// Survivors keep the batches they already own -- their caches, splines and
/// basis evaluations stay valid -- and each orphaned batch of a dead rank
/// is re-homed to the survivor minimizing the same locality-vs-balance
/// objective Algorithm 1 optimizes: distance from the batch centroid to the
/// survivor's mean centroid, scaled by the survivor's relative point load,
/// over the survivors the batch still fits under an equal share (one that
/// fits under none goes to the survivor it overloads least).
/// Orphans are placed largest-first and the survivor centroid/load are
/// updated incrementally, so the result is deterministic. `survivors` lists
/// surviving rank ids of `previous` in strictly increasing order.
RemapResult remap_for_survivors(const Assignment& previous,
                                const std::vector<grid::Batch>& batches,
                                const std::vector<std::size_t>& survivors);

/// Weighted re-mapping around measured rank speeds (the recovery ladder's
/// rebalance rung, fired for stragglers *before* any shrink). Every rank
/// stays in the world -- no renumbering, rank_count is preserved and the
/// result is safe to use under the same Cluster -- but each rank r is
/// targeted at total_points * weights[r] / sum(weights): a rank measured 8x
/// slow (weight 1/8) keeps ~1/8 of a fair share. Overloaded ranks shed
/// their farthest-from-centroid batches first (their locality core stays
/// intact), and the orphans are re-homed with the same locality-vs-balance
/// objective and target cap remap_for_survivors uses, both measured against
/// the weighted target. Deterministic: results depend only on the
/// inputs, so every rank computing its own copy agrees bit-for-bit.
/// `weights` has previous.rank_count() entries, each > 0.
RemapResult rebalance_for_slow_ranks(const Assignment& previous,
                                     const std::vector<grid::Batch>& batches,
                                     const std::vector<double>& weights);

/// Paper Algorithm 1: locality-enhancing recursive bisection.
Assignment locality_enhancing_mapping(const std::vector<grid::Batch>& batches,
                                      std::size_t n_ranks);

/// Load imbalance: max points per rank / mean points per rank.
double load_imbalance(const Assignment& a, const std::vector<grid::Batch>& batches);

/// Mean spatial spread (RMS distance of batch centroids to their rank's
/// mean centroid), the locality metric Algorithm 1 minimizes.
double mean_rank_spread(const Assignment& a, const std::vector<grid::Batch>& batches);

}  // namespace aeqp::mapping
