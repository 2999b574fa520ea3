#include "mapping/task_mapping.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "common/error.hpp"

namespace aeqp::mapping {

std::size_t Assignment::points_of_rank(std::size_t r,
                                       const std::vector<grid::Batch>& batches) const {
  std::size_t n = 0;
  for (auto b : batches_of_rank[r]) n += batches[b].size();
  return n;
}

std::vector<std::uint32_t> Assignment::atoms_of_rank(
    std::size_t r, const std::vector<grid::Batch>& batches) const {
  std::vector<std::uint32_t> atoms;
  for (auto b : batches_of_rank[r])
    atoms.insert(atoms.end(), batches[b].atoms.begin(), batches[b].atoms.end());
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  return atoms;
}

Assignment least_loaded_mapping(const std::vector<grid::Batch>& batches,
                                std::size_t n_ranks) {
  AEQP_CHECK(n_ranks >= 1, "least_loaded_mapping: need at least one rank");
  Assignment a;
  a.batches_of_rank.resize(n_ranks);
  // Min-heap keyed on current point load; ties by rank id for determinism.
  using Entry = std::pair<std::size_t, std::size_t>;  // (points, rank)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t r = 0; r < n_ranks; ++r) heap.emplace(0, r);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    auto [pts, r] = heap.top();
    heap.pop();
    a.batches_of_rank[r].push_back(static_cast<std::uint32_t>(b));
    heap.emplace(pts + batches[b].size(), r);
  }
  return a;
}

namespace {

/// What each rank slot of an assignment owns: grid points, the sum of its
/// batch centroids and its batch count.
struct Tally {
  std::vector<std::size_t> points;
  std::vector<Vec3> centroid_sum;
  std::vector<std::size_t> owned;

  Tally(const Assignment& a, const std::vector<grid::Batch>& batches)
      : points(a.rank_count(), 0),
        centroid_sum(a.rank_count(), Vec3{}),
        owned(a.rank_count(), 0) {
    for (std::size_t r = 0; r < a.rank_count(); ++r)
      for (const auto b : a.batches_of_rank[r]) add(r, batches[b]);
  }
  void add(std::size_t r, const grid::Batch& batch) {
    points[r] += batch.size();
    centroid_sum[r] += batch.centroid;
    ++owned[r];
  }
  void remove(std::size_t r, const grid::Batch& batch) {
    points[r] -= batch.size();
    centroid_sum[r] -= batch.centroid;
    --owned[r];
  }
  [[nodiscard]] Vec3 mean(std::size_t r) const {
    return centroid_sum[r] / static_cast<double>(owned[r]);
  }
  [[nodiscard]] std::size_t total_points() const {
    return std::accumulate(points.begin(), points.end(), std::size_t{0});
  }
};

/// Re-home `orphans` onto the slots of `out.assignment`, largest first (the
/// classic bin-packing order) with deterministic id tie-breaks. Each goes
/// to the slot minimizing Algorithm 1's locality-vs-balance objective,
/// (1 + distance to the slot's mean centroid) x (points after accepting) /
/// target[slot], among the slots it still fits under their target; an
/// orphan that fits under none goes to the slot it overloads least. Without
/// that cap locality outbids any load (the distance is in bohr and
/// unbounded): rebalancing a 4-rank H6 chain around one 8x-slow rank left
/// its neighbour at 1.32x its target, and that rank set the pace of every
/// later iteration. The tally updates after every placement.
void place_orphans(std::vector<std::uint32_t> orphans,
                   const std::vector<grid::Batch>& batches,
                   const std::vector<double>& target, Tally& tally,
                   RemapResult& out) {
  std::sort(orphans.begin(), orphans.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (batches[a].size() != batches[b].size())
                return batches[a].size() > batches[b].size();
              return a < b;
            });
  for (const auto b : orphans) {
    std::size_t best = 0;
    double best_score = 0.0;
    bool best_fits = false;
    for (std::size_t r = 0; r < target.size(); ++r) {
      const double load =
          static_cast<double>(tally.points[r] + batches[b].size()) / target[r];
      const bool fits = load <= 1.0;
      double score = load;
      if (fits && tally.owned[r] > 0)  // an empty slot attracts work from anywhere
        score *= 1.0 + (batches[b].centroid - tally.mean(r)).norm();
      if (r == 0 || (fits && !best_fits) ||
          (fits == best_fits && score < best_score)) {
        best = r;
        best_score = score;
        best_fits = fits;
      }
    }
    out.assignment.batches_of_rank[best].push_back(b);
    tally.add(best, batches[b]);
    ++out.moved_batches;
    out.moved_points += batches[b].size();
  }
}

}  // namespace

RemapResult remap_for_survivors(const Assignment& previous,
                                const std::vector<grid::Batch>& batches,
                                const std::vector<std::size_t>& survivors) {
  const std::size_t n_prev = previous.rank_count();
  AEQP_CHECK(!survivors.empty(), "remap_for_survivors: no surviving rank");
  AEQP_CHECK(survivors.size() <= n_prev,
             "remap_for_survivors: more survivors than previous ranks");
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    AEQP_CHECK(survivors[s] < n_prev,
               "remap_for_survivors: survivor id out of range");
    AEQP_CHECK(s == 0 || survivors[s - 1] < survivors[s],
               "remap_for_survivors: survivors must be strictly increasing");
  }

  // Survivors keep their batches; the dead ranks' batches are orphaned.
  RemapResult out;
  std::vector<bool> surviving(n_prev, false);
  for (const std::size_t r : survivors) {
    surviving[r] = true;
    out.assignment.batches_of_rank.push_back(previous.batches_of_rank[r]);
  }
  Tally tally(out.assignment, batches);
  std::size_t total_points = tally.total_points();
  std::vector<std::uint32_t> orphans;
  for (std::size_t r = 0; r < n_prev; ++r) {
    if (surviving[r]) continue;
    for (const auto b : previous.batches_of_rank[r]) {
      orphans.push_back(b);
      total_points += batches[b].size();
    }
  }

  // Every survivor is targeted at an equal share.
  const double share = std::max(static_cast<double>(total_points) /
                                    static_cast<double>(survivors.size()),
                                1.0);
  place_orphans(std::move(orphans), batches,
                std::vector<double>(survivors.size(), share), tally, out);
  return out;
}

RemapResult rebalance_for_slow_ranks(const Assignment& previous,
                                     const std::vector<grid::Batch>& batches,
                                     const std::vector<double>& weights) {
  const std::size_t n_ranks = previous.rank_count();
  AEQP_CHECK(n_ranks >= 1, "rebalance_for_slow_ranks: empty assignment");
  AEQP_CHECK(weights.size() == n_ranks,
             "rebalance_for_slow_ranks: weight count " +
                 std::to_string(weights.size()) + " != rank count " +
                 std::to_string(n_ranks));
  double weight_sum = 0.0;
  for (const double w : weights) {
    AEQP_CHECK(w > 0.0, "rebalance_for_slow_ranks: weights must be > 0");
    weight_sum += w;
  }

  RemapResult out;
  out.assignment = previous;
  Tally tally(out.assignment, batches);
  const std::size_t total_points = tally.total_points();

  // Per-rank point target proportional to measured speed; a floor of one
  // point keeps the balance term below finite. A slow rank's small target
  // repels work exactly in proportion to its measured speed.
  std::vector<double> target(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r)
    target[r] = std::max(static_cast<double>(total_points) * weights[r] /
                             weight_sum,
                         1.0);

  // Overloaded ranks shed batches farthest from their own mean centroid
  // first: the spatial core that makes their caches and splines valuable
  // stays put, the fringe moves.
  std::vector<std::uint32_t> orphans;
  for (std::size_t r = 0; r < n_ranks; ++r) {
    if (static_cast<double>(tally.points[r]) <= target[r] ||
        tally.owned[r] == 0)
      continue;
    auto& ids = out.assignment.batches_of_rank[r];
    const Vec3 mean = tally.mean(r);
    std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
      const double da = (batches[a].centroid - mean).norm2();
      const double db = (batches[b].centroid - mean).norm2();
      if (da != db) return da < db;
      return a < b;
    });
    // Pop from the far end until the target is met (keep at least one
    // batch so the rank still participates in every distributed phase).
    while (ids.size() > 1 &&
           static_cast<double>(tally.points[r]) > target[r]) {
      const std::uint32_t b = ids.back();
      ids.pop_back();
      tally.remove(r, batches[b]);
      orphans.push_back(b);
    }
  }
  place_orphans(std::move(orphans), batches, target, tally, out);

  // Batch order within a rank feeds downstream loops; keep it sorted so the
  // result is independent of shedding/placement order.
  for (auto& ids : out.assignment.batches_of_rank)
    std::sort(ids.begin(), ids.end());
  return out;
}

namespace {

/// One round of the bisection of paper Fig. 5 / Algorithm 1 lines 5-13.
void bisect_ranks(const std::vector<grid::Batch>& batches,
                  std::vector<std::uint32_t>& ids, std::size_t id_begin,
                  std::size_t id_end, std::size_t rank_begin, std::size_t rank_end,
                  Assignment& out) {
  const std::size_t n_ranks = rank_end - rank_begin;
  if (n_ranks == 1) {  // Algorithm 1 line 2-3: map the whole set
    auto& dest = out.batches_of_rank[rank_begin];
    dest.assign(ids.begin() + static_cast<std::ptrdiff_t>(id_begin),
                ids.begin() + static_cast<std::ptrdiff_t>(id_end));
    return;
  }

  // Line 7: dimension with the largest centroid spread.
  Vec3 lo = batches[ids[id_begin]].centroid, hi = lo;
  for (std::size_t k = id_begin + 1; k < id_end; ++k) {
    const Vec3& c = batches[ids[k]].centroid;
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], c[d]);
      hi[d] = std::max(hi[d], c[d]);
    }
  }
  int dim = 0;
  double best = hi[0] - lo[0];
  for (int d = 1; d < 3; ++d)
    if (hi[d] - lo[d] > best) {
      best = hi[d] - lo[d];
      dim = d;
    }

  // Line 8: sort the batch projections along dim.
  std::sort(ids.begin() + static_cast<std::ptrdiff_t>(id_begin),
            ids.begin() + static_cast<std::ptrdiff_t>(id_end),
            [&](std::uint32_t a, std::uint32_t b) {
              return batches[a].centroid[dim] < batches[b].centroid[dim];
            });

  // Lines 9-11: split where the cumulative point count crosses half, scaled
  // by the uneven process split ceil(n/2) : floor(n/2).
  const std::size_t ranks_left = (n_ranks + 1) / 2;
  std::size_t total_points = 0;
  for (std::size_t k = id_begin; k < id_end; ++k)
    total_points += batches[ids[k]].size();
  const double pivot = static_cast<double>(total_points) *
                       static_cast<double>(ranks_left) /
                       static_cast<double>(n_ranks);

  std::size_t split = id_begin;
  std::size_t acc = 0;
  while (split < id_end) {
    const std::size_t next = acc + batches[ids[split]].size();
    if (static_cast<double>(next) > pivot) break;
    acc = next;
    ++split;
  }
  // Both halves must stay non-empty so every rank receives work.
  split = std::clamp(split, id_begin + 1, id_end - 1);
  // Never split fewer batches than processes on either side.
  split = std::clamp(split, id_begin + ranks_left,
                     id_end - (n_ranks - ranks_left));

  bisect_ranks(batches, ids, id_begin, split, rank_begin, rank_begin + ranks_left,
               out);
  bisect_ranks(batches, ids, split, id_end, rank_begin + ranks_left, rank_end, out);
}

}  // namespace

Assignment locality_enhancing_mapping(const std::vector<grid::Batch>& batches,
                                      std::size_t n_ranks) {
  AEQP_CHECK(n_ranks >= 1, "locality_enhancing_mapping: need at least one rank");
  AEQP_CHECK(batches.size() >= n_ranks,
             "locality_enhancing_mapping: need at least one batch per rank");
  Assignment a;
  a.batches_of_rank.resize(n_ranks);
  std::vector<std::uint32_t> ids(batches.size());
  std::iota(ids.begin(), ids.end(), 0u);
  bisect_ranks(batches, ids, 0, ids.size(), 0, n_ranks, a);
  return a;
}

double load_imbalance(const Assignment& a, const std::vector<grid::Batch>& batches) {
  std::size_t total = 0, max_pts = 0;
  for (std::size_t r = 0; r < a.rank_count(); ++r) {
    const std::size_t pts = a.points_of_rank(r, batches);
    total += pts;
    max_pts = std::max(max_pts, pts);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(a.rank_count());
  return mean > 0.0 ? static_cast<double>(max_pts) / mean : 0.0;
}

obs::MemScope track_assignment(const Assignment& a) {
  obs::MemScope scope("mapping/assignment");
  std::int64_t bytes =
      static_cast<std::int64_t>(a.batches_of_rank.capacity() *
                                sizeof(std::vector<std::uint32_t>));
  for (const auto& ids : a.batches_of_rank)
    bytes += static_cast<std::int64_t>(ids.capacity() * sizeof(std::uint32_t));
  scope.add(bytes);
  return scope;
}

double mean_rank_spread(const Assignment& a, const std::vector<grid::Batch>& batches) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t r = 0; r < a.rank_count(); ++r) {
    const auto& ids = a.batches_of_rank[r];
    if (ids.empty()) continue;
    Vec3 mean{};
    for (auto b : ids) mean += batches[b].centroid;
    mean = mean / static_cast<double>(ids.size());
    double rms = 0.0;
    for (auto b : ids) rms += (batches[b].centroid - mean).norm2();
    sum += std::sqrt(rms / static_cast<double>(ids.size()));
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

}  // namespace aeqp::mapping
