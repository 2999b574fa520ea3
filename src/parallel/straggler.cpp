#include "parallel/straggler.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace aeqp::parallel {

namespace {

/// Median and MAD (median absolute deviation) of `v`; `v` is clobbered.
/// Returns {0, 0} on an empty input.
std::pair<double, double> median_mad(std::vector<double>& v) {
  if (v.empty()) return {0.0, 0.0};
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  double median = *mid;
  if (v.size() % 2 == 0) {
    // Lower-of-the-two middle elements biases the deadline down (stricter);
    // average the two middles instead for a symmetric estimate.
    const double lo = *std::max_element(v.begin(), mid);
    median = 0.5 * (lo + median);
  }
  for (double& x : v) x = std::fabs(x - median);
  std::nth_element(v.begin(), mid, v.end());
  double mad = *mid;
  if (v.size() % 2 == 0) {
    const double lo = *std::max_element(v.begin(), mid);
    mad = 0.5 * (lo + mad);
  }
  return {median, mad};
}

}  // namespace

// ---------------------------------------------------------------------------
// DeadlineEstimator

DeadlineEstimator::DeadlineEstimator(Options options)
    : options_(options) {
  AEQP_CHECK(options_.window >= 4, "DeadlineEstimator: window must be >= 4");
  AEQP_CHECK(options_.mad_k >= 0.0, "DeadlineEstimator: mad_k must be >= 0");
  AEQP_CHECK(options_.floor_ms >= 0.0 &&
                 options_.ceiling_ms >= options_.floor_ms,
             "DeadlineEstimator: need 0 <= floor_ms <= ceiling_ms");
  AEQP_CHECK(options_.recompute_every >= 1,
             "DeadlineEstimator: recompute_every must be >= 1");
  rings_ = std::vector<ClassRing>(kCollectiveClassCount + 1);
  for (auto& ring : rings_)
    ring.slots = std::vector<std::atomic<double>>(options_.window);
}

void DeadlineEstimator::record(CollectiveClass c, double ms) {
  const auto record_into = [&](ClassRing& ring) {
    const std::size_t i = ring.n.fetch_add(1, std::memory_order_relaxed);
    ring.slots[i % options_.window].store(ms, std::memory_order_relaxed);
    // Refresh the published deadline every few records; the estimate only
    // has to track the run's latency structure, not every sample.
    if ((i + 1) % options_.recompute_every == 0) recompute(ring);
  };
  record_into(rings_[static_cast<std::size_t>(c)]);
  record_into(rings_.back());  // the all-classes fallback ring
}

void DeadlineEstimator::recompute(ClassRing& ring) const {
  const std::lock_guard<std::mutex> lock(recompute_mutex_);
  const std::size_t n =
      std::min(ring.n.load(std::memory_order_relaxed), options_.window);
  if (n == 0) return;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = ring.slots[i].load(std::memory_order_relaxed);
  const auto [median, mad] = median_mad(v);
  ring.cached_deadline_ms.store(median + options_.mad_k * mad,
                                std::memory_order_relaxed);
}

std::chrono::milliseconds DeadlineEstimator::deadline(
    CollectiveClass c, std::chrono::milliseconds fallback) const {
  const ClassRing* ring = &rings_[static_cast<std::size_t>(c)];
  if (ring->n.load(std::memory_order_relaxed) < options_.min_samples)
    ring = &rings_.back();
  if (ring->n.load(std::memory_order_relaxed) < options_.min_samples)
    return fallback;
  double est = ring->cached_deadline_ms.load(std::memory_order_relaxed);
  if (est <= 0.0) return fallback;  // cache not yet published
  est = std::max(est, options_.floor_ms);
  est = std::min(est, options_.ceiling_ms);
  // The fixed timeout is an upper bound, never a lower one: a service
  // deadline clamp that shrank it below our floor must still win.
  const double cap = static_cast<double>(fallback.count());
  est = std::min(est, cap);
  return std::chrono::milliseconds(
      static_cast<std::chrono::milliseconds::rep>(std::ceil(est)));
}

std::size_t DeadlineEstimator::sample_count(CollectiveClass c) const {
  return rings_[static_cast<std::size_t>(c)].n.load(std::memory_order_relaxed);
}

std::size_t DeadlineEstimator::total_samples() const {
  return rings_.back().n.load(std::memory_order_relaxed);
}

void DeadlineEstimator::reset() {
  const std::lock_guard<std::mutex> lock(recompute_mutex_);
  for (auto& ring : rings_) {
    ring.n.store(0, std::memory_order_relaxed);
    ring.cached_deadline_ms.store(0.0, std::memory_order_relaxed);
    for (auto& s : ring.slots) s.store(0.0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// StragglerDetector

StragglerDetector::StragglerDetector(std::size_t n_ranks, Options options)
    : options_(options) {
  AEQP_CHECK(n_ranks >= 1, "StragglerDetector: need at least one rank");
  AEQP_CHECK(options_.mad_k >= 0.0, "StragglerDetector: mad_k must be >= 0");
  AEQP_CHECK(options_.min_relative >= 1.0,
             "StragglerDetector: min_relative must be >= 1");
  AEQP_CHECK(options_.degrade_after >= 1 && options_.recover_after >= 1,
             "StragglerDetector: hysteresis lengths must be >= 1");
  AEQP_CHECK(options_.weight_floor > 0.0 && options_.weight_floor <= 1.0,
             "StragglerDetector: weight_floor must be in (0, 1]");
  ranks_.reserve(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r)
    ranks_.push_back(std::make_unique<RankState>());
}

void StragglerDetector::record_work(std::size_t original_rank,
                                    double work_ms) {
  if (original_rank >= ranks_.size()) return;
  RankState& s = *ranks_[original_rank];
  s.window_ms.fetch_add(work_ms, std::memory_order_relaxed);
  s.window_samples.fetch_add(1, std::memory_order_relaxed);
}

bool StragglerDetector::classify() {
  const std::lock_guard<std::mutex> lock(classify_mutex_);
  // Snapshot and reset the accumulating window totals first.
  std::vector<double> taken_ms(ranks_.size(), 0.0);
  std::vector<std::size_t> taken_n(ranks_.size(), 0);
  std::vector<double> totals;
  std::vector<std::size_t> with_samples;
  totals.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& s = *ranks_[r];
    taken_ms[r] = s.window_ms.exchange(0.0, std::memory_order_relaxed);
    taken_n[r] = s.window_samples.exchange(0, std::memory_order_relaxed);
    if (!s.active || taken_n[r] == 0) continue;
    totals.push_back(taken_ms[r]);
    with_samples.push_back(r);
  }
  ++stats_.windows;
  std::vector<double> scratch = totals;
  const auto [median, mad] = median_mad(scratch);
  // A window whose median is under the noise floor carries no signal yet:
  // hand it back to the accumulators instead of discarding it, so the next
  // call classifies the longer window. Short iterations then classify
  // every few calls rather than never; streaks keep their state.
  if (with_samples.size() >= 2 && median < options_.min_window_ms) {
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (!ranks_[r]->active) continue;
      ranks_[r]->window_ms.fetch_add(taken_ms[r], std::memory_order_relaxed);
      ranks_[r]->window_samples.fetch_add(taken_n[r],
                                          std::memory_order_relaxed);
    }
    return false;
  }
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    stats_.samples += taken_n[r];
    ranks_[r]->samples_total += taken_n[r];
    if (ranks_[r]->active && taken_n[r] != 0)
      ranks_[r]->last_window_ms = taken_ms[r];
  }
  // A one-rank world (or a window where only one rank moved) has no peers
  // to be slower than -- skip, streaks keep their state.
  if (with_samples.size() < 2) return false;

  const double threshold = std::max(median + options_.mad_k * mad,
                                    options_.min_relative * median);
  bool changed = false;
  for (std::size_t k = 0; k < with_samples.size(); ++k) {
    RankState& s = *ranks_[with_samples[k]];
    const bool over = totals[k] > threshold;
    if (over) {
      ++s.over_streak;
      s.under_streak = 0;
    } else {
      ++s.under_streak;
      s.over_streak = 0;
    }
    // Measured speed relative to the pack, for the rebalance weights.
    s.weight = totals[k] > 0.0
                   ? std::clamp(median / totals[k], options_.weight_floor, 1.0)
                   : 1.0;
    if (!s.degraded && s.over_streak >= options_.degrade_after) {
      s.degraded = true;
      changed = true;
      ++stats_.degrade_events;
      n_degraded_.fetch_add(1, std::memory_order_relaxed);
      obs::trace_instant("straggler/degraded");
    } else if (s.degraded && s.under_streak >= options_.recover_after) {
      s.degraded = false;
      s.weight = 1.0;
      changed = true;
      ++stats_.recover_events;
      n_degraded_.fetch_sub(1, std::memory_order_relaxed);
      obs::trace_instant("straggler/recovered");
    }
  }
  return changed;
}

std::vector<std::size_t> StragglerDetector::degraded_ranks() const {
  const std::lock_guard<std::mutex> lock(classify_mutex_);
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    if (ranks_[r]->active && ranks_[r]->degraded) out.push_back(r);
  return out;
}

std::vector<double> StragglerDetector::speed_weights() const {
  const std::lock_guard<std::mutex> lock(classify_mutex_);
  std::vector<double> w(ranks_.size(), 1.0);
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& s = *ranks_[r];
    if (s.active && s.degraded) w[r] = s.weight;
  }
  return w;
}

void StragglerDetector::retain(
    const std::vector<std::size_t>& survivor_original_ids) {
  const std::lock_guard<std::mutex> lock(classify_mutex_);
  std::vector<bool> keep(ranks_.size(), false);
  for (const std::size_t id : survivor_original_ids) {
    AEQP_CHECK(id < ranks_.size(),
               "StragglerDetector::retain: survivor original id " +
                   std::to_string(id) + " outside the detector's world (" +
                   std::to_string(ranks_.size()) + " ranks)");
    keep[id] = true;
  }
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& s = *ranks_[r];
    if (keep[r] || !s.active) continue;
    s.active = false;
    if (s.degraded) {
      // A dead rank's stale classification must never outlive it: it would
      // bias the weights and the degraded count against a rank that no
      // longer exists.
      s.degraded = false;
      n_degraded_.fetch_sub(1, std::memory_order_relaxed);
    }
    s.over_streak = s.under_streak = 0;
    s.weight = 1.0;
  }
}

StragglerStats StragglerDetector::stats() const {
  const std::lock_guard<std::mutex> lock(classify_mutex_);
  return stats_;
}

std::vector<StragglerRankSnapshot> StragglerDetector::snapshot() const {
  const std::lock_guard<std::mutex> lock(classify_mutex_);
  std::vector<StragglerRankSnapshot> out;
  out.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& s = *ranks_[r];
    StragglerRankSnapshot row;
    row.original_rank = r;
    row.samples =
        s.samples_total + s.window_samples.load(std::memory_order_relaxed);
    row.last_window_ms = s.last_window_ms;
    row.weight = s.degraded ? s.weight : 1.0;
    row.degraded = s.degraded;
    row.active = s.active;
    out.push_back(row);
  }
  return out;
}

}  // namespace aeqp::parallel
