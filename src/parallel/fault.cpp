#include "parallel/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"

namespace aeqp::parallel {

void corrupt_element(FaultKind kind, std::span<double> payload,
                     std::size_t element, int bit) {
  double& slot = payload[element % payload.size()];
  if (kind == FaultKind::BitFlip) {
    std::uint64_t bits;
    std::memcpy(&bits, &slot, sizeof(bits));
    bits ^= std::uint64_t{1} << (bit & 63);
    std::memcpy(&slot, &bits, sizeof(bits));
  } else if (kind == FaultKind::NanPayload) {
    slot = std::numeric_limits<double>::quiet_NaN();
  } else {
    slot = std::numeric_limits<double>::infinity();
  }
}

FaultPlan& FaultPlan::add(const FaultEvent& event) {
  AEQP_CHECK(event.bit >= 0 && event.bit <= 63,
             "FaultPlan: bit " + std::to_string(event.bit) +
                 " out of range 0..63");
  AEQP_CHECK(event.repeat >= 1,
             "FaultPlan: repeat must be >= 1 (an event that never fires is "
             "a plan bug)");
  if (event.kind == FaultKind::Slowdown) {
    AEQP_CHECK(event.slow_factor >= 1.0,
               "FaultPlan: slow_factor " + std::to_string(event.slow_factor) +
                   " must be >= 1 (a slowdown cannot speed a rank up)");
    AEQP_CHECK(event.slow_jitter >= 0.0 && event.slow_jitter < 1.0,
               "FaultPlan: slow_jitter " + std::to_string(event.slow_jitter) +
                   " out of range [0, 1)");
  }
  events_.push_back(event);
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::size_t n_events,
                            std::size_t n_ranks, std::size_t first_collective,
                            std::size_t last_collective,
                            std::vector<FaultKind> kinds,
                            std::size_t permanent_kills,
                            std::size_t slowdowns, double slow_factor) {
  AEQP_CHECK(n_ranks >= 1, "FaultPlan::random: need at least one rank");
  AEQP_CHECK(last_collective > first_collective,
             "FaultPlan::random: empty collective window");
  AEQP_CHECK(!kinds.empty() || n_events == 0,
             "FaultPlan::random: empty kind set");
  Rng rng(seed);
  FaultPlan plan;
  for (std::size_t i = 0; i < n_events; ++i) {
    FaultEvent e;
    e.kind = kinds[rng.uniform_index(kinds.size())];
    e.rank = rng.uniform_index(n_ranks);
    e.collective = first_collective +
                   rng.uniform_index(last_collective - first_collective);
    e.element = rng.uniform_index(4096);
    e.bit = 48 + static_cast<int>(rng.uniform_index(16));
    plan.add(e);
  }
  // Permanent kills strike distinct ranks (a node dies once), and never all
  // of them -- elastic recovery needs at least one survivor to shrink onto.
  permanent_kills = std::min(permanent_kills, n_ranks - 1);
  std::vector<std::size_t> victims(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r) victims[r] = r;
  for (std::size_t k = 0; k < permanent_kills; ++k) {
    const std::size_t pick = k + rng.uniform_index(n_ranks - k);
    std::swap(victims[k], victims[pick]);
    FaultEvent e;
    e.kind = FaultKind::Kill;
    e.rank = victims[k];
    e.collective = first_collective +
                   rng.uniform_index(last_collective - first_collective);
    e.transient = false;
    plan.add(e);
  }
  // Slowdowns strike ranks distinct from each other and from the kill
  // victims (continuing the same Fisher-Yates walk), so the straggler is
  // never also the node that dies -- a soak exercises both ladders at once.
  slowdowns = std::min(slowdowns, n_ranks - permanent_kills);
  for (std::size_t k = 0; k < slowdowns; ++k) {
    const std::size_t base = permanent_kills + k;
    const std::size_t pick = base + rng.uniform_index(n_ranks - base);
    std::swap(victims[base], victims[pick]);
    FaultEvent e;
    e.kind = FaultKind::Slowdown;
    e.rank = victims[base];
    e.collective = first_collective +
                   rng.uniform_index(last_collective - first_collective);
    e.slow_factor = slow_factor;
    e.slow_jitter = 0.3;
    e.repeat = 2 + rng.uniform_index(5);  // 2..6 consecutive collectives
    plan.add(e);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) {
  for (const auto& e : plan.events()) events_.push_back(Armed{e, 0, false});
}

void FaultInjector::on_collective(std::size_t rank, std::size_t original_rank,
                                  std::size_t seq, const char* what,
                                  std::span<double> payload,
                                  const std::function<bool()>& cancelled,
                                  double work_ms) {
  double delay_ms = 0.0;
  bool kill = false;
  bool kill_permanent = false;
  std::size_t kill_collective = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& armed : events_) {
      if (armed.done || armed.event.rank != original_rank) continue;
      // Transient events (and the first firing of permanent ones) wait for
      // the planned collective index. A permanent event that already fired
      // strikes at *every* later collective -- a dead node is dead at its
      // first collective after the failure, whatever its sequence index.
      if (seq < armed.event.collective &&
          (armed.event.transient || armed.fired == 0))
        continue;
      switch (armed.event.kind) {
        case FaultKind::BitFlip:
        case FaultKind::NanPayload:
        case FaultKind::InfPayload: {
          if (payload.empty()) continue;  // wait for a payload collective
          corrupt_element(armed.event.kind, payload, armed.event.element,
                          armed.event.bit);
          ++armed.fired;
          if (armed.event.transient) armed.done = true;
          ++stats_.corruptions;
          obs::trace_instant(armed.event.kind == FaultKind::BitFlip
                                 ? "fault/bit-flip"
                                 : (armed.event.kind == FaultKind::NanPayload
                                        ? "fault/nan-payload"
                                        : "fault/inf-payload"));
          break;
        }
        case FaultKind::Stall:
          delay_ms += static_cast<double>(armed.event.stall_ms);
          if (++armed.fired >= armed.event.repeat && armed.event.transient)
            armed.done = true;
          ++stats_.stalls;
          obs::trace_instant("fault/stall");
          break;
        case FaultKind::Slowdown: {
          // Delay proportional to the CPU time the rank itself consumed
          // since its previous collective: the rank behaves exactly
          // slow_factor times slower, whatever the workload -- and shedding
          // its work (the rebalance rung) shrinks the delay in proportion.
          // Jitter is a deterministic draw from (original rank, collective
          // index), so replays are bit-identical.
          double scale = 1.0;
          if (armed.event.slow_jitter > 0.0) {
            const std::uint64_t h = splitmix64(
                (static_cast<std::uint64_t>(original_rank) << 32) ^ seq);
            const double u =
                static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
            scale = 1.0 + armed.event.slow_jitter * (2.0 * u - 1.0);
          }
          const double d = (armed.event.slow_factor - 1.0) * work_ms * scale;
          delay_ms += d;
          stats_.slowdown_ms += d;
          if (++armed.fired >= armed.event.repeat && armed.event.transient)
            armed.done = true;
          ++stats_.slowdowns;
          obs::trace_instant("fault/slowdown");
          break;
        }
        case FaultKind::Kill:
          ++armed.fired;
          if (armed.event.transient) armed.done = true;
          ++stats_.kills;
          kill = true;
          kill_permanent = !armed.event.transient;
          kill_collective = seq;
          obs::trace_instant("fault/kill");
          break;
      }
    }
  }
  if (delay_ms > 0.0) {
    // Sleep in <= 10 ms slices so a cluster-wide failure cuts the delay
    // short within one slice instead of dragging the whole world behind a
    // victim that no longer matters. The last slice is the exact remainder,
    // so a Slowdown over sub-millisecond work stays slow_factor times
    // slower, not slower by a whole millisecond per collective.
    using namespace std::chrono;
    const auto until =
        steady_clock::now() + duration_cast<steady_clock::duration>(
                                  duration<double, std::milli>(delay_ms));
    for (auto now = steady_clock::now(); now < until && !(cancelled && cancelled());
         now = steady_clock::now())
      std::this_thread::sleep_for(
          std::min<steady_clock::duration>(milliseconds(10), until - now));
  }
  if (kill) {
    std::string msg = "fault injection: rank " + std::to_string(rank);
    if (original_rank != rank)
      msg += " (original rank " + std::to_string(original_rank) + ")";
    msg += std::string(kill_permanent ? " permanently" : "") +
           " killed at collective #" + std::to_string(kill_collective) + " (" +
           what + ")";
    throw RankFailure(rank, rank, msg);
  }
}

FaultInjectorStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t FaultInjector::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& armed : events_)
    if (armed.fired == 0) ++n;
  return n;
}

std::vector<FaultEvent> FaultInjector::planned_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultEvent> events;
  events.reserve(events_.size());
  for (const auto& armed : events_) events.push_back(armed.event);
  return events;
}

obs::ScopedMetricsSource register_metrics(const FaultInjector& injector,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&injector,
       prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const FaultInjectorStats s = injector.stats();
        out.push_back({prefix + "/corruptions",
                       static_cast<double>(s.corruptions)});
        out.push_back({prefix + "/stalls", static_cast<double>(s.stalls)});
        out.push_back({prefix + "/kills", static_cast<double>(s.kills)});
        out.push_back({prefix + "/slowdowns",
                       static_cast<double>(s.slowdowns)});
        out.push_back({prefix + "/slowdown_ms", s.slowdown_ms});
      });
}

}  // namespace aeqp::parallel
