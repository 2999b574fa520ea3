#include "resilience/sdc_inject.hpp"

#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_ident.hpp"
#include "obs/trace.hpp"

namespace aeqp::resilience {

const char* sdc_kind_name(SdcKind kind) {
  switch (kind) {
    case SdcKind::BitFlip: return "bit-flip";
    case SdcKind::NanPayload: return "nan-payload";
    case SdcKind::InfPayload: return "inf-payload";
  }
  return "?";
}

SdcPlan& SdcPlan::add(const SdcEvent& event) {
  AEQP_CHECK(!event.site.empty(), "SdcPlan: event site must be non-empty");
  AEQP_CHECK(event.bit >= 0 && event.bit <= 63,
             "SdcPlan: bit " + std::to_string(event.bit) +
                 " out of range 0..63");
  events_.push_back(event);
  return *this;
}

SdcPlan SdcPlan::random(std::uint64_t seed, std::size_t n_events,
                        const std::vector<std::string>& sites,
                        std::size_t max_invocation) {
  AEQP_CHECK(!sites.empty() || n_events == 0, "SdcPlan::random: empty site set");
  AEQP_CHECK(max_invocation >= 1 || n_events == 0,
             "SdcPlan::random: empty invocation window");
  Rng rng(seed);
  SdcPlan plan;
  for (std::size_t i = 0; i < n_events; ++i) {
    SdcEvent e;
    const std::size_t kind = rng.uniform_index(3);
    e.kind = kind == 0 ? SdcKind::BitFlip
                       : (kind == 1 ? SdcKind::NanPayload : SdcKind::InfPayload);
    e.site = sites[rng.uniform_index(sites.size())];
    e.invocation = rng.uniform_index(max_invocation);
    e.element = rng.uniform_index(4096);
    e.bit = 48 + static_cast<int>(rng.uniform_index(16));
    plan.add(e);
  }
  return plan;
}

SdcInjector::SdcInjector(SdcPlan plan) {
  for (const auto& e : plan.events()) events_.push_back(Armed{e, 0, false});
}

void SdcInjector::corrupt(const char* site, std::span<double> data) {
  const int rank = thread_rank();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.probes;
  const std::size_t invocation = invocations_[site]++;
  if (data.empty()) return;
  for (auto& armed : events_) {
    if (armed.done || armed.event.site != site) continue;
    if (armed.event.rank >= 0 && armed.event.rank != rank) continue;
    // Transient events (and the first firing of permanent ones) wait for
    // their exact planned invocation; a permanent event that already fired
    // strikes at every later matching probe, like a stuck compute unit.
    if (invocation != armed.event.invocation &&
        (armed.event.transient || armed.fired == 0))
      continue;
    double& slot = data[armed.event.element % data.size()];
    switch (armed.event.kind) {
      case SdcKind::BitFlip: {
        std::uint64_t bits;
        std::memcpy(&bits, &slot, sizeof(bits));
        bits ^= std::uint64_t{1} << (armed.event.bit & 63);
        std::memcpy(&slot, &bits, sizeof(bits));
        ++stats_.bit_flips;
        break;
      }
      case SdcKind::NanPayload:
        slot = std::numeric_limits<double>::quiet_NaN();
        ++stats_.nans_planted;
        break;
      case SdcKind::InfPayload:
        slot = std::numeric_limits<double>::infinity();
        ++stats_.infs_planted;
        break;
    }
    ++armed.fired;
    if (armed.event.transient) armed.done = true;
    ++stats_.corruptions;
    obs::trace_instant("sdc/inject");
  }
}

SdcInjectorStats SdcInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SdcInjector::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& armed : events_)
    if (armed.fired == 0) ++n;
  return n;
}

std::size_t SdcInjector::invocations(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = invocations_.find(site);
  return it == invocations_.end() ? 0 : it->second;
}

}  // namespace aeqp::resilience
