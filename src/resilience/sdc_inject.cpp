#include "resilience/sdc_inject.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace aeqp::resilience {

using parallel::FaultKind;

SdcPlan& SdcPlan::add(const SdcEvent& event) {
  AEQP_CHECK(event.kind == FaultKind::BitFlip ||
                 event.kind == FaultKind::NanPayload ||
                 event.kind == FaultKind::InfPayload,
             "SdcPlan: a compute-site event must be a bit flip, NaN or Inf");
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
  constexpr FaultKind kKinds[] = {FaultKind::BitFlip, FaultKind::NanPayload,
                                  FaultKind::InfPayload};
  Rng rng(seed);
  SdcPlan plan;
  for (std::size_t i = 0; i < n_events; ++i) {
    SdcEvent e;
    e.kind = kKinds[rng.uniform_index(3)];
    e.site = sites[rng.uniform_index(sites.size())];
    e.invocation = rng.uniform_index(max_invocation);
    e.element = rng.uniform_index(4096);
    e.bit = 48 + static_cast<int>(rng.uniform_index(16));
    plan.add(e);
  }
  return plan;
}

void SdcInjector::corrupt(const char* site, std::span<double> data) {
  replay_.probe(site, !data.empty(),
                [data](const SdcEvent& e, SdcInjectorStats& stats) {
                  parallel::corrupt_element(e.kind, data, e.element, e.bit);
                  ++(e.kind == FaultKind::BitFlip      ? stats.bit_flips
                     : e.kind == FaultKind::NanPayload ? stats.nans_planted
                                                       : stats.infs_planted);
                  ++stats.corruptions;
                  obs::trace_instant("sdc/inject");
                });
}

}  // namespace aeqp::resilience
