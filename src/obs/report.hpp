#pragma once

/// \file report.hpp
/// Exporters over the trace buffers and metrics registry:
///
///   - write_chrome_trace(): Chrome trace-event JSON loadable in
///     chrome://tracing or Perfetto, one lane per rank x thread, spans as
///     complete ("X") events and instants as "i" events.
///   - write_phase_report(): human-readable end-of-run table -- per span
///     name the call count, total wall seconds, share of the profiled
///     wall time, and per-rank max/min totals (rank skew); followed by
///     instant-event counts and the metrics snapshot (which carries the
///     modeled seconds registered by SimtRuntime and the bytes moved
///     through PackedAllReducer).
///   - profile_json(): the same aggregate as a JSON object fragment, for
///     benches that embed the phase breakdown into their output files.
///   - ScopedRunProfile: RAII driver for main()s -- resets the buffers on
///     entry and, on exit (or finish()), emits the report to stderr and,
///     in full mode, the Chrome trace to AEQP_TRACE_FILE (default
///     "trace.json"). Does nothing when tracing is off.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace aeqp::obs {

/// Aggregate of all completed spans sharing one name.
struct SpanAggregate {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;     ///< summed duration over all lanes
  double max_rank_s = 0.0;  ///< largest per-rank total (ranked lanes only)
  double min_rank_s = 0.0;  ///< smallest per-rank total (ranked lanes only)
  std::size_t ranks = 0;    ///< distinct ranks that recorded the span
};

/// Aggregate the current buffers by span name, sorted by descending total
/// time. Host-lane (rank -1) spans contribute to count/total only.
[[nodiscard]] std::vector<SpanAggregate> aggregate_spans();

/// Instant-event counts by name, sorted by name.
struct InstantAggregate {
  std::string name;
  std::size_t count = 0;
};
[[nodiscard]] std::vector<InstantAggregate> aggregate_instants();

/// Write the Chrome trace-event JSON of everything recorded so far.
/// Returns false (and writes nothing) when the file cannot be opened.
bool write_chrome_trace(const std::string& path, const std::string& label);

/// Write the human-readable phase report.
void write_phase_report(std::ostream& os, const std::string& label);

/// Span aggregate + instants + metrics snapshot as a JSON object string
/// (no trailing newline), indented by `indent` spaces per level. For
/// embedding into bench JSON files.
[[nodiscard]] std::string profile_json(int indent = 2);

/// RAII run profiler for program entry points.
class ScopedRunProfile {
public:
  /// `label` names the run in the report header and the trace metadata.
  /// Resets trace buffers (not metrics counters) so the profile covers
  /// exactly this object's lifetime. No-op in off mode.
  explicit ScopedRunProfile(std::string label);
  ~ScopedRunProfile();
  ScopedRunProfile(const ScopedRunProfile&) = delete;
  ScopedRunProfile& operator=(const ScopedRunProfile&) = delete;

  /// Emit the report (and trace.json in full mode) now instead of at
  /// destruction. Idempotent.
  void finish();

private:
  std::string label_;
  std::string trace_path_;        ///< AEQP_TRACE_FILE or "trace.json"
  std::string comm_matrix_path_;  ///< AEQP_COMM_MATRIX_FILE or "comm_matrix.json"
  bool finished_ = false;
};

}  // namespace aeqp::obs
