#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/comm_matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aeqp::obs {

namespace {

/// JSON string escaping (names are ASCII identifiers, but be safe).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::vector<SpanAggregate> aggregate_spans() {
  const auto spans = completed_spans();
  struct Acc {
    std::size_t count = 0;
    double total_s = 0.0;
    std::map<int, double> per_rank;
  };
  std::map<std::string, Acc> by_name;
  for (const CompletedSpan& s : spans) {
    Acc& a = by_name[s.name];
    ++a.count;
    a.total_s += s.dur_us * 1e-6;
    if (s.rank >= 0) a.per_rank[s.rank] += s.dur_us * 1e-6;
  }
  std::vector<SpanAggregate> out;
  out.reserve(by_name.size());
  for (const auto& [name, a] : by_name) {
    SpanAggregate agg;
    agg.name = name;
    agg.count = a.count;
    agg.total_s = a.total_s;
    agg.ranks = a.per_rank.size();
    if (!a.per_rank.empty()) {
      agg.max_rank_s = 0.0;
      agg.min_rank_s = a.per_rank.begin()->second;
      for (const auto& [rank, sec] : a.per_rank) {
        agg.max_rank_s = std::max(agg.max_rank_s, sec);
        agg.min_rank_s = std::min(agg.min_rank_s, sec);
      }
    }
    out.push_back(std::move(agg));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              return a.name < b.name;
            });
  return out;
}

std::vector<InstantAggregate> aggregate_instants() {
  std::map<std::string, std::size_t> by_name;
  for (const CollectedEvent& ce : collect_events())
    if (ce.event.type == EventType::Instant) ++by_name[ce.event.name];
  std::vector<InstantAggregate> out;
  out.reserve(by_name.size());
  for (const auto& [name, count] : by_name) out.push_back({name, count});
  return out;
}

bool write_chrome_trace(const std::string& path, const std::string& label) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;

  const auto events = collect_events();
  const auto spans = completed_spans();

  // Lane naming: pid = rank + 1 (0 = host threads), tid = thread index.
  std::fprintf(f, "{\n  \"displayTimeUnit\": \"ms\",\n");
  std::fprintf(f, "  \"otherData\": {\"label\": \"%s\"},\n",
               json_escape(label).c_str());
  std::fprintf(f, "  \"traceEvents\": [\n");

  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };

  // Metadata: name each process lane once.
  std::map<int, bool> pids;
  for (const CollectedEvent& ce : events) pids[ce.event.rank + 1] = true;
  for (const auto& [pid, unused] : pids) {
    sep();
    if (pid == 0)
      std::fprintf(f,
                   "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0,"
                   " \"args\": {\"name\": \"host\"}}");
    else
      std::fprintf(f,
                   "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d,"
                   " \"args\": {\"name\": \"rank %d\"}}",
                   pid, pid - 1);
  }

  for (const CompletedSpan& s : spans) {
    sep();
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": %d, \"tid\": %zu}",
                 json_escape(s.name).c_str(), s.ts_us, s.dur_us, s.rank + 1,
                 s.thread_index);
  }
  for (const CollectedEvent& ce : events) {
    if (ce.event.type != EventType::Instant) continue;
    sep();
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ph\": \"i\", \"ts\": %.3f, "
                 "\"pid\": %d, \"tid\": %zu, \"s\": \"t\"}",
                 json_escape(ce.event.name).c_str(), ce.event.ts_us,
                 ce.event.rank + 1, ce.thread_index);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

void write_phase_report(std::ostream& os, const std::string& label) {
  const auto aggs = aggregate_spans();
  const auto instants = aggregate_instants();
  const auto metrics = metrics_snapshot();

  // Profiled wall time: the extent of all top-level events.
  double t_min = 0.0, t_max = 0.0;
  bool any = false;
  for (const CollectedEvent& ce : collect_events()) {
    if (!any) {
      t_min = t_max = ce.event.ts_us;
      any = true;
    }
    t_min = std::min(t_min, ce.event.ts_us);
    t_max = std::max(t_max, ce.event.ts_us);
  }
  for (const CompletedSpan& s : completed_spans())
    t_max = std::max(t_max, s.ts_us + s.dur_us);
  const double wall_s = any ? (t_max - t_min) * 1e-6 : 0.0;

  os << "== aeqp phase report: " << label << " ==\n";
  os << "profiled wall time: " << std::fixed << std::setprecision(3) << wall_s
     << " s\n";
  if (aggs.empty()) {
    os << "(no spans recorded; set AEQP_TRACE=summary or full)\n";
  } else {
    os << std::left << std::setw(32) << "span" << std::right << std::setw(8)
       << "calls" << std::setw(12) << "total(s)" << std::setw(12) << "mean(ms)"
       << std::setw(8) << "%wall" << std::setw(22) << "rank max/min (s)"
       << "\n";
    for (const SpanAggregate& a : aggs) {
      os << std::left << std::setw(32) << a.name << std::right << std::setw(8)
         << a.count << std::setw(12) << std::setprecision(4) << a.total_s
         << std::setw(12) << std::setprecision(3)
         << (a.count > 0 ? a.total_s * 1e3 / static_cast<double>(a.count) : 0.0)
         << std::setw(7) << std::setprecision(1)
         << (wall_s > 0 ? 100.0 * a.total_s / wall_s : 0.0) << "%";
      if (a.ranks > 0) {
        std::ostringstream skew;
        skew << std::setprecision(4) << std::fixed << a.max_rank_s << "/"
             << a.min_rank_s << " (" << a.ranks << "r)";
        os << std::setw(22) << skew.str();
      }
      os << "\n";
    }
  }
  if (!instants.empty()) {
    os << "instants:\n";
    for (const InstantAggregate& i : instants)
      os << "  " << std::left << std::setw(34) << i.name << " x" << i.count
         << "\n";
  }
  if (!metrics.empty()) {
    os << "metrics:\n";
    for (const MetricSample& m : metrics)
      os << "  " << std::left << std::setw(34) << m.name << " "
         << format_number(m.value) << "\n";
  }
  if (const std::string comm = comm_matrix_summary(); !comm.empty())
    os << comm << "\n";
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
}

std::string profile_json(int indent) {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  const std::string pad2 = pad + pad;
  std::ostringstream os;
  os << "{\n";
  os << pad << "\"spans\": [\n";
  const auto aggs = aggregate_spans();
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const SpanAggregate& a = aggs[i];
    os << pad2 << "{\"name\": \"" << json_escape(a.name)
       << "\", \"calls\": " << a.count << ", \"total_s\": "
       << format_number(a.total_s);
    if (a.ranks > 0)
      os << ", \"ranks\": " << a.ranks
         << ", \"max_rank_s\": " << format_number(a.max_rank_s)
         << ", \"min_rank_s\": " << format_number(a.min_rank_s);
    os << "}" << (i + 1 < aggs.size() ? "," : "") << "\n";
  }
  os << pad << "],\n";
  os << pad << "\"metrics\": {";
  const auto metrics = metrics_snapshot();
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << json_escape(metrics[i].name)
       << "\": " << format_number(metrics[i].value);
  os << "}\n";
  os << "}";
  return os.str();
}

ScopedRunProfile::ScopedRunProfile(std::string label)
    : label_(std::move(label)) {
  const char* env = std::getenv("AEQP_TRACE_FILE");
  trace_path_ = env && *env ? env : "trace.json";
  const char* cenv = std::getenv("AEQP_COMM_MATRIX_FILE");
  comm_matrix_path_ = cenv && *cenv ? cenv : "comm_matrix.json";
  if (mode() == TraceMode::Off) {
    finished_ = true;  // nothing to emit later
    return;
  }
  reset();
  reset_comm_matrix();
}

ScopedRunProfile::~ScopedRunProfile() { finish(); }

void ScopedRunProfile::finish() {
  if (finished_) return;
  finished_ = true;
  if (mode() == TraceMode::Full) {
    if (write_chrome_trace(trace_path_, label_))
      std::cerr << "[aeqp obs] wrote " << trace_path_ << "\n";
    else
      std::cerr << "[aeqp obs] could not write " << trace_path_ << "\n";
    // Heatmap JSON rides next to the Chrome trace whenever any collective
    // recorded an edge.
    if (!comm_edges().empty()) {
      if (write_comm_matrix(comm_matrix_path_))
        std::cerr << "[aeqp obs] wrote " << comm_matrix_path_ << "\n";
      else
        std::cerr << "[aeqp obs] could not write " << comm_matrix_path_
                  << "\n";
    }
  }
  write_phase_report(std::cerr, label_);
}

}  // namespace aeqp::obs
