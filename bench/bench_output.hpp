#pragma once

/// \file bench_output.hpp
/// Standardized BENCH_*.json output shared by every bench driver.
///
/// Two conventions, enforced here so the perf-regression sentinel
/// (scripts/bench_history.py) can ingest any bench without per-file
/// special cases:
///
///  - **Path**: files land under AEQP_BENCH_DIR (default: the working
///    directory). CI points this at the artifact staging directory; local
///    runs keep today's behaviour.
///  - **Envelope**: every file opens with the same four fields --
///    "schema_version" (bumped when the envelope itself changes),
///    "bench" (the ledger series name), "timestamp", and
///    "hardware_threads" (the host's core count: the ledger gates an entry
///    only against history from the same core count). The timestamp is
///    PASSED IN via AEQP_BENCH_TIMESTAMP (CI sets it to the commit's ISO
///    date) rather than read from the wall clock, so re-running the same
///    commit reproduces byte-identical output and the history ledger stays
///    deterministic. Unset means the field is emitted empty.
///
/// Header-only; benches are standalone executables and this keeps the
/// bench/ directory free of its own library target.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace aeqp::benchio {

/// Version of the common envelope (not of any bench's payload fields).
inline constexpr int kSchemaVersion = 2;

/// Directory BENCH_*.json files are written to: AEQP_BENCH_DIR or ".".
[[nodiscard]] inline std::string bench_dir() {
  const char* env = std::getenv("AEQP_BENCH_DIR");
  return (env != nullptr && *env != '\0') ? env : ".";
}

/// Full path for a bench output file name (e.g. "BENCH_rho.json").
[[nodiscard]] inline std::string bench_path(const char* filename) {
  return bench_dir() + "/" + filename;
}

/// The run timestamp recorded in the envelope: AEQP_BENCH_TIMESTAMP
/// verbatim, empty when unset. Deliberately NOT derived from the clock --
/// see the file comment.
[[nodiscard]] inline std::string bench_timestamp() {
  const char* env = std::getenv("AEQP_BENCH_TIMESTAMP");
  return env != nullptr ? env : "";
}

/// fopen the standardized path for writing. Returns nullptr on failure
/// (caller reports). When `out_path` is non-null it receives the resolved
/// path for the "Wrote ..." message.
[[nodiscard]] inline std::FILE* open_bench(const char* filename,
                                           std::string* out_path = nullptr) {
  const std::string path = bench_path(filename);
  if (out_path != nullptr) *out_path = path;
  return std::fopen(path.c_str(), "w");
}

/// Emit the opening brace plus the common envelope fields. The caller
/// continues with its payload fields and the closing brace:
///
///   write_envelope(f, "rho_phase");
///   std::fprintf(f, "  \"grid_points\": %zu,\n...", ...);
inline void write_envelope(std::FILE* f, const char* bench_name) {
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": %d,\n"
               "  \"bench\": \"%s\",\n"
               "  \"timestamp\": \"%s\",\n"
               "  \"hardware_threads\": %u,\n",
               kSchemaVersion, bench_name, bench_timestamp().c_str(),
               std::thread::hardware_concurrency());
}

}  // namespace aeqp::benchio
