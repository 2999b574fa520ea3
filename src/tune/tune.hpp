#pragma once

/// \file tune.hpp
/// Persistent per-machine autotuning (ISSUE 7 tentpole, part 3). The
/// performance-only knobs of the Rho phase and the communication layer --
/// block sizes, batch targets, pack windows -- have machine-dependent sweet
/// spots (cache sizes, core counts, NIC latency) that the ablation benches
/// sweep by hand. This module makes the result durable: autotune() runs the
/// sweeps once, save_file() persists the best configuration as versioned
/// JSON, and every solver resolves its "0 = auto" knobs through config(),
/// which loads the file named by AEQP_TUNE_FILE at first use.
///
/// Scope guard: only knobs that cannot change the physics are applied
/// automatically. rho_block_size and pack_window_bytes regroup work without
/// reordering any floating-point accumulation. grid_batch_points sets the
/// grid tiling (scf/tiles.hpp), and with it the tile order in which matrix
/// blocks flush, so it moves results at the rounding level only -- the
/// same for every thread and rank count, as docs/parallelism.md requires.
/// poisson_l_max changes the physics (multipole truncation); the autotuner
/// records a recommendation, but solvers never read it implicitly -- users
/// opt in by copying it into PoissonSpec themselves.

#include <cstddef>
#include <string>

namespace aeqp::tune {

/// Version of the persisted file format. Files with a different
/// aeqp_tune_version are ignored (defaults apply) rather than misread.
inline constexpr int kTuneFileVersion = 1;

/// The tunable knobs, with portable defaults matching the paper's choices
/// (100-300 point batches, 30 MB pack window).
struct TuneConfig {
  /// Rho consumer block: grid points handed to potential_batch at once.
  std::size_t rho_block_size = 64;
  /// Target points per grid tile (integrator, CPSCF ranks, device kernels).
  std::size_t grid_batch_points = 128;
  /// Packed-allreduce staging window in bytes.
  std::size_t pack_window_bytes = 30u * 1024u * 1024u;
  /// Accuracy-gated recommendation only; never applied implicitly.
  int poisson_l_max = 4;
  /// Hostname the sweep ran on (informational).
  std::string machine;
};

/// The process-wide tuned configuration. First call loads the file named by
/// the AEQP_TUNE_FILE environment variable (if set and readable, with a
/// matching version); otherwise defaults. Subsequent calls are lock-free
/// reads of the same instance.
[[nodiscard]] const TuneConfig& config();

/// Replace the process-wide configuration (tests / bench harnesses).
void set_config_for_testing(const TuneConfig& c);
/// Drop any loaded configuration so the next config() re-reads the env.
void reset_config_for_testing();

/// Resolve a solver knob: a nonzero request wins, 0 means "use the tuned
/// value".
[[nodiscard]] std::size_t rho_block_size(std::size_t requested);
[[nodiscard]] std::size_t grid_batch_points(std::size_t requested);
[[nodiscard]] std::size_t pack_window_bytes(std::size_t requested);

/// Serialize to the versioned JSON file format.
[[nodiscard]] std::string to_json(const TuneConfig& c);
/// Parse the file format. Returns false (out untouched) on a version
/// mismatch or unparseable text; unknown keys are ignored, missing keys
/// keep their defaults.
bool parse_json(const std::string& text, TuneConfig& out);
/// Read + parse a file; false if unreadable or rejected by parse_json.
bool load_file(const std::string& path, TuneConfig& out);
/// Write to_json(c) to path; false on I/O failure.
bool save_file(const std::string& path, const TuneConfig& c);

/// One swept knob: the chosen value plus the human-readable sweep table.
struct AutotuneResult {
  TuneConfig best;
  std::string report;  ///< sweep tables for all knobs, ready to print
};

/// Run the sweeps on an inlined water-like workload: rho_block_size by real
/// potential_batch timing, grid_batch_points by load-imbalance objective,
/// pack_window_bytes by the communication cost model, poisson_l_max by
/// producer cost (recommendation stays at the accuracy-gated default).
[[nodiscard]] AutotuneResult autotune();

}  // namespace aeqp::tune
