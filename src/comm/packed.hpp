#pragma once

/// \file packed.hpp
/// Packed collective communication (paper Sec. 3.2.1): several invocations
/// of the same MPI collective are fused into one call that synthesizes all
/// their payloads at once. The paper's driving use case is the row-by-row
/// AllReduce of rho_multipole after the Sumup phase; packing every c rows
/// turns c collectives into one, bounded by a ~30 MB memory heuristic so
/// the staging buffer stays inside the last-level cache budget.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/memaudit.hpp"
#include "parallel/cluster.hpp"
#include "tune/tune.hpp"

namespace aeqp::comm {

/// How a packed buffer is synthesized when flushed.
enum class ReduceMode {
  Flat,          ///< one AllReduce over all ranks
  Hierarchical,  ///< node-local SHM update + leader AllReduce (Sec. 3.2.2)
};

/// Accumulates rows destined for sum-AllReduce and flushes them as a single
/// packed collective. Row memory is scattered back in place on flush.
class PackedAllReducer {
public:
  /// With `verify` set, every flush appends a linear checksum element (the
  /// sum of the staged payload) to the packed buffer; the reduction is
  /// linear, so after the collective the reduced checksum must equal the
  /// sum of the reduced payload within floating-point tolerance. A
  /// violation -- payload corrupted in flight or at the reduction -- raises
  /// parallel::PayloadCorruption on every rank instead of silently
  /// scattering damaged rows. Catches large (high-bit / non-finite)
  /// corruption end-to-end; pair with Cluster::set_verify_payloads for
  /// bit-exact CRC coverage of each rank's contribution.
  PackedAllReducer(parallel::Communicator& comm, ReduceMode mode,
                   std::size_t max_bytes = tune::kPackWindowBytes,
                   bool verify = false);

  /// Callers MUST flush() before destruction: a collective from a
  /// destructor (running at different times on different ranks) is a
  /// deadlock hazard, so destroying a reducer with queued rows is a
  /// programming error enforced by AEQP_ASSERT. The one exemption is
  /// exception unwinding (a rank failure mid-flush), where the queued rows
  /// are abandoned with the failed collective.
  ~PackedAllReducer();

  PackedAllReducer(const PackedAllReducer&) = delete;
  PackedAllReducer& operator=(const PackedAllReducer&) = delete;

  /// Queue one row. All ranks must queue rows in the same order with the
  /// same sizes (collective contract). Triggers a flush when the buffer
  /// would exceed the byte budget. The row memory must stay valid until the
  /// next flush() (or destruction).
  void add(std::span<double> row);

  /// Reduce everything queued in ONE collective and scatter results back to
  /// the original row storage. No-op when empty. Collective: all ranks must
  /// call flush the same number of times (add() keeps this aligned because
  /// every rank sees the same row sequence).
  void flush();

  /// Number of collective invocations so far (the count packing minimizes).
  [[nodiscard]] std::size_t collective_count() const { return flushes_; }

  /// Rows accepted so far.
  [[nodiscard]] std::size_t rows_packed() const { return rows_total_; }

  /// Payload bytes this rank's reducer has pushed through flushed
  /// collectives so far (excluding the verify checksum element). With P
  /// ranks, the comm-matrix row of this rank carries exactly
  /// bytes_reduced() * (P - 1) bytes for the underlying collective.
  [[nodiscard]] std::uint64_t bytes_reduced() const { return bytes_reduced_; }

private:
  /// Re-sync the "comm/packed_buffer" gauge with the staging buffer's
  /// current capacity (ROADMAP item 3: the pack window is per-rank state
  /// bounded by max_bytes_, and the audit should show it).
  void account_buffer();

  parallel::Communicator* comm_;
  ReduceMode mode_;
  std::size_t max_bytes_;
  bool verify_ = false;
  std::vector<double> buffer_;
  std::vector<std::span<double>> pending_;
  std::size_t flushes_ = 0;
  std::size_t rows_total_ = 0;
  std::uint64_t bytes_reduced_ = 0;
  obs::MemScope buf_mem_{"comm/packed_buffer"};
};

}  // namespace aeqp::comm
