#include "comm/packed.hpp"

#include <cmath>
#include <exception>

#include "comm/hierarchical.hpp"
#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/membudget.hpp"

namespace aeqp::comm {

PackedAllReducer::PackedAllReducer(parallel::Communicator& comm, ReduceMode mode,
                                   std::size_t max_bytes, bool verify)
    : comm_(&comm), mode_(mode), max_bytes_(max_bytes), verify_(verify) {
  AEQP_CHECK(max_bytes_ >= sizeof(double),
             "PackedAllReducer: byte budget too small");
}

PackedAllReducer::~PackedAllReducer() {
  // Collective destructors are a deadlock hazard; require explicit flush.
  // Exception unwinding (e.g. a RankFailure raised mid-flush) is exempt:
  // the queued rows are abandoned with the failed collective, and aborting
  // would turn a recoverable rank fault into a process death.
  if (std::uncaught_exceptions() == 0) AEQP_ASSERT(pending_.empty());
}

void PackedAllReducer::account_buffer() {
  buf_mem_.add(
      static_cast<std::int64_t>(buffer_.capacity() * sizeof(double)) -
      buf_mem_.held());
}

void PackedAllReducer::add(std::span<double> row) {
  if ((buffer_.size() + row.size()) * sizeof(double) > max_bytes_ &&
      !pending_.empty())
    flush();
  // Governor probe before the staging buffer grows: the relief ladder
  // shrinks ParallelDfptOptions::pack_bytes precisely so this request
  // gets smaller.
  const std::size_t need = (buffer_.size() + row.size()) * sizeof(double);
  if (need > buffer_.capacity() * sizeof(double))
    resilience::oom_probe("comm/packed_buffer",
                          need - buffer_.capacity() * sizeof(double));
  buffer_.insert(buffer_.end(), row.begin(), row.end());
  account_buffer();
  pending_.push_back(row);
  ++rows_total_;
  // A single oversized row still has to go out in one piece.
  if (buffer_.size() * sizeof(double) >= max_bytes_) flush();
}

void PackedAllReducer::flush() {
  if (pending_.empty()) return;
  AEQP_TRACE_SCOPE("comm/packed_flush");
  if (obs::enabled()) {
    static obs::Counter& bytes = obs::counter("comm/packed_bytes");
    static obs::Counter& collectives = obs::counter("comm/packed_collectives");
    static obs::Counter& rows = obs::counter("comm/packed_rows");
    bytes.add(buffer_.size() * sizeof(double));
    collectives.add(1);
    rows.add(pending_.size());
  }
  const std::size_t payload_size = buffer_.size();
  bytes_reduced_ += payload_size * sizeof(double);
  obs::flight_metric("comm/packed_bytes",
                     static_cast<double>(payload_size * sizeof(double)));
  if (verify_) {
    // Linear checksum element: the reduction is linear, so the reduced
    // checksum must equal the sum of the reduced payload. Computed per
    // rank over its own staged contribution before the collective.
    double local_sum = 0.0;
    for (std::size_t i = 0; i < payload_size; ++i) local_sum += buffer_[i];
    buffer_.push_back(local_sum);
  }
  switch (mode_) {
    case ReduceMode::Flat:
      comm_->allreduce_sum(buffer_);
      break;
    case ReduceMode::Hierarchical:
      hierarchical_allreduce_sum(*comm_, buffer_);
      break;
  }
  ++flushes_;
  if (verify_) {
    const double reduced_checksum = buffer_.back();
    buffer_.pop_back();
    double sum = 0.0, abs_sum = 0.0;
    for (std::size_t i = 0; i < payload_size; ++i) {
      sum += buffer_[i];
      abs_sum += std::fabs(buffer_[i]);
    }
    // Tolerance: summation roundoff scales with element count and payload
    // magnitude; real corruption (high-bit flip, NaN, Inf) overshoots this
    // by many orders of magnitude. The !(.. <= ..) form also fails -- and
    // therefore detects -- a NaN poisoning either sum.
    const double tau = 1e-6 * std::max(1.0, abs_sum);
    if (!(std::fabs(reduced_checksum - sum) <= tau)) {
      obs::counter("comm/packed_verify_failures").increment();
      obs::trace_instant("sdc/detect");
      // Every rank computes the same reduced sums, so every rank throws
      // together and the collective schedule stays aligned.
      throw parallel::PayloadCorruption(
          comm_->rank(), comm_->original_rank(), "packed_allreduce",
          "PackedAllReducer: reduced payload fails its linear checksum "
          "(checksum " + std::to_string(reduced_checksum) + ", payload sum " +
              std::to_string(sum) + ", " + std::to_string(payload_size) +
              " doubles): corruption detected at the reduction");
    }
  }
  std::size_t offset = 0;
  for (auto row : pending_) {
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = buffer_[offset + i];
    offset += row.size();
  }
  AEQP_ASSERT(offset == buffer_.size());
  buffer_.clear();
  pending_.clear();
}

}  // namespace aeqp::comm
