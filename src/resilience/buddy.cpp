#include "resilience/buddy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "obs/memaudit.hpp"
#include "obs/trace.hpp"
#include "resilience/membudget.hpp"

namespace aeqp::resilience {

namespace {

/// Sanity ceiling for an announced blob size. A corrupted size broadcast
/// (fault injection, bad memory) must not turn into a multi-terabyte
/// allocation; checkpoint blobs at any realistic scale sit far below this.
constexpr double kMaxBlobBytes = 256.0 * 1024.0 * 1024.0;

}  // namespace

BuddyReplicator::BuddyReplicator(std::size_t world_size)
    : world_size_(world_size), blobs_(world_size) {
  AEQP_CHECK(world_size >= 1, "BuddyReplicator: need at least one rank");
}

void BuddyReplicator::replicate(parallel::Communicator& comm,
                                std::span<const unsigned char> blob) {
  AEQP_TRACE_SCOPE("buddy/replicate");
  const std::size_t world = comm.size();
  // Deterministic schedule: slot by slot, announce the blob size, then move
  // the payload (bytes packed into doubles -- the collective layer's
  // currency). Every rank takes part in every broadcast, so the collective
  // sequence is identical on all ranks and fault plans stay addressable.
  for (std::size_t s = 0; s < world; ++s) {
    std::vector<double> size_msg{static_cast<double>(blob.size())};
    comm.broadcast(size_msg, s);
    // A corrupted announcement (NaN, negative, fractional, absurd) is the
    // same on every rank -- the broadcast made it uniform -- so all ranks
    // skip the slot together and the collective schedule stays aligned.
    // The round simply doesn't refresh this replica; a garbled payload
    // that slips through is caught by the frame CRC at restore time.
    const double announced = size_msg[0];
    if (!(announced >= 0.0) || announced != std::floor(announced) ||
        announced > kMaxBlobBytes) {
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.slots_skipped;
      }
      continue;
    }
    const auto nbytes = static_cast<std::size_t>(announced);
    std::vector<double> packed((nbytes + sizeof(double) - 1) / sizeof(double),
                               0.0);
    if (comm.rank() == s && nbytes > 0)
      std::memcpy(packed.data(), blob.data(), std::min(nbytes, blob.size()));
    comm.broadcast(packed, s);

    const std::size_t buddy = (s + 1) % world;
    if (comm.rank() == buddy && nbytes > 0) {
      // Governor probe before this rank commits replica memory; a breach
      // surfaces as a structured fault the recovery ladder relieves (e.g.
      // by spilling the very replicas this is about to grow).
      oom_probe("resilience/buddy_replicas", nbytes);
      BuddyBlob stored;
      stored.holder = comm.original_rank();
      stored.bytes.resize(nbytes);
      std::memcpy(stored.bytes.data(), packed.data(), nbytes);
      const std::size_t owner = comm.original_rank_of(s);
      std::lock_guard<std::mutex> lock(mutex_);
      AEQP_CHECK(owner < blobs_.size(),
                 "BuddyReplicator: original rank out of range");
      // Delta-track resident replica bytes: a refresh replaces the slot.
      obs::mem_track(
          "resilience/buddy_replicas",
          static_cast<std::int64_t>(nbytes) -
              static_cast<std::int64_t>(
                  blobs_[owner] ? blobs_[owner]->bytes.size() : 0));
      blobs_[owner] = std::move(stored);
      ++stats_.blobs_mirrored;
      stats_.bytes_mirrored += nbytes;
    }
  }
  if (comm.rank() == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rounds;
  }
}

std::optional<BuddyBlob> BuddyReplicator::blob_of(
    std::size_t original_rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (original_rank >= blobs_.size()) return std::nullopt;
  const auto& slot = blobs_[original_rank];
  if (!slot || !slot->spilled) return slot;
  // Spilled replica: reload the framed bytes from the spill store. A
  // missing or corrupt spill file degrades to "no replica" (the recovery
  // driver then falls back to a fresh start) rather than throwing from a
  // read-only query.
  if (spill_store_ == nullptr) return std::nullopt;
  try {
    auto bytes = spill_store_->try_load_blob(spill_key(original_rank));
    if (!bytes) return std::nullopt;
    BuddyBlob out;
    out.holder = slot->holder;
    out.bytes = std::move(*bytes);
    return out;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::size_t BuddyReplicator::drop_holder(std::size_t original_rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (auto& blob : blobs_) {
    if (blob && blob->holder == original_rank) {
      // Spilled replicas outlive their holder: the bytes are on shared
      // disk, not in the dead rank's memory.
      if (blob->spilled) continue;
      obs::mem_track("resilience/buddy_replicas",
                     -static_cast<std::int64_t>(blob->bytes.size()));
      blob.reset();
      ++dropped;
    }
  }
  return dropped;
}

void BuddyReplicator::set_spill_store(const CheckpointStore* store) {
  std::lock_guard<std::mutex> lock(mutex_);
  spill_store_ = store;
}

std::int64_t BuddyReplicator::spill() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spill_store_ == nullptr) return 0;
  std::int64_t freed = 0;
  for (std::size_t owner = 0; owner < blobs_.size(); ++owner) {
    auto& blob = blobs_[owner];
    if (!blob || blob->spilled || blob->bytes.empty()) continue;
    spill_store_->save_blob(spill_key(owner), blob->bytes);
    const auto bytes = static_cast<std::int64_t>(blob->bytes.size());
    obs::mem_track("resilience/buddy_replicas", -bytes);
    blob->bytes.clear();
    blob->bytes.shrink_to_fit();
    blob->spilled = true;
    freed += bytes;
    ++stats_.blobs_spilled;
    stats_.bytes_spilled += static_cast<std::size_t>(bytes);
  }
  if (freed > 0) obs::trace_instant("buddy/spill");
  return freed;
}

std::string BuddyReplicator::spill_key(std::size_t original_rank) {
  return "buddy-spill-" + std::to_string(original_rank);
}

BuddyReplicatorStats BuddyReplicator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace aeqp::resilience
