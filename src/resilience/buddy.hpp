#pragma once

/// \file buddy.hpp
/// In-memory buddy replication of checkpoint blobs (the diskless-checkpoint
/// half of elastic recovery). Every rank serializes its checkpoint slice
/// into a framed blob (see checkpoint.hpp) and mirrors it to its *buddy*,
/// the next rank in the current world's ring order, through the ordinary
/// collective layer. When a rank later dies permanently, its last
/// checkpoint is restorable from the buddy's memory -- no filesystem state
/// of the dead rank is needed, which is exactly the property that lets a
/// shrunken world resume after losing a node together with its node-local
/// storage.
///
/// Blobs are addressed by *original* rank ids, so the mirror map stays
/// meaningful across survivor-world renumberings, and every blob
/// records which original rank holds it: a restore is only valid when the
/// holder itself survived, which RecoveryDriver checks before trusting a
/// replica.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "parallel/cluster.hpp"
#include "resilience/checkpoint.hpp"

namespace aeqp::resilience {

/// One mirrored checkpoint blob: the framed bytes plus the original rank
/// holding the replica in its memory. A spilled blob's bytes live in the
/// spill store instead of memory; blob_of() reloads them transparently.
struct BuddyBlob {
  std::size_t holder = 0;  ///< original rank whose memory holds the replica
  std::vector<unsigned char> bytes;
  bool spilled = false;    ///< bytes moved to the disk-backed spill store
};

/// Counters of what the replicator did (mirrored into obs metrics).
struct BuddyReplicatorStats {
  std::size_t rounds = 0;            ///< replicate() calls completed
  std::size_t blobs_mirrored = 0;    ///< blobs stored at a buddy
  std::size_t bytes_mirrored = 0;    ///< framed bytes moved to buddies
  std::size_t slots_skipped = 0;     ///< slots dropped: corrupt size announce
  std::size_t blobs_spilled = 0;     ///< replicas moved to the spill store
  std::size_t bytes_spilled = 0;     ///< bytes freed from memory by spilling
};

/// Mirrors per-rank checkpoint blobs across the world. The object is shared
/// by all rank threads of a simulated cluster (like the solver's shared
/// output buffers) and must outlive the runs that use it; all accesses are
/// internally synchronized.
class BuddyReplicator {
public:
  /// `world_size` is the ORIGINAL world size; blobs are slotted by
  /// original rank id.
  explicit BuddyReplicator(std::size_t world_size);

  /// Collective over the communicator's (possibly shrunken) world: every
  /// rank contributes its serialized blob, and each rank stores in its
  /// memory the blob of the peer it is buddy for -- rank at world slot s is
  /// buddy of slot (s - 1 + world) % world. Implemented as a deterministic
  /// schedule of size+payload broadcasts, so every rank participates in the
  /// same collective sequence (fault plans stay addressable). A world of
  /// one rank keeps its own blob (self-buddy): degenerate but non-lossy.
  void replicate(parallel::Communicator& comm,
                 std::span<const unsigned char> blob);

  /// Latest replica of `original_rank`'s checkpoint, if any buddy holds
  /// one. The caller decides whether the holder is still alive.
  [[nodiscard]] std::optional<BuddyBlob> blob_of(std::size_t original_rank) const;

  /// Forget every replica HELD BY `original_rank` (its memory died with
  /// it); returns how many replicas were lost. Spilled replicas survive --
  /// their bytes live in the shared spill store, not the dead rank's
  /// memory, which is exactly what spilling buys.
  std::size_t drop_holder(std::size_t original_rank);

  /// Attach the disk-backed store spill() writes to (must outlive the
  /// replicator's use); nullptr detaches, making spill() a no-op.
  void set_spill_store(const CheckpointStore* store);

  /// Memory-pressure relief: move every resident replica to the spill
  /// store and free its in-memory bytes (decrementing the
  /// "resilience/buddy_replicas" gauge). Returns bytes freed. The
  /// reclaimer the elastic recovery loop registers with the membudget
  /// relief ladder.
  std::int64_t spill();

  [[nodiscard]] std::size_t world_size() const { return world_size_; }
  [[nodiscard]] BuddyReplicatorStats stats() const;

private:
  [[nodiscard]] static std::string spill_key(std::size_t original_rank);
  std::size_t world_size_;
  mutable std::mutex mutex_;
  std::vector<std::optional<BuddyBlob>> blobs_;  ///< by original rank id
  const CheckpointStore* spill_store_ = nullptr;
  BuddyReplicatorStats stats_;
};

}  // namespace aeqp::resilience
