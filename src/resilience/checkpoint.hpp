#pragma once

/// \file checkpoint.hpp
/// Versioned, checksummed binary checkpointing of iterative solver state,
/// so a run interrupted by a fault can resume bit-identically from the last
/// good iteration (the resilience requirement the exascale roadmap papers
/// name as first-class; see docs/resilience.md).
///
/// File format (native endianness, guarded by the version field):
///   u32 magic 'AEQP' | u32 format version | u32 kind tag |
///   u64 payload bytes | payload | u32 CRC-32 of the payload
/// Writes go to a uniquely named temp file (`<key>.ckpt.tmp.<nonce>`, so
/// concurrent writers -- e.g. two simulated ranks checkpointing the same
/// key -- can never interleave into one torn temp file) that is flushed,
/// close-checked, and atomically renamed into `<key>.ckpt`; a rank killed
/// mid-write leaves at worst a stale temp file, never a torn checkpoint
/// that the CRC load path could half-accept. Readers validate magic,
/// version, kind, length, and CRC before deserializing.
///
/// The same framed format doubles as the wire format of in-memory buddy
/// replication (see buddy.hpp): serialize()/deserialize_cpscf() produce and
/// validate framed blobs without touching a filesystem, so a dead rank's
/// checkpoint slice is restorable from its buddy's memory alone.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "linalg/matrix.hpp"

namespace aeqp::resilience {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range. The
/// implementation moved to common/crc32.hpp so the collective layer can
/// verify payloads too; this re-export keeps existing callers working (a
/// using-declaration names the same entity, so code that opens both
/// namespaces still sees exactly one crc32).
using ::aeqp::crc32;

/// Current checkpoint format version; bumped on any layout change
/// (version 2: CPSCF checkpoints carry the Pulay history).
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// State of one CPSCF (DFPT) direction at the end of an iteration. The
/// response potential is a pure function of P^(1), so the response density
/// matrix, the Pulay history and the counters resume bit-identically.
struct CpscfCheckpoint {
  int direction = 0;
  int iteration = 0;       ///< CPSCF iterations completed
  double mixing = 0.0;     ///< Pulay step beta in effect when saved
  double last_delta = 0.0; ///< max |F(P^(1)) - P^(1)| of the saved iteration
  linalg::Matrix p1;       ///< response density matrix
  /// (P^(1) + beta r, r) pairs, oldest first (scf::DiisMixer's export).
  std::vector<std::pair<linalg::Matrix, linalg::Matrix>> diis_history;
};

/// State of one SCF run at the end of an iteration: density matrix plus the
/// DIIS history (pairs of Hamiltonian and residual), which restores the
/// mixer exactly.
struct ScfCheckpoint {
  int iteration = 0;
  double last_delta = 0.0;
  linalg::Matrix density_matrix;
  std::vector<std::pair<linalg::Matrix, linalg::Matrix>> diis_history;
};

/// Serialize a checkpoint into a self-validating framed blob (header +
/// payload + CRC, the exact on-disk format) for in-memory replication.
[[nodiscard]] std::vector<unsigned char> serialize(const CpscfCheckpoint& ckpt);
[[nodiscard]] std::vector<unsigned char> serialize(const ScfCheckpoint& ckpt);

/// Validate and decode a framed blob produced by serialize() (or read from
/// a checkpoint file). Throws aeqp::Error on truncation, version/kind
/// mismatch, or CRC failure; `context` names the blob in error messages.
[[nodiscard]] CpscfCheckpoint deserialize_cpscf(
    std::span<const unsigned char> blob, const std::string& context = "blob");
[[nodiscard]] ScfCheckpoint deserialize_scf(
    std::span<const unsigned char> blob, const std::string& context = "blob");

/// Directory of named checkpoints with atomic write-then-rename saves and
/// CRC-validated loads.
class CheckpointStore {
public:
  /// Creates `directory` (and parents) if missing.
  explicit CheckpointStore(std::filesystem::path directory);

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }
  [[nodiscard]] std::filesystem::path path_of(const std::string& key) const;

  void save(const std::string& key, const CpscfCheckpoint& ckpt) const;
  void save(const std::string& key, const ScfCheckpoint& ckpt) const;

  /// Load and validate; throws aeqp::Error on a missing, truncated,
  /// version-mismatched, or corrupt (CRC) checkpoint.
  [[nodiscard]] CpscfCheckpoint load_cpscf(const std::string& key) const;
  [[nodiscard]] ScfCheckpoint load_scf(const std::string& key) const;

  /// Like load_*, but a missing file yields nullopt (corruption still
  /// throws -- a damaged checkpoint should never be silently skipped).
  [[nodiscard]] std::optional<CpscfCheckpoint> try_load_cpscf(
      const std::string& key) const;
  [[nodiscard]] std::optional<ScfCheckpoint> try_load_scf(
      const std::string& key) const;

  /// Raw-blob tier for disk spill (the membudget relief ladder spills buddy
  /// replicas here): the bytes are stored verbatim inside a framed file of
  /// their own kind tag, so spilled data gets the same magic/version/CRC
  /// validation as checkpoints on reload.
  void save_blob(const std::string& key,
                 std::span<const unsigned char> blob) const;
  /// Missing file yields nullopt; corruption (CRC, truncation) throws.
  [[nodiscard]] std::optional<std::vector<unsigned char>> try_load_blob(
      const std::string& key) const;

  [[nodiscard]] bool exists(const std::string& key) const;

  /// Delete the checkpoint under `key`. Returns true when a file was
  /// removed, false when none existed; a filesystem failure (permissions,
  /// I/O error) throws aeqp::Error carrying the OS error text instead of
  /// being silently swallowed -- a long-lived server that cannot
  /// garbage-collect its checkpoints is leaking disk and must know.
  bool remove(const std::string& key) const;

  /// A sub-store rooted at `<directory>/<ns>` -- the per-job namespace a
  /// long-lived server gives every admitted job, so concurrent jobs can use
  /// identical keys ("cpscf-dir2") without colliding and a job's state can
  /// be garbage-collected wholesale with clear() on terminal
  /// success/failure. `ns` obeys the same syntax as a key (non-empty, no
  /// path separators).
  [[nodiscard]] CheckpointStore scoped(const std::string& ns) const;

  /// Delete every checkpoint (and stale temp file) in this store's own
  /// directory, non-recursively; returns the number of files removed.
  /// Filesystem failures throw aeqp::Error. The terminal-state hygiene hook
  /// of per-job namespaces: nothing outlives the job that wrote it.
  std::size_t clear() const;

private:
  std::filesystem::path directory_;
};

}  // namespace aeqp::resilience
