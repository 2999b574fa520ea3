#include "resilience/checkpoint.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

#include "common/error.hpp"
#include "obs/memaudit.hpp"
#include "obs/trace.hpp"
#include "resilience/membudget.hpp"

namespace aeqp::resilience {

namespace {

constexpr std::uint32_t kMagic = 0x41455150;  // 'AEQP'
constexpr std::uint32_t kKindCpscf = 1;
constexpr std::uint32_t kKindScf = 2;
constexpr std::uint32_t kKindRaw = 3;  // verbatim blob (buddy spill tier)

/// Little binary archive; all multi-byte values native-endian (the format
/// version gates any future change).
class ByteWriter {
public:
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i32(std::int32_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }
  void put_matrix(const linalg::Matrix& m) {
    put_u64(m.rows());
    put_u64(m.cols());
    put_raw(m.data(), m.rows() * m.cols() * sizeof(double));
  }
  /// A DIIS history: its length, then each (x, e) pair, oldest first.
  void put_history(const std::vector<std::pair<linalg::Matrix, linalg::Matrix>>& h) {
    put_u64(h.size());
    for (const auto& [x, e] : h) {
      put_matrix(x);
      put_matrix(e);
    }
  }
  [[nodiscard]] const std::vector<unsigned char>& bytes() const { return buf_; }

private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<unsigned char> buf_;
};

class ByteReader {
public:
  ByteReader(std::span<const unsigned char> data, std::string context)
      : data_(data), context_(std::move(context)) {}
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int32_t get_i32() { return get<std::int32_t>(); }
  double get_f64() { return get<double>(); }
  linalg::Matrix get_matrix() {
    const std::uint64_t rows = get_u64();
    const std::uint64_t cols = get_u64();
    linalg::Matrix m(rows, cols);
    get_raw(m.data(), rows * cols * sizeof(double));
    return m;
  }
  std::vector<std::pair<linalg::Matrix, linalg::Matrix>> get_history() {
    const std::uint64_t n = get_u64();
    std::vector<std::pair<linalg::Matrix, linalg::Matrix>> h;
    for (std::uint64_t i = 0; i < n; ++i) {
      linalg::Matrix x = get_matrix();
      linalg::Matrix e = get_matrix();
      h.emplace_back(std::move(x), std::move(e));
    }
    return h;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

private:
  template <class T>
  T get() {
    T v;
    get_raw(&v, sizeof(v));
    return v;
  }
  void get_raw(void* p, std::size_t n) {
    AEQP_CHECK(pos_ + n <= data_.size(),
               context_ + ": checkpoint payload truncated");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }
  std::span<const unsigned char> data_;
  std::string context_;
  std::size_t pos_ = 0;
};

/// Wrap a payload in the framed format: header + payload + CRC.
std::vector<unsigned char> frame(std::uint32_t kind,
                                 const std::vector<unsigned char>& payload) {
  ByteWriter out;
  out.put_u32(kMagic);
  out.put_u32(kCheckpointFormatVersion);
  out.put_u32(kind);
  out.put_u64(payload.size());
  std::vector<unsigned char> bytes = out.bytes();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload);
  const auto* crc_bytes = reinterpret_cast<const unsigned char*>(&crc);
  bytes.insert(bytes.end(), crc_bytes, crc_bytes + sizeof(crc));
  return bytes;
}

/// Validate a framed blob (magic, version, kind, length, CRC) and return
/// the payload bytes. `context` names the blob in error messages.
std::vector<unsigned char> validate_frame(std::span<const unsigned char> bytes,
                                          std::uint32_t expected_kind,
                                          const std::string& context) {
  const std::size_t header_bytes = 3 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  AEQP_CHECK(bytes.size() >= header_bytes + sizeof(std::uint32_t),
             "CheckpointStore: " + context + " is truncated");
  ByteReader header(std::span(bytes.data(), header_bytes), context);
  AEQP_CHECK(header.get_u32() == kMagic,
             "CheckpointStore: " + context + " is not an AEQP checkpoint");
  const std::uint32_t version = header.get_u32();
  AEQP_CHECK(version == kCheckpointFormatVersion,
             "CheckpointStore: " + context + " has format version " +
                 std::to_string(version) + ", expected " +
                 std::to_string(kCheckpointFormatVersion));
  const std::uint32_t kind = header.get_u32();
  AEQP_CHECK(kind == expected_kind,
             "CheckpointStore: " + context + " holds kind " +
                 std::to_string(kind) + ", expected " +
                 std::to_string(expected_kind));
  const std::uint64_t payload_size = header.get_u64();
  AEQP_CHECK(bytes.size() == header_bytes + payload_size + sizeof(std::uint32_t),
             "CheckpointStore: " + context + " has inconsistent length");
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + header_bytes + payload_size,
              sizeof(stored_crc));
  const std::uint32_t actual_crc =
      crc32(std::span(bytes.data() + header_bytes, payload_size));
  AEQP_CHECK(stored_crc == actual_crc,
             "CheckpointStore: CRC mismatch in " + context +
                 " (stored " + std::to_string(stored_crc) + ", computed " +
                 std::to_string(actual_crc) + "): checkpoint is corrupt");
  return {bytes.begin() + static_cast<std::ptrdiff_t>(header_bytes),
          bytes.begin() + static_cast<std::ptrdiff_t>(header_bytes + payload_size)};
}

void write_file_atomic(const std::filesystem::path& path, std::uint32_t kind,
                       const std::vector<unsigned char>& payload) {
  // Unique temp name per write: a counter distinguishes concurrent writers
  // inside this process (simulated ranks are threads), the thread id
  // distinguishes writers racing across restarts of the same counter.
  static std::atomic<std::uint64_t> write_nonce{0};
  const std::uint64_t nonce =
      write_nonce.fetch_add(1, std::memory_order_relaxed) ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 20);
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(nonce);
  const std::vector<unsigned char> bytes = frame(kind, payload);
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      AEQP_CHECK(out.good(), "CheckpointStore: cannot open " + tmp.string());
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      out.flush();
      AEQP_CHECK(out.good(),
                 "CheckpointStore: write failed for " + tmp.string());
      out.close();
      AEQP_CHECK(out.good(),
                 "CheckpointStore: close failed for " + tmp.string());
    }
    // Atomic publish: the checkpoint either exists complete or not at all.
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best-effort: drop the partial temp
    throw;
  }
}

std::vector<unsigned char> read_file_validated(const std::filesystem::path& path,
                                               std::uint32_t expected_kind) {
  std::ifstream in(path, std::ios::binary);
  AEQP_CHECK(in.good(), "CheckpointStore: cannot open " + path.string());
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  return validate_frame(bytes, expected_kind, path.string());
}

std::vector<unsigned char> encode(const CpscfCheckpoint& ckpt) {
  ByteWriter w;
  w.put_i32(ckpt.direction);
  w.put_i32(ckpt.iteration);
  w.put_f64(ckpt.mixing);
  w.put_f64(ckpt.last_delta);
  w.put_matrix(ckpt.p1);
  w.put_history(ckpt.diis_history);
  return w.bytes();
}

std::vector<unsigned char> encode(const ScfCheckpoint& ckpt) {
  ByteWriter w;
  w.put_i32(ckpt.iteration);
  w.put_f64(ckpt.last_delta);
  w.put_matrix(ckpt.density_matrix);
  w.put_history(ckpt.diis_history);
  return w.bytes();
}

CpscfCheckpoint decode_cpscf(std::span<const unsigned char> payload,
                             const std::string& context) {
  ByteReader r(payload, context);
  CpscfCheckpoint ckpt;
  ckpt.direction = r.get_i32();
  ckpt.iteration = r.get_i32();
  ckpt.mixing = r.get_f64();
  ckpt.last_delta = r.get_f64();
  ckpt.p1 = r.get_matrix();
  ckpt.diis_history = r.get_history();
  AEQP_CHECK(r.exhausted(), "CheckpointStore: trailing bytes in " + context);
  return ckpt;
}

ScfCheckpoint decode_scf(std::span<const unsigned char> payload,
                         const std::string& context) {
  ByteReader r(payload, context);
  ScfCheckpoint ckpt;
  ckpt.iteration = r.get_i32();
  ckpt.last_delta = r.get_f64();
  ckpt.density_matrix = r.get_matrix();
  ckpt.diis_history = r.get_history();
  AEQP_CHECK(r.exhausted(), "CheckpointStore: trailing bytes in " + context);
  return ckpt;
}

}  // namespace

CheckpointStore::CheckpointStore(std::filesystem::path directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

std::filesystem::path CheckpointStore::path_of(const std::string& key) const {
  AEQP_CHECK(!key.empty() && key.find('/') == std::string::npos,
             "CheckpointStore: invalid key '" + key + "'");
  return directory_ / (key + ".ckpt");
}

std::vector<unsigned char> serialize(const CpscfCheckpoint& ckpt) {
  // Governor probe before the frame is materialized: the payload is
  // P^(1) plus the Pulay history, so the estimate is sharp to within the
  // headers.
  std::size_t doubles = ckpt.p1.rows() * ckpt.p1.cols();
  for (const auto& [x, e] : ckpt.diis_history)
    doubles += x.rows() * x.cols() + e.rows() * e.cols();
  oom_probe("resilience/checkpoint_frame", doubles * sizeof(double) + 64);
  auto blob = frame(kKindCpscf, encode(ckpt));
  // Frames are transient (handed to the buddy ring or a writer and then
  // dropped), so only the high-water mark is meaningful.
  obs::mem_peak("resilience/checkpoint_frame",
                static_cast<std::int64_t>(blob.size()));
  return blob;
}

std::vector<unsigned char> serialize(const ScfCheckpoint& ckpt) {
  auto blob = frame(kKindScf, encode(ckpt));
  obs::mem_peak("resilience/checkpoint_frame",
                static_cast<std::int64_t>(blob.size()));
  return blob;
}

CpscfCheckpoint deserialize_cpscf(std::span<const unsigned char> blob,
                                  const std::string& context) {
  return decode_cpscf(validate_frame(blob, kKindCpscf, context), context);
}

ScfCheckpoint deserialize_scf(std::span<const unsigned char> blob,
                              const std::string& context) {
  return decode_scf(validate_frame(blob, kKindScf, context), context);
}

void CheckpointStore::save(const std::string& key,
                           const CpscfCheckpoint& ckpt) const {
  write_file_atomic(path_of(key), kKindCpscf, encode(ckpt));
  obs::trace_instant("checkpoint/save");
}

void CheckpointStore::save(const std::string& key,
                           const ScfCheckpoint& ckpt) const {
  write_file_atomic(path_of(key), kKindScf, encode(ckpt));
  obs::trace_instant("checkpoint/save");
}

CpscfCheckpoint CheckpointStore::load_cpscf(const std::string& key) const {
  const auto payload = read_file_validated(path_of(key), kKindCpscf);
  CpscfCheckpoint ckpt = decode_cpscf(payload, path_of(key).string());
  obs::trace_instant("checkpoint/load");
  return ckpt;
}

ScfCheckpoint CheckpointStore::load_scf(const std::string& key) const {
  const auto payload = read_file_validated(path_of(key), kKindScf);
  ScfCheckpoint ckpt = decode_scf(payload, path_of(key).string());
  obs::trace_instant("checkpoint/load");
  return ckpt;
}

std::optional<CpscfCheckpoint> CheckpointStore::try_load_cpscf(
    const std::string& key) const {
  if (!exists(key)) return std::nullopt;
  return load_cpscf(key);
}

std::optional<ScfCheckpoint> CheckpointStore::try_load_scf(
    const std::string& key) const {
  if (!exists(key)) return std::nullopt;
  return load_scf(key);
}

void CheckpointStore::save_blob(const std::string& key,
                                std::span<const unsigned char> blob) const {
  write_file_atomic(path_of(key), kKindRaw,
                    std::vector<unsigned char>(blob.begin(), blob.end()));
  obs::trace_instant("checkpoint/save_blob");
}

std::optional<std::vector<unsigned char>> CheckpointStore::try_load_blob(
    const std::string& key) const {
  if (!exists(key)) return std::nullopt;
  auto payload = read_file_validated(path_of(key), kKindRaw);
  obs::trace_instant("checkpoint/load_blob");
  return payload;
}

bool CheckpointStore::exists(const std::string& key) const {
  return std::filesystem::exists(path_of(key));
}

bool CheckpointStore::remove(const std::string& key) const {
  std::error_code ec;
  const bool removed = std::filesystem::remove(path_of(key), ec);
  AEQP_CHECK(!ec, "CheckpointStore: cannot remove " + path_of(key).string() +
                      ": " + ec.message());
  return removed;
}

CheckpointStore CheckpointStore::scoped(const std::string& ns) const {
  AEQP_CHECK(!ns.empty() && ns.find('/') == std::string::npos &&
                 ns.find('\\') == std::string::npos && ns != "." &&
                 ns != "..",
             "CheckpointStore: invalid namespace '" + ns + "'");
  return CheckpointStore(directory_ / ns);
}

std::size_t CheckpointStore::clear() const {
  std::size_t removed = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string name = it->path().filename().string();
    // Checkpoints plus any stale temp file a killed writer left behind.
    if (name.find(".ckpt") == std::string::npos) continue;
    std::error_code rm;
    if (std::filesystem::remove(it->path(), rm)) ++removed;
    AEQP_CHECK(!rm, "CheckpointStore: cannot remove " + it->path().string() +
                        ": " + rm.message());
  }
  AEQP_CHECK(!ec, "CheckpointStore: cannot enumerate " + directory_.string() +
                      ": " + ec.message());
  return removed;
}

}  // namespace aeqp::resilience
