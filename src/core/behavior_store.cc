#include "core/behavior_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>

#include "core/extractors.h"
#include "util/failpoint.h"
#include "util/fnv.h"
#include "util/stopwatch.h"

namespace deepbase {

namespace {

// Eviction candidates examined per round: the scan looks at the
// least-recently-used kEvictScan entries and drops the one with the
// lowest cost-per-byte (cheapest re-materialization per byte freed), so
// recency still dominates but an expensive matrix is not dumped while a
// cheap neighbor of similar age would free the same memory.
constexpr size_t kEvictScan = 8;

std::string NamespaceOf(const std::string& key) {
  const size_t colon = key.find(':');
  return colon == std::string::npos ? key : key.substr(0, colon);
}

constexpr uint32_t kStoreMagicV2 = 0x44425332;  // "DBS2"
constexpr uint32_t kBlobMagic = 0x44425342;     // "DBSB"

// The v2 behavior-file layout places the raw float payload (packed
// logical rows×cols, row-major) at the first 64-byte boundary after the
// header, so MmapMatrixStore can serve it in place: mapped pages are
// cache-line aligned like MemMatrixStore allocations. It is the only
// layout: a file with any other magic fails validation and is
// quarantined like any corrupt file.
constexpr size_t kPayloadAlign = 64;

size_t AlignUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

/// Byte offset of the float payload in a v2 file whose key is `key_len`
/// bytes long: magic(4) + key_len(8) + key + checksum(8) + rows(8) +
/// cols(8), rounded up to the alignment boundary.
size_t V2PayloadOffset(size_t key_len) {
  return AlignUp(sizeof(uint32_t) + 4 * sizeof(uint64_t) + key_len,
                 kPayloadAlign);
}

uint64_t MatrixChecksum(const Matrix& m) {
  uint64_t h = kFnvOffsetBasis;
  h = Fnv1a(&m, 0, h);  // fold in the seed only
  const uint64_t rows = m.rows(), cols = m.cols();
  h = Fnv1a(&rows, sizeof(rows), h);
  h = Fnv1a(&cols, sizeof(cols), h);
  for (size_t r = 0; r < m.rows(); ++r) {
    h = Fnv1a(m.row_data(r), m.cols() * sizeof(float), h);
  }
  return h;
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint64_t h = kFnvOffsetBasis;
  const uint64_t nd = dataset.num_records(), ns = dataset.ns();
  h = Fnv1a(&nd, sizeof(nd), h);
  h = Fnv1a(&ns, sizeof(ns), h);
  for (const Record& rec : dataset.records()) {
    h = Fnv1a(rec.ids.data(), rec.ids.size() * sizeof(int), h);
  }
  return h;
}

BehaviorStore::BehaviorStore(std::string root_dir,
                             size_t memory_budget_bytes)
    : root_dir_(std::move(root_dir)), memory_budget_(memory_budget_bytes) {}

void BehaviorStore::SetNamespaceQuota(const std::string& ns, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes == 0) {
    namespace_quotas_.erase(ns);
  } else {
    namespace_quotas_[ns] = bytes;
  }
  EnforceBudgetLocked();
}

std::string BehaviorStore::PathForKey(const std::string& key) const {
  // Hash the key for the file name: keys may contain characters that are
  // not filesystem-safe.
  return root_dir_ + "/" + HexU64(Fnv1a(key.data(), key.size())) +
         ".behaviors";
}

std::string BehaviorStore::PathForBlob(const std::string& key) const {
  return root_dir_ + "/" + HexU64(Fnv1a(key.data(), key.size())) +
         ".blob";
}

Status BehaviorStore::Put(const std::string& key, const Matrix& behaviors,
                          double cost) {
  DB_FAILPOINT("store.write");
  std::lock_guard<std::mutex> lock(mu_);
  if (memory_only()) {
    AdmitLocked(key, std::make_shared<const Matrix>(behaviors), cost);
    return Status::OK();
  }
  std::error_code ec;
  std::filesystem::create_directories(root_dir_, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + root_dir_ +
                           ": " + ec.message());
  }
  const std::string path = PathForKey(key);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + path);
    const uint32_t magic = kStoreMagicV2;
    const uint64_t key_len = key.size();
    const uint64_t checksum = MatrixChecksum(behaviors);
    const uint64_t rows = behaviors.rows();
    const uint64_t cols = behaviors.cols();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&key_len), sizeof(key_len));
    out.write(key.data(), static_cast<std::streamsize>(key.size()));
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    // Zero-pad the header so the payload starts 64-byte-aligned — the
    // precondition for serving the file through MmapMatrixStore.
    const size_t header_end = sizeof(magic) + 4 * sizeof(uint64_t) + key.size();
    const size_t payload_offset = V2PayloadOffset(key.size());
    const std::string pad(payload_offset - header_end, '\0');
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    // Logical rows×cols row by row — never the padded lda, so files are
    // identical across SIMD/scalar builds.
    for (size_t r = 0; r < behaviors.rows(); ++r) {
      out.write(reinterpret_cast<const char*>(behaviors.row_data(r)),
                static_cast<std::streamsize>(cols * sizeof(float)));
    }
    if (!out) return Status::IOError("write failed for " + path);
    // Actual file footprint (header + padding + payload), not an entry
    // count or a payload-only estimate.
    const auto pos = out.tellp();
    bytes_written_ += pos > 0 ? static_cast<size_t>(pos) : 0;
  }
  AdmitLocked(key, std::make_shared<const Matrix>(behaviors), cost);
  return Status::OK();
}

Result<Matrix> BehaviorStore::Get(const std::string& key,
                                  Tier* served_from) {
  DB_ASSIGN_OR_RETURN(std::shared_ptr<const Matrix> shared,
                      GetShared(key, served_from));
  return *shared;
}

Result<std::shared_ptr<const Matrix>> BehaviorStore::GetShared(
    const std::string& key, Tier* served_from) {
  if (served_from != nullptr) *served_from = Tier::kMiss;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++mem_hits_;
    if (served_from != nullptr) *served_from = Tier::kMemory;
    // Move to the front of the LRU.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->matrix;
  }

  DB_FAILPOINT("store.read");
  const std::string path = PathForKey(key);
  std::ifstream in;
  if (!memory_only()) in.open(path, std::ios::binary);
  if (!in.is_open()) {
    ++misses_;
    return Status::NotFound("no stored behaviors for key: " + key);
  }
  // A file that fails validation is quarantined (renamed aside) and the
  // read degrades to a miss: the caller re-materializes and the next Put
  // repopulates the entry, instead of every restart re-failing kDataLoss
  // on the same bytes forever.
  auto corrupt = [&](const std::string& what) -> Status {
    in.close();
    QuarantineLocked(path);
    ++misses_;
    return Status::NotFound("stored behaviors for key '" + key +
                            "' failed validation (" + what +
                            "); file quarantined");
  };
  uint32_t magic = 0;
  uint64_t key_len = 0, checksum = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&key_len), sizeof(key_len));
  if (!in || magic != kStoreMagicV2 || key_len > (1u << 20)) {
    return corrupt("corrupt store file header");
  }
  std::string stored_key(key_len, '\0');
  in.read(stored_key.data(), static_cast<std::streamsize>(key_len));
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!in || stored_key != key) {
    return corrupt("key mismatch (hash collision?)");
  }

  uint64_t rows = 0, cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  // Shape sanity before any multiply: reject products that would
  // overflow rows*cols*sizeof(float).
  constexpr uint64_t kMaxFloats =
      std::numeric_limits<size_t>::max() / sizeof(float);
  if (!in || (cols != 0 && rows > kMaxFloats / cols)) {
    return corrupt("corrupt v2 store file shape");
  }
  const size_t payload_offset = V2PayloadOffset(key_len);
  const size_t payload_bytes = rows * cols * sizeof(float);
  std::error_code size_ec;
  const auto file_size = std::filesystem::file_size(path, size_ec);
  if (size_ec || file_size < payload_offset + payload_bytes) {
    return corrupt("v2 store file truncated");
  }

  // Out-of-core handout: map the aligned payload read-only and let the
  // page cache stream it.
  if (OutOfCoreLocked(key, payload_bytes)) {
    std::shared_ptr<MmapMatrixStore> mapped =
        MmapMatrixStore::Map(path, payload_offset, rows, cols);
    if (mapped != nullptr) {
      ++mmap_hits_;
      if (served_from != nullptr) *served_from = Tier::kMmap;
      return std::make_shared<const Matrix>(Matrix(std::move(mapped)));
    }
    // Map failure degrades to the deserializing path below.
  }

  in.seekg(static_cast<std::streamoff>(payload_offset));
  Matrix m(rows, cols);
  for (size_t r = 0; r < m.rows(); ++r) {
    in.read(reinterpret_cast<char*>(m.row_data(r)),
            static_cast<std::streamsize>(cols * sizeof(float)));
  }
  if (in.fail()) return corrupt("unreadable v2 matrix payload");
  if (MatrixChecksum(m) != checksum) {
    return corrupt("checksum mismatch");
  }
  ++disk_hits_;
  if (served_from != nullptr) *served_from = Tier::kDisk;
  auto shared = std::make_shared<const Matrix>(std::move(m));
  AdmitLocked(key, shared, /*cost=*/1.0);
  return shared;
}

BehaviorStore::Tier BehaviorStore::PeekTier(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) > 0) return Tier::kMemory;
  if (memory_only()) return Tier::kMiss;
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(PathForKey(key), ec);
  const size_t payload_offset = V2PayloadOffset(key.size());
  // A file too short for its own header fails GetShared's validation.
  if (ec || file_size < payload_offset) return Tier::kMiss;
  // Put writes the payload right after the aligned header, so the file
  // size pins the payload size GetShared compares.
  return OutOfCoreLocked(key, file_size - payload_offset) ? Tier::kMmap
                                                          : Tier::kDisk;
}

bool BehaviorStore::OutOfCoreLocked(const std::string& key,
                                    size_t payload_bytes) const {
  size_t limit = memory_budget_;
  auto quota_it = namespace_quotas_.find(NamespaceOf(key));
  if (quota_it != namespace_quotas_.end()) {
    limit = std::min(limit, quota_it->second);
  }
  return limit > 0 && payload_bytes > limit;
}

bool BehaviorStore::Contains(const std::string& key) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(key) > 0) return true;
  }
  std::error_code ec;
  return !memory_only() && std::filesystem::exists(PathForKey(key), ec);
}

void BehaviorStore::EvictFromMemory(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  EraseLocked(it->second, /*count_eviction=*/true);
}

Status BehaviorStore::Remove(const std::string& key) {
  EvictFromMemory(key);
  if (memory_only()) return Status::OK();
  std::error_code ec;
  std::filesystem::remove(PathForKey(key), ec);
  if (ec) return Status::IOError("cannot remove " + PathForKey(key));
  return Status::OK();
}

std::vector<std::string> BehaviorStore::Keys() const {
  std::vector<std::string> keys;
  std::error_code ec;
  if (!std::filesystem::exists(root_dir_, ec)) return keys;
  for (const auto& entry :
       std::filesystem::directory_iterator(root_dir_, ec)) {
    if (entry.path().extension() != ".behaviors") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    uint32_t magic = 0;
    uint64_t key_len = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&key_len), sizeof(key_len));
    if (!in || magic != kStoreMagicV2 || key_len > (1u << 20)) continue;
    std::string key(key_len, '\0');
    in.read(key.data(), static_cast<std::streamsize>(key_len));
    if (in) keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

size_t BehaviorStore::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_bytes_;
}

size_t BehaviorStore::namespace_bytes(const std::string& ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = namespace_bytes_.find(ns);
  return it != namespace_bytes_.end() ? it->second : 0;
}

size_t BehaviorStore::evicted_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_bytes_;
}

size_t BehaviorStore::mem_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mem_hits_;
}

size_t BehaviorStore::disk_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_hits_;
}

size_t BehaviorStore::mmap_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mmap_hits_;
}

size_t BehaviorStore::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t BehaviorStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t BehaviorStore::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

size_t BehaviorStore::blob_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blob_hits_;
}

size_t BehaviorStore::blob_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blob_misses_;
}

size_t BehaviorStore::blob_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blob_evictions_;
}

size_t BehaviorStore::quarantines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantines_;
}

void BehaviorStore::QuarantineLocked(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  // A failed rename leaves the corrupt file in place; the next read
  // retries the quarantine. Count only completed renames so tests can
  // assert "renamed aside exactly once".
  if (!ec) ++quarantines_;
}

size_t BehaviorStore::blob_namespace_bytes(const std::string& ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureBlobManifestLocked();
  auto it = blob_ns_bytes_.find(ns);
  return it != blob_ns_bytes_.end() ? it->second : 0;
}

// ---------------------------------------------------------------------------
// Blob tier.
// ---------------------------------------------------------------------------

void BehaviorStore::EnsureBlobManifestLocked() const {
  if (blob_manifest_loaded_) return;
  blob_manifest_loaded_ = true;
  blob_manifest_.clear();
  blob_ns_bytes_.clear();
  std::error_code ec;
  if (!std::filesystem::exists(root_dir_, ec)) return;
  // Oldest-written first: the per-namespace eviction order survives a
  // restart because it is reconstructed from file mtimes.
  struct Found {
    std::filesystem::file_time_type mtime;
    std::string key;
    size_t bytes = 0;
  };
  std::vector<Found> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(root_dir_, ec)) {
    if (entry.path().extension() != ".blob") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    uint32_t magic = 0;
    uint64_t key_len = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&key_len), sizeof(key_len));
    if (!in || magic != kBlobMagic || key_len > (1u << 20)) continue;
    std::string key(key_len, '\0');
    in.read(key.data(), static_cast<std::streamsize>(key_len));
    if (!in) continue;
    std::error_code size_ec, time_ec;
    const auto bytes = std::filesystem::file_size(entry.path(), size_ec);
    const auto mtime =
        std::filesystem::last_write_time(entry.path(), time_ec);
    if (size_ec) continue;
    found.push_back({mtime, std::move(key), static_cast<size_t>(bytes)});
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.key < b.key;
  });
  for (Found& f : found) {
    const std::string ns = NamespaceOf(f.key);
    blob_ns_bytes_[ns] += f.bytes;
    blob_manifest_[ns].push_back({std::move(f.key), f.bytes});
  }
}

void BehaviorStore::DropBlobFromManifestLocked(const std::string& key) const {
  const std::string ns = NamespaceOf(key);
  auto it = blob_manifest_.find(ns);
  if (it == blob_manifest_.end()) return;
  for (auto entry = it->second.begin(); entry != it->second.end(); ++entry) {
    if (entry->key != key) continue;
    blob_ns_bytes_[ns] -= entry->bytes;
    it->second.erase(entry);
    break;
  }
}

void BehaviorStore::EnforceBlobQuotaLocked(const std::string& ns) {
  auto quota_it = blob_quotas_.find(ns);
  if (quota_it == blob_quotas_.end()) return;
  auto list_it = blob_manifest_.find(ns);
  while (list_it != blob_manifest_.end() && !list_it->second.empty() &&
         blob_ns_bytes_[ns] > quota_it->second) {
    const BlobEntry victim = list_it->second.front();
    std::error_code ec;
    std::filesystem::remove(PathForBlob(victim.key), ec);
    blob_ns_bytes_[ns] -= victim.bytes;
    list_it->second.pop_front();
    ++blob_evictions_;
  }
}

void BehaviorStore::SetBlobNamespaceQuota(const std::string& ns,
                                          size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureBlobManifestLocked();
  if (bytes == 0) {
    blob_quotas_.erase(ns);
  } else {
    blob_quotas_[ns] = bytes;
    EnforceBlobQuotaLocked(ns);
  }
}

Status BehaviorStore::PutBlob(const std::string& key,
                              const std::string& bytes) {
  DB_FAILPOINT("store.blob.write");
  if (memory_only()) {
    return Status::Invalid("a memory-only store keeps no blobs");
  }
  std::lock_guard<std::mutex> lock(mu_);
  EnsureBlobManifestLocked();
  std::error_code ec;
  std::filesystem::create_directories(root_dir_, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + root_dir_ +
                           ": " + ec.message());
  }
  const std::string path = PathForBlob(key);
  size_t file_bytes = 0;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + path);
    const uint32_t magic = kBlobMagic;
    const uint64_t key_len = key.size();
    const uint64_t checksum =
        Fnv1a(bytes.data(), bytes.size());
    const uint64_t payload_len = bytes.size();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&key_len), sizeof(key_len));
    out.write(key.data(), static_cast<std::streamsize>(key.size()));
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.write(reinterpret_cast<const char*>(&payload_len),
              sizeof(payload_len));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::IOError("write failed for " + path);
    const auto pos = out.tellp();
    file_bytes = pos > 0 ? static_cast<size_t>(pos) : 0;
    bytes_written_ += file_bytes;
  }
  const std::string ns = NamespaceOf(key);
  DropBlobFromManifestLocked(key);  // overwrite: replace the old entry
  blob_ns_bytes_[ns] += file_bytes;
  blob_manifest_[ns].push_back({key, file_bytes});
  EnforceBlobQuotaLocked(ns);
  return Status::OK();
}

Result<std::string> BehaviorStore::GetBlob(const std::string& key) {
  DB_FAILPOINT("store.blob.read");
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = PathForBlob(key);
  std::ifstream in;
  if (!memory_only()) in.open(path, std::ios::binary);
  if (!in.is_open()) {
    ++blob_misses_;
    return Status::NotFound("no stored blob for key: " + key);
  }
  // Same quarantine contract as GetShared's disk path: corrupt blobs are
  // renamed aside, dropped from the manifest, and read as a miss so the
  // caller recomputes exactly once.
  auto corrupt = [&](const std::string& what) -> Status {
    in.close();
    QuarantineLocked(path);
    EnsureBlobManifestLocked();
    DropBlobFromManifestLocked(key);
    ++blob_misses_;
    return Status::NotFound("stored blob for key '" + key +
                            "' failed validation (" + what +
                            "); file quarantined");
  };
  uint32_t magic = 0;
  uint64_t key_len = 0, checksum = 0, payload_len = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&key_len), sizeof(key_len));
  if (!in || magic != kBlobMagic || key_len > (1u << 20)) {
    return corrupt("corrupt blob file header");
  }
  std::string stored_key(key_len, '\0');
  in.read(stored_key.data(), static_cast<std::streamsize>(key_len));
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  in.read(reinterpret_cast<char*>(&payload_len), sizeof(payload_len));
  if (!in || stored_key != key) {
    return corrupt("key mismatch (hash collision?)");
  }
  if (payload_len > (1ull << 32)) {
    return corrupt("implausible payload size");
  }
  std::string payload(payload_len, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_len));
  if (in.fail() ||
      Fnv1a(payload.data(), payload.size()) !=
          checksum) {
    return corrupt("checksum mismatch");
  }
  ++blob_hits_;
  return payload;
}

bool BehaviorStore::ContainsBlob(const std::string& key) const {
  std::error_code ec;
  return !memory_only() && std::filesystem::exists(PathForBlob(key), ec);
}

Status BehaviorStore::RemoveBlob(const std::string& key) {
  if (memory_only()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  EnsureBlobManifestLocked();
  DropBlobFromManifestLocked(key);
  std::error_code ec;
  std::filesystem::remove(PathForBlob(key), ec);
  if (ec) return Status::IOError("cannot remove " + PathForBlob(key));
  return Status::OK();
}

std::vector<std::string> BehaviorStore::BlobKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureBlobManifestLocked();
  std::vector<std::string> keys;
  for (const auto& [ns, entries] : blob_manifest_) {
    for (const BlobEntry& entry : entries) keys.push_back(entry.key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void BehaviorStore::AdmitLocked(const std::string& key,
                                std::shared_ptr<const Matrix> matrix,
                                double cost) {
  if (memory_budget_ == 0) return;
  // Self-replacement is not an eviction; drop any existing entry silently.
  auto it = index_.find(key);
  if (it != index_.end()) EraseLocked(it->second, /*count_eviction=*/false);
  MemEntry entry;
  entry.key = key;
  entry.ns = NamespaceOf(key);
  entry.bytes = matrix->rows() * matrix->cols() * sizeof(float);
  // An out-of-core payload would evict the entire working set only to be
  // re-evicted itself, and GetShared serves it by mmap anyway. Leave it to
  // the disk tier.
  if (OutOfCoreLocked(key, entry.bytes)) return;
  entry.cost = cost;
  entry.matrix = std::move(matrix);
  memory_bytes_ += entry.bytes;
  namespace_bytes_[entry.ns] += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  EnforceBudgetLocked();
}

void BehaviorStore::EraseLocked(std::list<MemEntry>::iterator it,
                                bool count_eviction) {
  memory_bytes_ -= it->bytes;
  auto ns_it = namespace_bytes_.find(it->ns);
  if (ns_it != namespace_bytes_.end()) {
    ns_it->second -= it->bytes;
    if (ns_it->second == 0) namespace_bytes_.erase(ns_it);
  }
  if (count_eviction) {
    ++evictions_;
    evicted_bytes_ += it->bytes;
  }
  index_.erase(it->key);
  lru_.erase(it);
}

void BehaviorStore::EnforceBudgetLocked() {
  // Pick a victim among the kEvictScan least-recent entries satisfying
  // `match`: the lowest materialization cost per byte goes first. The
  // most-recent entry is the one being admitted or served right now and
  // is never the victim, or a memory-only store could drop a matrix
  // before its caller reads it.
  auto evict_one = [this](const std::function<bool(const MemEntry&)>& match) {
    if (lru_.empty()) return false;
    auto best = lru_.end();
    double best_score = std::numeric_limits<double>::infinity();
    size_t seen = 0;
    for (auto it = std::prev(lru_.end()); it != lru_.begin(); --it) {
      if (match(*it)) {
        const double score =
            it->cost / static_cast<double>(std::max<size_t>(it->bytes, 1));
        if (score < best_score) {
          best_score = score;
          best = it;
        }
        if (++seen >= kEvictScan) break;
      }
    }
    if (best == lru_.end()) return false;
    EraseLocked(best, /*count_eviction=*/true);
    return true;
  };

  for (const auto& [ns, quota] : namespace_quotas_) {
    while (true) {
      auto bytes_it = namespace_bytes_.find(ns);
      if (bytes_it == namespace_bytes_.end() || bytes_it->second <= quota) {
        break;
      }
      if (!evict_one([&ns = ns](const MemEntry& e) { return e.ns == ns; })) {
        break;
      }
    }
  }
  while (memory_bytes_ > memory_budget_ && lru_.size() > 1) {
    if (!evict_one([](const MemEntry&) { return true; })) break;
  }
}

std::string UnitBehaviorKey(const std::string& model_id,
                            const Dataset& dataset) {
  return "unit:" + model_id + ":" + HexU64(DatasetFingerprint(dataset));
}

std::string HypothesisBehaviorKey(const std::string& set_name,
                                  const Dataset& dataset) {
  return "hyp:" + set_name + ":" + HexU64(DatasetFingerprint(dataset));
}

std::mutex* BehaviorStore::MaterializeLockFor(const std::string& key) {
  std::lock_guard<std::mutex> lock(materialize_mu_);
  std::unique_ptr<std::mutex>& slot = materialize_locks_[key];
  if (slot == nullptr) slot = std::make_unique<std::mutex>();
  return slot.get();
}

Result<std::string> BehaviorStore::EnsureUnitBehaviors(
    const Extractor& extractor, const Dataset& dataset,
    bool* materialized_now) {
  if (materialized_now != nullptr) *materialized_now = false;
  const std::string key = UnitBehaviorKey(extractor.model_id(), dataset);
  std::lock_guard<std::mutex> materialize_lock(*MaterializeLockFor(key));
  if (Contains(key)) return key;
  std::vector<int> unit_ids(extractor.num_units());
  for (size_t u = 0; u < unit_ids.size(); ++u) {
    unit_ids[u] = static_cast<int>(u);
  }
  std::vector<size_t> record_idx(dataset.num_records());
  for (size_t i = 0; i < record_idx.size(); ++i) record_idx[i] = i;
  Stopwatch watch;
  Matrix behaviors = extractor.ExtractBlock(dataset, record_idx, unit_ids);
  DB_RETURN_NOT_OK(Put(key, behaviors, watch.Seconds()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;  // a request for behaviors that were not yet stored
  }
  if (materialized_now != nullptr) *materialized_now = true;
  return key;
}

Result<std::string> BehaviorStore::EnsureHypothesisBehaviors(
    const HypothesisFn& hyp, const Dataset& dataset,
    bool* materialized_now) {
  if (materialized_now != nullptr) *materialized_now = false;
  const std::string key = HypothesisBehaviorKey(hyp.name(), dataset);
  std::lock_guard<std::mutex> materialize_lock(*MaterializeLockFor(key));
  if (Contains(key)) return key;
  const size_t ns = dataset.ns();
  if (memory_only()) {
    // Nothing over the tier's limit could be kept: decline before
    // evaluating, so the caller evaluates the hypothesis live once.
    std::lock_guard<std::mutex> lock(mu_);
    if (memory_budget_ == 0 ||
        OutOfCoreLocked(key, dataset.num_records() * ns * sizeof(float))) {
      return Status::ResourceExhausted(
          "hypothesis behaviors for key '" + key + "' exceed the " +
          std::to_string(memory_budget_) + "-byte memory-only store");
    }
  }
  Stopwatch watch;
  // One row per record, normalized to ns behaviors exactly like the live
  // extraction path (zero-pad / truncate), so stored and live scores are
  // identical.
  Matrix behaviors(dataset.num_records(), ns);
  for (size_t r = 0; r < dataset.num_records(); ++r) {
    std::vector<float> row = hyp.Eval(dataset.record(r));
    row.resize(ns, 0.0f);
    std::copy(row.begin(), row.end(), behaviors.row_data(r));
  }
  DB_RETURN_NOT_OK(Put(key, behaviors, watch.Seconds()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
  }
  if (materialized_now != nullptr) *materialized_now = true;
  return key;
}

Result<std::string> MaterializeUnitBehaviors(const Extractor& extractor,
                                             const Dataset& dataset,
                                             BehaviorStore* store) {
  return store->EnsureUnitBehaviors(extractor, dataset);
}

Result<PrecomputedExtractor> OpenStoredExtractor(
    const std::string& key, const std::string& model_id,
    const Dataset& dataset, BehaviorStore* store,
    BehaviorStore::Tier* served_from) {
  // Shared handle, not a deep copy: fused jobs opening the same stored
  // matrix all read the memory tier's single allocation.
  DB_ASSIGN_OR_RETURN(std::shared_ptr<const Matrix> behaviors,
                      store->GetShared(key, served_from));
  if (behaviors->rows() != dataset.num_records() * dataset.ns()) {
    return Status::Invalid(
        "stored behaviors do not align with the dataset: " +
        std::to_string(behaviors->rows()) + " rows vs " +
        std::to_string(dataset.num_records() * dataset.ns()) + " symbols");
  }
  return PrecomputedExtractor(model_id, std::move(behaviors), dataset.ns());
}

}  // namespace deepbase
