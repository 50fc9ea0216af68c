// Disk-backed behavior store — the Mistique-style substrate the paper
// names as future work for managing extracted unit/hypothesis behaviors
// (§5.1.2). Behavior matrices are persisted once per (key, dataset
// fingerprint) and served from a bounded in-memory LRU tier backed by
// checksummed files, so re-inspecting a model after a restart skips
// extraction entirely (the §6.3 workflow: "DeepBase extracts the
// activations once and makes the subsequent passes on the cached
// version"). A store without a root directory keeps only the memory
// tier: the paper's hypothesis-behavior cache (§5.1.2, Fig. 9), "simple
// LRU to pin the matrix in memory", which storeless sessions use. Files
// are encoded with codec::Writer and decoded with codec::Reader over the
// file's mapped bytes (util/codec.h); each file kind has one decoder,
// shared by its reads and its directory scan.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/extractors.h"
#include "hypothesis/hypothesis.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace deepbase {

/// \brief A stable fingerprint of a dataset's contents (records, ids, and
/// shape). Keys derived from it invalidate automatically when the dataset
/// changes.
uint64_t DatasetFingerprint(const Dataset& dataset);

/// \brief Tiered (memory LRU over disk, with out-of-core mmap handout for
/// matrices bigger than the memory tier) store of behavior matrices.
///
/// Thread-safety: all operations are serialized by an internal mutex, so
/// one store may back several concurrent inspection jobs
/// (InspectionSession::Submit). Counters are cumulative over the store's
/// lifetime; AddStatsTo() folds them into a RuntimeStats snapshot.
class BehaviorStore {
 public:
  /// Which tier served a Get (kMiss = not stored at all). kMmap means the
  /// matrix was handed out as a read-only map of the on-disk payload —
  /// out-of-core: the bytes stream through the page cache on access
  /// instead of being deserialized into the memory tier.
  enum class Tier { kMemory, kDisk, kMmap, kMiss };

  /// \param root_dir directory for the persisted matrices (created on
  ///        first Put if missing). Empty = memory-only: the store touches
  ///        no file, a memory miss is a miss (kNotFound / Tier::kMiss),
  ///        evicted entries are gone, and EnsureHypothesisBehaviors
  ///        declines (kResourceExhausted, before evaluating anything) a
  ///        matrix the memory tier could not hold, so callers evaluate it
  ///        live once instead of materializing it only to drop it.
  /// \param memory_budget_bytes LRU tier capacity; 0 disables the memory
  ///        tier (every Get reads from disk).
  explicit BehaviorStore(std::string root_dir,
                         size_t memory_budget_bytes = 64ull << 20);

  /// \brief Per-namespace memory-tier quota (a key's namespace is its
  /// prefix up to the first ':', e.g. "unit" / "hyp"). 0 removes the
  /// quota. Quotas bound each tenant's share of the LRU tier on top of
  /// the global budget; the disk tier is never quota-limited.
  void SetNamespaceQuota(const std::string& ns, size_t bytes);

  /// \brief Persist `behaviors` under `key` (overwrites) and admit it to
  /// the memory tier. `cost` is the seconds it took to materialize the
  /// matrix; the cost-aware evictor prefers dropping cheap-to-recreate
  /// bytes first.
  Status Put(const std::string& key, const Matrix& behaviors,
             double cost = 1.0);

  /// \brief Fetch a matrix: memory tier first, then disk (re-admitting to
  /// memory). kNotFound if the key was never Put — or if the on-disk file
  /// failed validation (a key, shape or length that does not describe the
  /// file's bytes, or a checksum mismatch), in
  /// which case the file is quarantined (renamed `.quarantined`) so the
  /// caller recomputes once instead of hitting kDataLoss on every read
  /// across restarts. `served_from`, when non-null, reports which tier
  /// answered (kMiss on any error).
  Result<Matrix> Get(const std::string& key, Tier* served_from = nullptr);

  /// \brief Like Get, but returns a shared read-only handle on the memory
  /// tier's allocation instead of a deep copy — N concurrent jobs reading
  /// one stored matrix share a single allocation (the fused-job
  /// hypothesis-tier / PrecomputedExtractor path). Eviction only drops
  /// the store's reference; live handles stay valid.
  ///
  /// Out-of-core: when the stored payload is larger than the memory
  /// tier's effective limit (the global budget, tightened by the key's
  /// namespace quota), the matrix would evict everything and still not
  /// fit — so instead of deserializing, the store hands out the file's
  /// read-only mapping of its 64-byte-aligned float payload
  /// (Tier::kMmap) and the page cache streams it. Every read maps the
  /// file once; the disk tier copies the payload out of that mapping.
  /// Mmap handouts bypass the LRU and skip checksum verification
  /// (validating would read the whole payload, defeating the point); the
  /// header's key and shape are still checked against the file's bytes.
  Result<std::shared_ptr<const Matrix>> GetShared(
      const std::string& key, Tier* served_from = nullptr);

  /// \brief True if the key is available (either tier) without reading the
  /// payload.
  bool Contains(const std::string& key) const;

  /// \brief The tier a GetShared would be served from right now, without
  /// serving it: kMemory (resident), kMmap (on disk but bigger than the
  /// effective memory limit, so it would be handed out as a read-only
  /// map), kDisk (on disk, would deserialize + admit), or kMiss (would
  /// extract). Counts nothing and never touches LRU order — EXPLAIN's
  /// residency probe. The mmap verdict is GetShared's own out-of-core
  /// rule over the stored payload size.
  Tier PeekTier(const std::string& key) const;

  /// \brief Drop from the memory tier only (the persisted file survives).
  void EvictFromMemory(const std::string& key);

  /// \brief Delete from both tiers.
  Status Remove(const std::string& key);

  /// \brief All persisted keys, sorted.
  std::vector<std::string> Keys() const;

  // --- Blob (file-only) tier — opaque byte payloads persisted with the
  // same key/checksum framing as matrices but never admitted to the
  // memory LRU. The scheduler's persistent result cache lives here under
  // the "cache:" namespace; its own in-memory ResultCache is the memory
  // tier. Blobs are bounded per namespace by SetBlobNamespaceQuota
  // (oldest-written evicted first).

  /// \brief Persist `bytes` under `key` (overwrites), then enforce the
  /// key's namespace blob quota.
  Status PutBlob(const std::string& key, const std::string& bytes);
  /// \brief Read a blob; kNotFound if absent or if the file failed
  /// validation (the corrupt file is quarantined aside, same contract as
  /// Get).
  Result<std::string> GetBlob(const std::string& key);
  bool ContainsBlob(const std::string& key) const;
  Status RemoveBlob(const std::string& key);
  /// \brief All persisted blob keys, sorted.
  std::vector<std::string> BlobKeys() const;
  /// \brief On-disk byte quota for one blob namespace (key prefix up to
  /// the first ':'); 0 removes the quota. Over-quota namespaces evict
  /// their oldest-written blobs.
  void SetBlobNamespaceQuota(const std::string& ns, size_t bytes);
  /// \brief Current on-disk bytes of one blob namespace.
  size_t blob_namespace_bytes(const std::string& ns) const;

  size_t memory_bytes() const;
  /// \brief Memory-tier bytes held by one namespace.
  size_t namespace_bytes(const std::string& ns) const;

  // Cumulative counters (formerly BehaviorStore::Stats; the engine folds
  // per-inspection deltas of these into RuntimeStats::store_*).
  // Size accounting is in bytes: evicted_bytes() reports memory actually
  // freed by evictions, bytes_written() the on-disk footprint including
  // file framing (not entry counts).
  size_t mem_hits() const;
  size_t disk_hits() const;
  /// \brief Reads served as out-of-core mmap handouts (see GetShared).
  size_t mmap_hits() const;
  size_t misses() const;
  size_t evictions() const;
  size_t evicted_bytes() const;
  size_t bytes_written() const;
  size_t blob_hits() const;
  size_t blob_misses() const;
  size_t blob_evictions() const;
  /// \brief Files renamed aside after failing validation (see Get/GetBlob:
  /// corrupt entries quarantine as `<file>.quarantined` and read as a
  /// miss, so one bad file costs one recompute instead of a permanent
  /// kDataLoss).
  size_t quarantines() const;
  /// \brief Keys with an Ensure*Behaviors call in flight: each holds one
  /// per-key materialization lock, which its last caller frees (0 when
  /// idle, however many keys were ever materialized).
  size_t materialize_slots() const;

  /// \brief Ensure `extractor`'s full unit behaviors over `dataset`, whose
  /// DatasetFingerprint is `dataset_fingerprint`, are stored (extracting
  /// and persisting them if not) under UnitBehaviorKey and return the key.
  /// Concurrent callers for the same store are serialized, so the
  /// extraction runs at most once per (model, dataset fingerprint).
  /// `materialized_now`, when non-null, reports whether this call paid
  /// the extraction (a store miss). Jobs pass their plan's fingerprint
  /// (InspectPlan::dataset_fingerprint), so no call re-hashes the dataset.
  Result<std::string> EnsureUnitBehaviors(const Extractor& extractor,
                                          const Dataset& dataset,
                                          uint64_t dataset_fingerprint,
                                          bool* materialized_now = nullptr);
  /// \brief The same, hashing `dataset` once.
  Result<std::string> EnsureUnitBehaviors(const Extractor& extractor,
                                          const Dataset& dataset,
                                          bool* materialized_now = nullptr);

  /// \brief Ensure `hyp`'s full behaviors over `dataset` (one row per
  /// record, normalized to ns columns like live extraction) are stored
  /// under HypothesisBehaviorKey and return the key — the hypothesis-tier
  /// counterpart of EnsureUnitBehaviors, reused across jobs and restarts.
  Result<std::string> EnsureHypothesisBehaviors(
      const HypothesisFn& hyp, const Dataset& dataset,
      uint64_t dataset_fingerprint, bool* materialized_now = nullptr);
  /// \brief The same, hashing `dataset` once.
  Result<std::string> EnsureHypothesisBehaviors(
      const HypothesisFn& hyp, const Dataset& dataset,
      bool* materialized_now = nullptr);

 private:
  struct MemEntry {
    std::string key;
    std::string ns;  // key prefix up to the first ':'
    /// Shared so GetShared handles survive eviction (readers keep the
    /// allocation alive; the store only drops its own reference).
    std::shared_ptr<const Matrix> matrix;
    size_t bytes = 0;
    double cost = 1.0;  // materialization seconds (eviction value)
  };

  struct BlobEntry {
    std::string key;
    size_t bytes = 0;  // whole-file footprint incl. framing
  };

  bool memory_only() const { return root_dir_.empty(); }
  std::string PathForKey(const std::string& key) const;
  std::string PathForBlob(const std::string& key) const;
  void AdmitLocked(const std::string& key,
                   std::shared_ptr<const Matrix> matrix, double cost);
  void EraseLocked(std::list<MemEntry>::iterator it, bool count_eviction);
  /// The out-of-core rule: true when a `payload_bytes` matrix under `key`
  /// exceeds the memory tier's effective limit (the global budget,
  /// tightened by the key's namespace quota). Such a payload is never
  /// admitted to the LRU and GetShared hands it out as an mmap.
  bool OutOfCoreLocked(const std::string& key, size_t payload_bytes) const;
  /// Evict until `ns` (when non-empty) fits its quota and the whole tier
  /// fits the global budget. Cost-aware: among the least-recent
  /// candidates, the lowest cost-per-byte entry goes first.
  void EnforceBudgetLocked();
  struct MaterializeSlot {
    std::mutex mu;
    size_t holders = 0;  // calls holding or waiting for mu
  };
  /// The per-key materialization lock of one Ensure*Behaviors call, held
  /// for the guard's life. A key's slot counts the calls that hold or wait
  /// for its lock, and the last of them erases it.
  class MaterializeGuard {
   public:
    MaterializeGuard(BehaviorStore* store, const std::string& key);
    ~MaterializeGuard();
    MaterializeGuard(const MaterializeGuard&) = delete;
    MaterializeGuard& operator=(const MaterializeGuard&) = delete;

   private:
    BehaviorStore* store_;
    std::map<std::string, MaterializeSlot>::iterator slot_;
  };
  /// Build the per-namespace blob manifest (one directory scan, oldest
  /// file first) on first blob operation.
  void EnsureBlobManifestLocked() const;
  void DropBlobFromManifestLocked(const std::string& key) const;
  void EnforceBlobQuotaLocked(const std::string& ns);
  /// Rename a corrupt file to `<path>.quarantined` (kept for forensics,
  /// invisible to every scan) and count it.
  void QuarantineLocked(const std::string& path);

  std::string root_dir_;
  size_t memory_budget_;
  std::map<std::string, size_t> namespace_quotas_;

  // Per-key locks so EnsureUnitBehaviors extracts each (model, dataset)
  // at most once without serializing unrelated materializations against
  // each other; a slot lives only while some call holds or waits for it
  // (MaterializeGuard). materialize_mu_ only guards the slot map and is
  // ordered before mu_ (a key lock is held across Contains/Put, which
  // take mu_).
  mutable std::mutex materialize_mu_;
  std::map<std::string, MaterializeSlot> materialize_locks_;
  mutable std::mutex mu_;
  size_t memory_bytes_ = 0;
  std::map<std::string, size_t> namespace_bytes_;
  // LRU: most-recent at the front.
  std::list<MemEntry> lru_;
  std::map<std::string, std::list<MemEntry>::iterator> index_;
  size_t mem_hits_ = 0;
  size_t disk_hits_ = 0;
  size_t mmap_hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t evicted_bytes_ = 0;
  size_t bytes_written_ = 0;

  // Blob tier (guarded by mu_; manifest is lazily built, hence mutable).
  std::map<std::string, size_t> blob_quotas_;
  mutable bool blob_manifest_loaded_ = false;
  /// Per namespace, oldest-written first (the blob eviction order).
  mutable std::map<std::string, std::list<BlobEntry>> blob_manifest_;
  mutable std::map<std::string, size_t> blob_ns_bytes_;
  size_t blob_hits_ = 0;
  size_t blob_misses_ = 0;
  size_t blob_evictions_ = 0;
  size_t quarantines_ = 0;
};

/// \brief Canonical store key for a model's unit behaviors over the
/// dataset whose DatasetFingerprint is `dataset_fingerprint`:
/// "unit:<kExtractionKernelVersion>:<model>:<fingerprint>", so behaviors
/// an older extraction kernel stored are never served.
std::string UnitBehaviorKey(const std::string& model_id,
                            uint64_t dataset_fingerprint);
std::string UnitBehaviorKey(const std::string& model_id,
                            const Dataset& dataset);

/// \brief Canonical store key for a hypothesis set's behaviors:
/// "hyp:<set>:<fingerprint>".
std::string HypothesisBehaviorKey(const std::string& set_name,
                                  uint64_t dataset_fingerprint);
std::string HypothesisBehaviorKey(const std::string& set_name,
                                  const Dataset& dataset);

/// \brief Extract all behaviors of `extractor` over `dataset` and persist
/// them under UnitBehaviorKey. No-op (returns the key) if already stored.
Result<std::string> MaterializeUnitBehaviors(const Extractor& extractor,
                                             const Dataset& dataset,
                                             BehaviorStore* store);

/// \brief Build a PrecomputedExtractor serving a stored behavior matrix.
/// `served_from`, when non-null, reports the tier that answered.
Result<PrecomputedExtractor> OpenStoredExtractor(
    const std::string& key, const std::string& model_id,
    const Dataset& dataset, BehaviorStore* store,
    BehaviorStore::Tier* served_from = nullptr);

}  // namespace deepbase
