// Deterministic partitioning primitives for the inspection cluster:
// contiguous shard-range assignment (the unit of distributed work) and
// rendezvous (highest-random-weight) key placement, which pins a whole
// job to one worker (`job:<dataset>`). Both are pure functions of their
// inputs, so every process in the cluster computes the same answers.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace deepbase {
namespace cluster {

/// \brief A contiguous range of shard ids [lo, hi) out of a job's total
/// shard count. Contiguity is what keeps the distributed merge order equal
/// to the in-process one: the coordinator merges range states in ascending
/// `lo`, and each range pre-merges its shards in ascending id, so the
/// global fold visits shards 0..S-1 exactly as BlockPipeline's
/// MergeReplicas does.
struct ShardRange {
  uint32_t lo = 0;
  uint32_t hi = 0;  // exclusive
  uint32_t size() const { return hi - lo; }
};

/// \brief Split `total_shards` into min(num_workers, total_shards)
/// contiguous near-equal ranges (the first `total_shards % n` ranges get
/// one extra shard). Deterministic in its arguments alone — worker
/// identity and arrival order never influence the split.
std::vector<ShardRange> MakeShardRanges(uint32_t total_shards,
                                        uint32_t num_workers);

/// \brief FNV-1a 64-bit hash; stable across platforms and runs (never
/// std::hash, whose value is implementation-defined).
uint64_t StableHash64(const std::string& s);

/// \brief Rendezvous hashing: the owner of `key` is the worker maximizing
/// hash(key, worker). Removing a worker only remaps the keys it owned
/// (minimal disruption — the parameter-server placement property);
/// ties break toward the lexicographically smaller worker id. Returns an
/// empty string when `workers` is empty.
std::string PlaceKey(const std::string& key,
                     const std::vector<std::string>& workers);

}  // namespace cluster
}  // namespace deepbase
