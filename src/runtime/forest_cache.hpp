// Process-wide LRU cache of decomposition forests.
//
// Forest sampling is deterministic in (graph content, seed, tree count,
// cutter), so repeated solves over the same instance — parameter sweeps,
// epsilon ablations, serving the same workload graph — can reuse the
// sampled forest instead of re-running the cutter recursion in every tree
// attempt; a solve inserts only a forest it built whole.  Entries are
// shared immutable snapshots (shared_ptr<const vector>), so concurrent
// solves can hold the same forest while the cache evicts it.
//
// Keying by a content fingerprint (not object identity) keeps the cache
// semantically transparent: mutating or rebuilding a graph changes the
// fingerprint and misses.  The HGP_FOREST_CACHE environment knob sets the
// capacity of the global cache (default 8 forests; 0 disables caching).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "decomp/decomp_tree.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace hgp {

struct ForestCacheKey {
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  int num_trees = 0;
  std::string cutter;

  bool operator==(const ForestCacheKey&) const = default;
};

using CachedForest = std::shared_ptr<const std::vector<DecompTree>>;

class ForestCache {
 public:
  /// `capacity` = max cached forests; 0 disables (find misses, insert
  /// drops).
  explicit ForestCache(std::size_t capacity) : capacity_(capacity) {}

  /// The solver's shared instance; capacity from HGP_FOREST_CACHE.
  static ForestCache& global();

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }

  /// Returns the cached forest (promoting it to most-recently-used), or
  /// nullptr on miss.  Thread-safe.
  CachedForest find(const ForestCacheKey& key);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// forest beyond capacity.  Thread-safe.  Retained forests are charged
  /// to MemoryBudget::global(); when the budget cannot cover the estimate
  /// the forest is simply not cached (callers hold their own snapshot, so
  /// skipping the cache is always safe).
  void insert(const ForestCacheKey& key, CachedForest forest);

  std::size_t size() const;
  void clear();

  /// Warm-loads one forest snapshot (src/io/snapshot.hpp) and inserts it
  /// under its stored key, so a restarted process serves the trees from
  /// disk instead of re-sampling.  Returns the load status — a corrupt or
  /// version-mismatched file is reported as kDataLoss and simply not
  /// cached; it never throws and never fails the caller's solve.
  Status warm_load_file(const std::string& path);

  /// Snapshots the cached forest for `key` to `path` (the warm_load
  /// counterpart).  `g` must be the graph the key fingerprints — the
  /// snapshot embeds it so warm loading needs nothing but the file.
  /// Returns kInvalidInput on a cache miss or fingerprint mismatch.
  Status save_entry(const ForestCacheKey& key, const Graph& g,
                    const std::string& path);

 private:
  struct Entry {
    ForestCacheKey key;
    CachedForest forest;
    /// Bytes charged to the global MemoryBudget for this entry (released
    /// on eviction/clear).  An estimate — see forest_cache.cpp.
    std::size_t charged_bytes = 0;
  };

  std::size_t capacity_;
  /// A leaf lock: nothing else is acquired while it is held.
  mutable Mutex mutex_;
  std::list<Entry> lru_ HGP_GUARDED_BY(mutex_);  // front = most recently used
};

}  // namespace hgp
