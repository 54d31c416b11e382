#include "runtime/forest_cache.hpp"

#include <algorithm>
#include <utility>

#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/memory_budget.hpp"

namespace hgp {

namespace {

/// Rough retained-bytes estimate for one cached forest: per tree node, the
/// Tree adjacency (parent/children/weights) plus the two leaf↔vertex maps
/// — ~64 bytes covers all of them with headroom.  The budget needs the
/// order of magnitude, not an exact census.
std::size_t estimate_forest_bytes(const std::vector<DecompTree>& forest) {
  std::size_t nodes = 0;
  for (const DecompTree& t : forest) {
    nodes += static_cast<std::size_t>(t.tree().node_count());
  }
  return nodes * 64;
}

}  // namespace

ForestCache& ForestCache::global() {
  static ForestCache cache(
      static_cast<std::size_t>(std::max(0L, env_int("HGP_FOREST_CACHE", 8))));
  return cache;
}

CachedForest ForestCache::find(const ForestCacheKey& key) {
  if (!enabled()) return nullptr;
  const MutexLock lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->key == key) {
      lru_.splice(lru_.begin(), lru_, it);
      HGP_COUNTER_ADD("solver.forest_cache.hits", 1);
      return lru_.front().forest;
    }
  }
  HGP_COUNTER_ADD("solver.forest_cache.misses", 1);
  return nullptr;
}

void ForestCache::insert(const ForestCacheKey& key, CachedForest forest) {
  if (!enabled() || forest == nullptr) return;
  const std::size_t bytes = estimate_forest_bytes(*forest);
  const MutexLock lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->key == key) {
      MemoryBudget::global().release(it->charged_bytes);
      if (!MemoryBudget::global().try_reserve(bytes)) {
        HGP_COUNTER_ADD("solver.forest_cache.budget_skips", 1);
        lru_.erase(it);
        return;
      }
      it->forest = std::move(forest);
      it->charged_bytes = bytes;
      lru_.splice(lru_.begin(), lru_, it);
      return;
    }
  }
  // Caching is an optimization, never worth failing a solve over: when the
  // budget cannot cover the retained forest, drop it instead of throwing.
  if (!MemoryBudget::global().try_reserve(bytes)) {
    HGP_COUNTER_ADD("solver.forest_cache.budget_skips", 1);
    return;
  }
  lru_.push_front(Entry{key, std::move(forest), bytes});
  while (lru_.size() > capacity_) {
    HGP_COUNTER_ADD("solver.forest_cache.evictions", 1);
    MemoryBudget::global().release(lru_.back().charged_bytes);
    lru_.pop_back();
  }
}

std::size_t ForestCache::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

void ForestCache::clear() {
  const MutexLock lock(mutex_);
  for (const Entry& e : lru_) MemoryBudget::global().release(e.charged_bytes);
  lru_.clear();
}

Status ForestCache::warm_load_file(const std::string& path) {
  if (!enabled()) {
    return Status(StatusCode::kResourceExhausted,
                  "forest cache disabled (HGP_FOREST_CACHE=0)");
  }
  io::ForestSnapshot snap;
  try {
    snap = io::load_forest_snapshot(path);
  } catch (const SolveError& e) {
    HGP_COUNTER_ADD("solver.forest_cache.warm_load_failures", 1);
    return e.status();
  }
  const ForestCacheKey key{snap.meta.graph_fingerprint, snap.meta.seed,
                           snap.meta.num_trees, snap.meta.cutter};
  insert(key, std::make_shared<const std::vector<DecompTree>>(
                  std::move(snap.forest)));
  HGP_COUNTER_ADD("solver.forest_cache.warm_loads", 1);
  return Status();
}

Status ForestCache::save_entry(const ForestCacheKey& key, const Graph& g,
                               const std::string& path) {
  const CachedForest forest = find(key);
  if (forest == nullptr) {
    return Status(StatusCode::kInvalidInput,
                  "forest cache has no entry for this key");
  }
  io::ForestSnapshotMeta meta;
  meta.graph_fingerprint = key.fingerprint;
  meta.seed = key.seed;
  meta.num_trees = key.num_trees;
  meta.cutter = key.cutter;
  return io::save_forest_snapshot(meta, g, *forest, path);
}

}  // namespace hgp
