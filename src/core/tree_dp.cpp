#include "core/tree_dp.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/arena.hpp"
#include "util/contracts.hpp"

namespace hgp {

namespace {

/// Publishes one solve's locally-counted DP work into the shared metrics
/// registry (counters `dp.*` and the demand-rounding bucket histogram).
/// One call per solve — the hot merge loop itself never touches atomics.
void publish_dp_metrics(const TreeDpStats& stats, std::size_t translated,
                        const Tree& bt, const ScaledDemands& sd) {
  HGP_COUNTER_ADD("dp.solves", 1);
  HGP_COUNTER_ADD("dp.signatures", stats.signature_count);
  HGP_COUNTER_ADD("dp.feasible_states", stats.feasible_states);
  HGP_COUNTER_ADD("dp.merge_operations", stats.merge_operations);
  HGP_COUNTER_ADD("dp.merges_rejected", stats.merges_rejected);
  HGP_COUNTER_ADD("dp.states_pruned", stats.states_pruned);
  HGP_COUNTER_ADD("dp.nodes_built", stats.nodes_built);
  HGP_COUNTER_ADD("dp.nodes_reused", stats.nodes_reused);
  HGP_COUNTER_ADD("dp.nodes_translated", translated);
#if HGP_OBS_ENABLED
  static obs::Histogram& units_hist =
      obs::MetricsRegistry::global().histogram(
          "dp.leaf_demand_units", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  for (Vertex v = 0; v < bt.node_count(); ++v) {
    if (bt.is_leaf(v)) {
      units_hist.observe(
          static_cast<double>(sd.units[static_cast<std::size_t>(v)]));
    }
  }
#else
  (void)bt;
  (void)sd;
#endif
}

}  // namespace

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoSig = kDpNoSig;

/// Back-pointers are stored in reuse entries verbatim, so the internal
/// alias is the public type.
using Back = DpBack;

/// One distinct masked-prefix key of a projected child table: `key` =
/// space.lift(s, j, j) interns (D^(1..j), j) with j = space.present(key);
/// `g` is the minimum of cost[s] + w·(PS[p] − PS[j]) over the child states
/// sharing it, first attained (ascending id) by child signature `sig`.
/// `pack` = space.prefix_pack(key), so the merge of a fitting pair is one
/// table read.
struct ProjectedKey {
  std::uint32_t key;
  std::uint32_t sig;
  double g;
  std::size_t pack = 0;
};

/// Pareto-dominance index of one node's pruning pass, reused by every node
/// of a sweep.  A class-p state has zero demand above level p, so walked in
/// cost order it is dominated iff the least D¹ among the kept class-p
/// states whose (D², …, Dᵖ) lie componentwise at or below its own is at
/// most its D¹.  For p ≤ 3 that least D¹ lives in a dense prefix-min table
/// over (D², D³) (rows D², columns D³; a level above p has extent 1): a
/// query is one read, and admitting a state lowers the cells above it.
/// Corollary 1 (D² ≥ D³) leaves the cells with D³ > D² unused.  A class
/// with p ≥ 4 or more than kDpDenseIndexCells cells keeps the pairwise
/// scan.  Between nodes every cell is kNone again: reset() restores only
/// the cells the node touched.
class DominanceIndex {
 public:
  explicit DominanceIndex(const SignatureSpace& space)
      : space_(space),
        classes_(static_cast<std::size_t>(space.height()) + 1),
        kept_(static_cast<std::size_t>(space.height()) + 1) {
    for (int p = 0; p <= std::min(space.height(), 3); ++p) {
      const std::size_t rows =
          p >= 2 ? static_cast<std::size_t>(space.level_bound(2)) + 1 : 1;
      const std::size_t cols =
          p >= 3 ? static_cast<std::size_t>(space.level_bound(3)) + 1 : 1;
      if (rows * cols > kDpDenseIndexCells) continue;
      classes_[static_cast<std::size_t>(p)] = {cells_.size(), rows, cols};
      cells_.resize(cells_.size() + rows * cols, kNone);
    }
  }

  /// Called in cost order: false if a kept state of s's presence class
  /// dominates s, else keeps s and returns true.
  bool admit(std::uint32_t s) {
    const auto p = static_cast<std::size_t>(space_.present(s));
    const Class& c = classes_[p];
    if (c.offset == kScan) return admit_by_scan(kept_[p], s);
    const DemandUnits d1 = space_.level(s, 1);
    const auto d2 =
        c.rows > 1 ? static_cast<std::size_t>(space_.level(s, 2)) : 0;
    const auto d3 =
        c.cols > 1 ? static_cast<std::size_t>(space_.level(s, 3)) : 0;
    DemandUnits* const table = cells_.data() + c.offset;
    if (table[d2 * c.cols + d3] <= d1) return false;
    // Lower every cell (r, q) ≥ (d2, d3) to d1.  The table is
    // non-increasing along each row and column, so the walk stops at the
    // first cell already ≤ d1: the rest of its row, and (at the row's
    // start) every later row, are ≤ d1 too.
    for (std::size_t r = d2; r < c.rows; ++r) {
      DemandUnits* const row = table + r * c.cols;
      if (row[d3] <= d1) break;
      const std::size_t last = std::min(r, c.cols - 1);
      for (std::size_t q = d3; q <= last && row[q] > d1; ++q) {
        if (row[q] == kNone) touched_.push_back(c.offset + r * c.cols + q);
        row[q] = d1;
      }
    }
    return true;
  }

  /// Forgets every admitted state.
  void reset() {
    for (const std::size_t cell : touched_) cells_[cell] = kNone;
    touched_.clear();
    for (std::vector<std::uint32_t>& k : kept_) k.clear();
  }

  /// Cost-ordered copy of the node's feasible list (pruning scratch).
  std::vector<std::uint32_t>& order() { return order_; }

 private:
  static constexpr DemandUnits kNone = std::numeric_limits<DemandUnits>::max();
  static constexpr std::size_t kScan = std::numeric_limits<std::size_t>::max();
  struct Class {
    std::size_t offset = kScan;
    std::size_t rows = 1;
    std::size_t cols = 1;
  };

  bool admit_by_scan(std::vector<std::uint32_t>& kept, std::uint32_t s) const {
    const int height = space_.height();
    for (const std::uint32_t k : kept) {
      bool leq = true;
      for (int j = 1; j <= height && leq; ++j) {
        leq = space_.level(k, j) <= space_.level(s, j);
      }
      if (leq) return false;
    }
    kept.push_back(s);
    return true;
  }

  const SignatureSpace& space_;
  std::vector<Class> classes_;                    // by presence p
  std::vector<DemandUnits> cells_;                // all dense tables
  std::vector<std::size_t> touched_;              // cells set this node
  std::vector<std::vector<std::uint32_t>> kept_;  // scan classes
  std::vector<std::uint32_t> order_;
};

/// Capacity compatibility of one binary node's key pairs.  Keys k1 and k2
/// merge iff level(k1, k) + level(k2, k) ≤ bound_k at every level k: keys
/// are masked prefixes (0 above their presence), so this is exactly the
/// test SignatureSpace::merge applies, and it does not depend on pv.  Keys
/// ascend by id and so by D¹: the level-1 test keeps a prefix of keys2.
/// Each deeper level k has cumulative bitsets over keys2's positions, one
/// row per threshold t (bit i set iff level(keys2[i], k) ≤ t); a k1 ANDs
/// the rows for t = bound_k − level(k1, k) and walks the set bits, so it
/// visits its compatible k2 in ascending order and nothing else.  Rows
/// are built only for thresholds some k1 asks for that exclude some k2,
/// and at most kMaxRows per level, so the bitsets take about one word per
/// key of keys2 and level; a level that needs more rows is tested pair by
/// pair on the walked candidates instead.
class PairIndex {
 public:
  /// `pv_range(j1, j2)` is the [lo, hi] pv span of a (j1, j2) key pair.
  template <class PvRange>
  void build(const SignatureSpace& space,
             const std::vector<ProjectedKey>& keys1,
             const std::vector<ProjectedKey>& keys2, PvRange&& pv_range) {
    const int height = space.height();
    const std::size_t n = keys2.size();
    words_ = (n + 63) / 64;
    d1_.resize(n);
    presence_count_.assign(static_cast<std::size_t>(height) + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      d1_[i] = space.level(keys2[i].key, 1);
      const int j2 = space.present(keys2[i].key);
      ++presence_count_[static_cast<std::size_t>(j2)];
    }
    steps_.assign(static_cast<std::size_t>(height) + 1, 0);
    for (int j1 = 0; j1 <= height; ++j1) {
      for (int j2 = 0; j2 <= height; ++j2) {
        const auto [lo, hi] = pv_range(j1, j2);
        if (hi >= lo) {
          steps_[static_cast<std::size_t>(j1)] +=
              presence_count_[static_cast<std::size_t>(j2)] *
              static_cast<std::size_t>(hi - lo + 1);
        }
      }
    }
    levels_.assign(static_cast<std::size_t>(height) + 1, Level{});
    bits_.clear();
    for (int k = 2; k <= height; ++k) {
      DemandUnits max1 = 0;
      DemandUnits max2 = 0;
      for (const ProjectedKey& k1 : keys1) {
        max1 = std::max(max1, space.level(k1.key, k));
      }
      for (const ProjectedKey& k2 : keys2) {
        max2 = std::max(max2, space.level(k2.key, k));
      }
      // Thresholds t ≥ max2 pass every k2; below lo no k1 asks.
      Level& level = levels_[static_cast<std::size_t>(k)];
      level.lo = std::max<DemandUnits>(0, space.level_bound(k) - max1);
      if (level.lo >= max2) continue;
      level.hi = max2;
      const auto rows = static_cast<std::size_t>(level.hi - level.lo);
      if (rows > kMaxRows) {
        level.offset = kPerPair;
        continue;
      }
      level.offset = bits_.size();
      bits_.resize(level.offset + rows * words_, 0);
      std::uint64_t* const base = bits_.data() + level.offset;
      for (std::size_t i = 0; i < n; ++i) {
        const DemandUnits b = space.level(keys2[i].key, k);
        if (b >= level.hi) continue;
        const auto row = static_cast<std::size_t>(std::max(b, level.lo) -
                                                  level.lo);
        base[row * words_ + i / 64] |= std::uint64_t{1} << (i % 64);
      }
      for (std::size_t row = 1; row < rows; ++row) {
        for (std::size_t w = 0; w < words_; ++w) {
          base[row * words_ + w] |= base[(row - 1) * words_ + w];
        }
      }
    }
  }

  /// pv steps of a presence-j1 k1 against every k2, compatible or not.
  std::size_t steps(int j1) const {
    return steps_[static_cast<std::size_t>(j1)];
  }

  /// Calls visit(i) for every position i of a k2 of `keys2` (the list
  /// passed to build) compatible with `key1`, ascending.
  template <class Visit>
  void for_each_compatible(const SignatureSpace& space,
                           const std::vector<ProjectedKey>& keys2,
                           std::size_t key1, Visit&& visit) {
    const DemandUnits room1 = space.level_bound(1) - space.level(key1, 1);
    const auto limit = static_cast<std::size_t>(
        std::upper_bound(d1_.begin(), d1_.end(), room1) - d1_.begin());
    rows_.clear();
    checks_.clear();
    for (int k = 2; k <= space.present(key1); ++k) {
      const Level& level = levels_[static_cast<std::size_t>(k)];
      const DemandUnits t = space.level_bound(k) - space.level(key1, k);
      if (t >= level.hi) continue;
      if (level.offset == kPerPair) {
        checks_.emplace_back(k, t);
      } else {
        rows_.push_back(bits_.data() + level.offset +
                        static_cast<std::size_t>(t - level.lo) * words_);
      }
    }
    if (checks_.empty()) {
      walk(limit, visit);
      return;
    }
    walk(limit, [&](std::size_t i) {
      for (const auto& [k, t] : checks_) {
        if (space.level(keys2[i].key, k) > t) return;
      }
      visit(i);
    });
  }

 private:
  /// Calls visit(i) for every i < limit whose bit is set in all of rows_.
  template <class Visit>
  void walk(std::size_t limit, Visit&& visit) const {
    if (rows_.empty()) {
      for (std::size_t i = 0; i < limit; ++i) visit(i);
      return;
    }
    for (std::size_t w = 0; w * 64 < limit; ++w) {
      std::uint64_t word = rows_[0][w];
      for (std::size_t r = 1; r < rows_.size(); ++r) word &= rows_[r][w];
      if (limit - w * 64 < 64) {
        word &= (std::uint64_t{1} << (limit - w * 64)) - 1;
      }
      while (word != 0) {
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  static constexpr std::size_t kMaxRows = 64;
  static constexpr std::size_t kPerPair =
      std::numeric_limits<std::size_t>::max();
  /// Rows for thresholds t in [lo, hi); t ≥ hi passes every k2.  Offset
  /// kPerPair: the level has no rows and is tested pair by pair.
  struct Level {
    DemandUnits lo = 0;
    DemandUnits hi = 0;
    std::size_t offset = 0;
  };
  std::size_t words_ = 0;
  std::vector<DemandUnits> d1_;              // D¹ of keys2, ascending
  std::vector<std::size_t> presence_count_;  // keys2 per presence
  std::vector<std::size_t> steps_;           // by j1
  std::vector<Level> levels_;                // by level k (2..h)
  std::vector<std::uint64_t> bits_;
  std::vector<const std::uint64_t*> rows_;
  std::vector<std::pair<int, DemandUnits>> checks_;  // (level, threshold)
};

/// A finished node's DP table: its feasible signature ids (sorted), their
/// costs and their back-pointers, all compact.  The parent's projection
/// and the root selection read `cost[i]` by position; backtracking finds a
/// signature's back-pointer by binary search.  Immutable once finished and
/// held by pointer, so a clean subtree's table is shared, never copied.
using NodeTable = DpSubtreeEntry;
using TablePtr = std::shared_ptr<const NodeTable>;

const Back& lookup(const NodeTable& table, std::uint32_t sig) {
  const auto it =
      std::lower_bound(table.feasible.begin(), table.feasible.end(), sig);
  HGP_CHECK_MSG(it != table.feasible.end() && *it == sig,
                "backtracking hit an infeasible signature");
  return table.back[static_cast<std::size_t>(it - table.feasible.begin())];
}

/// The dense |Sig|-sized scratch of one solve.  Only one node is built at
/// a time (children before parents), so one cost array and one back array
/// serve every node: relax() writes into them at random, pruning and
/// compaction read them, and compact() hands the survivors to the node's
/// table and resets the entries it set, so the cost array is all-∞ again
/// and set-up costs O(states) per node, not O(|Sig|).  The projection's
/// per-key `best`/`arg` work the same way.  The arrays come from one
/// arena, allocated once, so arena_bytes does not depend on the tree.
class DpScratch {
 public:
  explicit DpScratch(const SignatureSpace& space)
      : cost_(arena_.allocate_filled<double>(space.size(), kInf)),
        back_(arena_.allocate<Back>(space.size())),
        best_(arena_.allocate_filled<double>(space.size(), kInf)),
        arg_(arena_.allocate<std::uint32_t>(space.size())),
        dominance_(space) {}

  /// Starts a node.  A stale finite cost would silently hide its
  /// signature from relax(), so contract builds check the whole array.
  void begin() {
    HGP_INVARIANT_MSG(std::all_of(cost_.begin(), cost_.end(),
                                  [](double c) { return c == kInf; }),
                      "DP scratch cost span still holds a finite entry");
  }

  /// Keeps the first candidate reaching a signature's minimum (strict <).
  /// Back entries are written by the first relax() of their signature
  /// before any read, so the back array is never initialized.
  void relax(std::size_t sig, double cost, const Back& back) {
    if (cost < cost_[sig]) {
      if (cost_[sig] == kInf) feasible_.push_back(narrow<std::uint32_t>(sig));
      cost_[sig] = cost;
      back_[sig] = back;
    }
  }

  /// Pareto dominance pruning.  An entry (D, p, cost) is dominated by
  /// (D', p, cost') with D' ≤ D componentwise and cost' ≤ cost: every
  /// parent combination accepting the former accepts the latter with the
  /// same cut/presence choices and charges (those read only j and p),
  /// passes the same capacity checks (smaller demands), and produces a
  /// dominating parent entry — so dropping dominated states preserves the
  /// optimum.  This is what keeps deep hierarchies tractable in practice.
  /// States are walked by (cost, id), and each is checked against the
  /// cheaper survivors of its presence class (DominanceIndex).  Returns the
  /// number of entries dropped.
  std::size_t prune_dominated() {
    std::vector<std::uint32_t>& order = dominance_.order();
    order.assign(feasible_.begin(), feasible_.end());
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return cost_[a] != cost_[b] ? cost_[a] < cost_[b] : a < b;
              });
    feasible_.clear();
    for (const std::uint32_t s : order) {
      if (dominance_.admit(s)) {
        feasible_.push_back(s);
      } else {
        cost_[s] = kInf;
      }
    }
    dominance_.reset();
    return order.size() - feasible_.size();
  }

  /// Gathers the node's surviving entries into `out`, ascending by id, and
  /// resets them to ∞.
  void compact(NodeTable& out) {
    std::sort(feasible_.begin(), feasible_.end());
    out.feasible = feasible_;
    out.cost.resize(feasible_.size());
    out.back.resize(feasible_.size());
    for (std::size_t i = 0; i < feasible_.size(); ++i) {
      const std::uint32_t s = feasible_[i];
      out.cost[i] = cost_[s];
      out.back[i] = back_[s];
      cost_[s] = kInf;
    }
    feasible_.clear();
  }

  /// Dense per-key minimum g (`best`, all-∞ between projections: each
  /// resets exactly the keys it touched) and its child signature (`arg`)
  /// for projecting one child table.
  struct Projection {
    std::span<double> best;
    std::span<std::uint32_t> arg;
  };
  Projection projection() const { return {best_, arg_}; }
  /// Reused per-child key lists of the node being built.
  std::vector<ProjectedKey>& keys(std::size_t child) { return keys_[child]; }
  /// Reused pairing scratch of the node being built.
  PairIndex& pairs() { return pairs_; }

  std::size_t bytes_reserved() const { return arena_.bytes_reserved(); }

 private:
  Arena arena_;
  std::span<double> cost_;
  std::span<Back> back_;
  std::span<double> best_;
  std::span<std::uint32_t> arg_;
  std::vector<std::uint32_t> feasible_;  // ids set in cost_, unsorted
  std::vector<ProjectedKey> keys_[2];
  DominanceIndex dominance_;
  PairIndex pairs_;
};

// ---------------------------------------------------------------------------
// Clean-subtree reuse (incremental re-solve).
//
// A node's DP table is a pure function of its binarized subtree's content
// (rounded leaf demands, edge weights, uncuttable flags, shape) plus the
// signature-space parameters.  We hash that content bottom-up (SplitMix64
// finalizer mixing); a node whose hash — and every descendant's — is found
// in a compatible DpReuseStore takes the stored table by pointer: the same
// immutable compact table a built node keeps.  Everything else builds
// normally, so the sweep stays a single children-before-parents pass that
// dispatches through process() instead of build_node().
//
// Bit-identity: stored entries were compacted+pruned exactly as a fresh
// build would compact+prune them (the store pins the prune flag and
// units_per_capacity).  A different demand *total* can only change the
// per-level bounds min(capacity_j, total), which are all SignatureSpace
// reads; when they agree the spaces are identical and stored ids are
// valid as they are.  When they differ, stored ids are translated by
// decoding against the capturing space and re-interning (translation is
// monotone in the lex enumeration, so sorted feasible arrays stay sorted,
// and clean-subtree demands — bounded by the unchanged subtree demand sum
// ≤ both totals — always re-intern successfully; an npos can only mean a
// hash collision and demotes the node to a rebuild).

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t x) {
  return mix64(h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

}  // namespace

std::vector<std::uint64_t> dp_subtree_hashes(const Tree& bt,
                                             const ScaledDemands& sd) {
  const auto n = static_cast<std::size_t>(bt.node_count());
  std::vector<std::uint64_t> hash(n, 0);
  const std::vector<Vertex>& pre = bt.preorder();
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const Vertex v = *it;
    const auto vi = static_cast<std::size_t>(v);
    const auto kids = bt.children(v);
    if (kids.empty()) {
      hash[vi] = hash_combine(
          0x6c656166ull,  // leaf tag
          static_cast<std::uint64_t>(sd.units[vi]));
      continue;
    }
    std::uint64_t h = hash_combine(0x696e6e6572ull,  // internal tag
                                   static_cast<std::uint64_t>(kids.size()));
    for (const Vertex c : kids) {
      const auto ci = static_cast<std::size_t>(c);
      const bool inf = bt.parent_edge_infinite(c);
      h = hash_combine(h, hash[ci]);
      h = hash_combine(h, inf ? 1u : 0u);
      h = hash_combine(
          h, inf ? 0 : std::bit_cast<std::uint64_t>(bt.parent_weight(c)));
    }
    hash[vi] = h;
  }
  return hash;
}

namespace {

/// The subtree hashes of one solve, and how many clean nodes took a table
/// re-interned from the store's space.
struct ReusePlan {
  std::vector<std::uint64_t> hash;
  std::size_t translated = 0;
};

/// Sets `tables[v]` (all null on entry) to the stored table, already in
/// the *current* space, of every node v whose subtree is clean; the sweep
/// then builds only the nodes left null.
ReusePlan make_reuse_plan(const Tree& bt, const ScaledDemands& sd,
                          const SignatureSpace& space, int height,
                          bool prune, const DpReuseStore* store,
                          std::vector<TablePtr>& tables) {
  ReusePlan plan;
  plan.hash = dp_subtree_hashes(bt, sd);
  const bool usable = store != nullptr && !store->entries.empty() &&
                      store->height == height && store->prune == prune &&
                      store->units_per_capacity == sd.units_per_capacity &&
                      store->capacity == sd.capacity;
  if (!usable) return plan;

  // The space is a function of its per-level bounds alone.
  bool same_space = true;
  for (int j = 1; j <= height; ++j) {
    same_space = same_space &&
               space.level_bound(j) ==
                   std::min(store->capacity[static_cast<std::size_t>(j)],
                            store->total);
  }
  std::optional<SignatureSpace> old_space;
  std::unordered_map<std::size_t, std::size_t> id_map;
  // One translated table per stored entry, shared by every node hashing to
  // it; nullptr caches a failed translation.
  std::unordered_map<std::uint64_t, TablePtr> translated;
  if (!same_space) {
    ScaledDemands old_sd;
    old_sd.units_per_capacity = store->units_per_capacity;
    old_sd.total = store->total;
    old_sd.capacity = store->capacity;
    old_space.emplace(old_sd, height);
  }
  auto translate_id = [&](std::uint32_t old_id) -> std::size_t {
    if (old_id >= old_space->size()) return SignatureSpace::npos;
    const auto it = id_map.find(old_id);
    if (it != id_map.end()) return it->second;
    Signature d(static_cast<std::size_t>(height));
    for (int j = 1; j <= height; ++j) {
      d[static_cast<std::size_t>(j - 1)] = old_space->level(old_id, j);
    }
    const std::size_t nid = space.id_of(d, old_space->present(old_id));
    id_map.emplace(old_id, nid);
    return nid;
  };
  auto translate = [&](const DpSubtreeEntry& e) -> TablePtr {
    auto out = std::make_shared<DpSubtreeEntry>();
    out->feasible.reserve(e.feasible.size());
    out->cost = e.cost;
    out->back.reserve(e.back.size());
    for (std::size_t i = 0; i < e.feasible.size(); ++i) {
      const std::size_t f = translate_id(e.feasible[i]);
      Back b = e.back[i];
      bool ok = f != SignatureSpace::npos;
      if (ok && b.sig1 != kNoSig) {
        const std::size_t t = translate_id(b.sig1);
        ok = t != SignatureSpace::npos;
        if (ok) b.sig1 = narrow<std::uint32_t>(t);
      }
      if (ok && b.sig2 != kNoSig) {
        const std::size_t t = translate_id(b.sig2);
        ok = t != SignatureSpace::npos;
        if (ok) b.sig2 = narrow<std::uint32_t>(t);
      }
      if (!ok) return nullptr;
      out->feasible.push_back(narrow<std::uint32_t>(f));
      out->back.push_back(b);
    }
    return out;
  };
  auto resolve = [&](std::uint64_t h) -> TablePtr {
    const auto sit = store->entries.find(h);
    if (sit == store->entries.end()) return nullptr;
    if (same_space) return sit->second;
    const auto [tit, fresh] = translated.try_emplace(h);
    if (fresh) tit->second = translate(*sit->second);
    if (tit->second != nullptr) ++plan.translated;
    return tit->second;
  };

  const std::vector<Vertex>& pre = bt.preorder();
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const Vertex v = *it;
    const auto vi = static_cast<std::size_t>(v);
    bool kids_hit = true;
    for (const Vertex c : bt.children(v)) {
      kids_hit = kids_hit && tables[static_cast<std::size_t>(c)] != nullptr;
    }
    if (kids_hit) tables[vi] = resolve(plan.hash[vi]);
  }
  return plan;
}

// Cost accounting.  The solution's mirror regions partition (a subset of)
// the tree nodes into disjoint connected regions per level, nested across
// levels; the objective Σ_S w(δ(N(S))) · Δ_k/2 charges every edge Δ_k/2
// once per level-k region it borders.  For the edge above child c (cut
// level j_c, presence p_c) under a parent with presence depth p_v:
//   * closing charge: the child-side regions at levels (j_c, p_c] close
//     here, each putting the edge on its boundary → PS[p_c] − PS[j_c];
//   * surviving charge: the parent-side regions at levels (kept_c, p_v]
//     (kept_c = min(j_c, p_c)) do not continue into c → PS[p_v] − PS[kept_c];
// with PS[j] = Σ_{k≤j} Δ_k/2.  Uncuttable (dummy) edges must never border a
// region — a dummy *is* its original node — which forces j_c = p_c = p_v.
//
// With presence depths the DP's region space is exactly "disjoint connected
// node sets per level, covering all leaves, nested, demand ≤ CPs" — the
// canonical mirror regions of any RHGPT solution (components of
// T ∖ CUT_T(S), Definition 5) are of this form, so the DP optimum equals
// the Definition-4 objective (Σ of independent minimum separators) over the
// rounded demands, as Theorem 4 requires.
struct DpEngine {
  const Tree& bt;
  const SignatureSpace& space;
  const ScaledDemands& sd;
  const std::vector<double>& ps;
  bool prune;
  /// One table per node; a clean node's is set (shared from the reuse
  /// store) before the sweep starts.
  std::vector<TablePtr>& tables;

  /// Node dispatch: a clean node keeps the table it already points to,
  /// every other node is built by merging.  Bit-identical either way.
  void process(Vertex v, DpScratch& scratch, TreeDpStats& stats,
               PeriodicCheck& guard) const {
    const auto vi = static_cast<std::size_t>(v);
    if (tables[vi] != nullptr) {
      guard.tick();
      ++stats.nodes_reused;
    } else {
      build_node(v, scratch, stats, guard);
      ++stats.nodes_built;
    }
    stats.feasible_states += tables[vi]->feasible.size();
  }

  /// Projects child table `ct` (edge weight `w`; `uncut` = dummy edge,
  /// cut only at j = p) onto its distinct masked-prefix keys, ascending by
  /// key id.  The merge reads a child state cut at j only through
  /// (D^(1..j), j) and the closing charge w·(PS[p] − PS[j]) is the child's
  /// own, so the minimum over states sharing a key can be taken before
  /// pairing.  Ties keep the smallest state id (ascending walk, strict <).
  void project(const NodeTable& ct, bool uncut, Weight w,
               const DpScratch& scratch,
               std::vector<ProjectedKey>& out) const {
    const auto [best, arg] = scratch.projection();
    out.clear();
    for (std::size_t i = 0; i < ct.feasible.size(); ++i) {
      const std::uint32_t s = ct.feasible[i];
      const int p = space.present(s);
      for (int j = uncut ? p : 0; j <= p; ++j) {
        const std::size_t key = space.lift(s, j, j);
        const double g = ct.cost[i] + w * (ps[static_cast<std::size_t>(p)] -
                                           ps[static_cast<std::size_t>(j)]);
        if (g < best[key]) {
          if (best[key] == kInf) {
            out.push_back({narrow<std::uint32_t>(key), s, g});
          }
          best[key] = g;
          arg[key] = s;
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const ProjectedKey& a, const ProjectedKey& b) {
                return a.key < b.key;
              });
    for (ProjectedKey& k : out) {
      k.sig = arg[k.key];
      k.g = best[k.key];
      k.pack = space.prefix_pack(k.key);
      best[k.key] = kInf;
    }
  }

  void build_node(Vertex v, DpScratch& scratch, TreeDpStats& stats,
                  PeriodicCheck& guard) const {
    const int height = space.height();
    guard.tick();
    scratch.begin();

    const auto kids = bt.children(v);
    if (kids.empty()) {
      const std::size_t sig =
          space.uniform_id(sd.units[static_cast<std::size_t>(v)]);
      if (sig == SignatureSpace::npos) {
        throw SolveError(StatusCode::kInfeasible,
                         "leaf demand exceeds a level capacity");
      }
      scratch.relax(sig, 0.0, Back{});
    } else if (kids.size() == 1) {
      const Vertex c = kids[0];
      const bool uncut = bt.parent_edge_infinite(c);
      const Weight w = uncut ? 0 : bt.parent_weight(c);
      std::vector<ProjectedKey>& keys = scratch.keys(0);
      project(*tables[static_cast<std::size_t>(c)], uncut, w, scratch, keys);
      for (const ProjectedKey& k1 : keys) {
        const int j1 = space.present(k1.key);
        // Parent presence: at least the kept prefix, optionally extended
        // by phantom regions entering from above; a dummy edge pins it.
        const int pv_hi = uncut ? j1 : height;
        for (int pv = j1; pv <= pv_hi; ++pv) {
          const std::size_t up = space.lift(k1.key, j1, pv);
          HGP_ASSERT(up != SignatureSpace::npos);
          scratch.relax(up,
                        k1.g + w * (ps[static_cast<std::size_t>(pv)] -
                                    ps[static_cast<std::size_t>(j1)]),
                        Back{k1.sig, kNoSig, narrow<std::int8_t>(j1), -1});
          ++stats.merge_operations;
          guard.tick();
        }
      }
    } else {
      HGP_CHECK_MSG(kids.size() == 2, "tree must be binarized");
      const NodeTable& t1 = *tables[static_cast<std::size_t>(kids[0])];
      const NodeTable& t2 = *tables[static_cast<std::size_t>(kids[1])];
      const bool inf1 = bt.parent_edge_infinite(kids[0]);
      const bool inf2 = bt.parent_edge_infinite(kids[1]);
      const Weight w1 = inf1 ? 0 : bt.parent_weight(kids[0]);
      const Weight w2 = inf2 ? 0 : bt.parent_weight(kids[1]);
      std::vector<ProjectedKey>& keys1 = scratch.keys(0);
      std::vector<ProjectedKey>& keys2 = scratch.keys(1);
      project(t1, inf1, w1, scratch, keys1);
      project(t2, inf2, w2, scratch, keys2);
      // Parent presence: at least the kept prefixes, optionally extended
      // by phantom regions entering from above; dummy edges pin it to the
      // child's presence.
      auto pv_range = [&](int j1, int j2) {
        int lo = std::max(j1, j2);
        int hi = height;
        if (inf1) lo = hi = j1;
        if (inf2) {
          lo = std::max(lo, j2);
          hi = std::min(hi, j2);
        }
        return std::pair{lo, hi};
      };
      // Every key pair counts its pv steps in merge_operations; the steps
      // of capacity-incompatible pairs are never visited and count as
      // rejected.
      PairIndex& pairs = scratch.pairs();
      pairs.build(space, keys1, keys2, pv_range);
      for (const ProjectedKey& k1 : keys1) {
        const int j1 = space.present(k1.key);
        std::size_t visited = 0;
        pairs.for_each_compatible(space, keys2, k1.key, [&](std::size_t i) {
          const ProjectedKey& k2 = keys2[i];
          const int j2 = space.present(k2.key);
          const double g12 = k1.g + k2.g;
          const auto [pv_lo, pv_hi] = pv_range(j1, j2);
          for (int pv = pv_lo; pv <= pv_hi; ++pv) {
            const std::size_t up = space.merge_packed(k1.pack, k2.pack, pv);
            HGP_ASSERT(up == space.merge(k1.key, j1, k2.key, j2, pv));
            ++visited;
            guard.tick();
            const double ps_v = ps[static_cast<std::size_t>(pv)];
            scratch.relax(
                up,
                g12 + w1 * (ps_v - ps[static_cast<std::size_t>(j1)]) +
                    w2 * (ps_v - ps[static_cast<std::size_t>(j2)]),
                Back{k1.sig, k2.sig, narrow<std::int8_t>(j1),
                     narrow<std::int8_t>(j2)});
          }
        });
        stats.merge_operations += pairs.steps(j1);
        stats.merges_rejected += pairs.steps(j1) - visited;
      }
    }
    if (prune) stats.states_pruned += scratch.prune_dominated();
    auto table = std::make_shared<NodeTable>();
    scratch.compact(*table);
    tables[static_cast<std::size_t>(v)] = std::move(table);
  }
};

}  // namespace

TreeDpResult solve_rhgpt(const Tree& t, const Hierarchy& h,
                         const TreeDpOptions& opt) {
  const int height = h.height();
  TreeDpResult result;
  HGP_TRACE_SPAN_ARG("dp.solve", t.leaf_count());
  if (opt.exec != nullptr) opt.exec->check("tree DP setup");
  PeriodicCheck guard(opt.exec, "tree DP merge loop", 4096);

  // 1. Binarize and round demands (leaf demands are identical after
  //    binarization, only node ids differ).
  const BinarizedTree bin = binarize(t);
  const Tree& bt = bin.tree;
  const ScaledDemands sd =
      scale_demands(bt, h, opt.epsilon, opt.units_override);
  require_rounded_total_fits({sd.units_per_capacity, sd.total,
                              sd.capacity_at(0)});

  // 2. Signature space and the Δ/2 prefix sums.
  const SignatureSpace space(sd, height);
  result.stats.signature_count = space.size();
  std::vector<double> ps(static_cast<std::size_t>(height) + 1, 0.0);
  for (int k = 1; k <= height; ++k) {
    ps[static_cast<std::size_t>(k)] =
        ps[static_cast<std::size_t>(k - 1)] + (h.cm(k - 1) - h.cm(k)) / 2.0;
  }

  // 3. Bottom-up DP: one children-before-parents sweep over one scratch.
  //    Every node keeps its compact table until the solve ends.
  std::vector<TablePtr> tables(static_cast<std::size_t>(bt.node_count()));
  const bool prune = opt.prune_dominated;
  std::optional<ReusePlan> reuse_plan;
  if (opt.reuse_in != nullptr || opt.reuse_out != nullptr) {
    reuse_plan.emplace(make_reuse_plan(bt, sd, space, height, prune,
                                       opt.reuse_in, tables));
  }
  const DpEngine engine{bt, space, sd, ps, prune, tables};
  {
    DpScratch scratch(space);
    for (auto it = bt.preorder().rbegin(); it != bt.preorder().rend();
         ++it) {
      engine.process(*it, scratch, result.stats, guard);
    }
    result.stats.arena_bytes = scratch.bytes_reserved();
  }

  // 4. Pick the best root signature.
  const NodeTable& root_table = *tables[static_cast<std::size_t>(bt.root())];
  std::size_t best_sig = SignatureSpace::npos;
  double best_cost = kInf;
  for (std::size_t i = 0; i < root_table.feasible.size(); ++i) {
    if (root_table.cost[i] < best_cost) {
      best_cost = root_table.cost[i];
      best_sig = root_table.feasible[i];
    }
  }
  if (best_sig == SignatureSpace::npos) {
    throw SolveError(StatusCode::kInfeasible,
                     "no feasible RHGPT solution (capacities too tight for "
                     "the rounded demands)");
  }
  result.cost = best_cost;

  // 5. Reconstruct the family of collections by replaying back-pointers
  //    top-down.  active[k-1] = index of the (v,k)-active set within
  //    sets[k] (allocated for every present level; phantom regions that
  //    never absorb a leaf are filtered at the end), or -1 when absent.
  RhgptSolution& sol = result.solution;
  sol.sets.assign(static_cast<std::size_t>(height) + 1, {});
  sol.dp_cost = best_cost;
  sol.sets[0].emplace_back();  // the single level-0 set

  auto new_set = [&](int level) {
    sol.sets[static_cast<std::size_t>(level)].emplace_back();
    return narrow<int>(sol.sets[static_cast<std::size_t>(level)].size() - 1);
  };

  std::vector<int> root_active(static_cast<std::size_t>(height), -1);
  for (int j = 1; j <= space.present(best_sig); ++j) {
    root_active[static_cast<std::size_t>(j - 1)] = new_set(j);
  }

  // Kept child regions join the parent's region; regions above the kept
  // prefix close into fresh sets (the merge() semantics of Claim 1).
  auto child_active = [&](std::size_t child_sig, int cut_level,
                          const std::vector<int>& parent_active) {
    std::vector<int> active(static_cast<std::size_t>(height), -1);
    const int pc = space.present(child_sig);
    const int kept = std::min(cut_level, pc);
    for (int k = 1; k <= pc; ++k) {
      if (k <= kept) {
        HGP_ASSERT(parent_active[static_cast<std::size_t>(k - 1)] >= 0);
        active[static_cast<std::size_t>(k - 1)] =
            parent_active[static_cast<std::size_t>(k - 1)];
      } else {
        active[static_cast<std::size_t>(k - 1)] = new_set(k);
      }
    }
    return active;
  };

  auto rec = [&](auto&& self, Vertex v, std::uint32_t sig,
                 const std::vector<int>& active) -> void {
    const auto kids = bt.children(v);
    if (kids.empty()) {
      const Vertex orig = bin.original_of[static_cast<std::size_t>(v)];
      HGP_ASSERT(orig != kInvalidVertex && t.is_leaf(orig));
      sol.sets[0][0].push_back(orig);
      for (int j = 1; j <= height; ++j) {
        const int id = active[static_cast<std::size_t>(j - 1)];
        HGP_ASSERT(id >= 0);  // leaves are present at every level
        sol.sets[static_cast<std::size_t>(j)][static_cast<std::size_t>(id)]
            .push_back(orig);
      }
      return;
    }
    const Back& back = lookup(*tables[static_cast<std::size_t>(v)], sig);
    self(self, kids[0], back.sig1,
         child_active(back.sig1, back.j1, active));
    if (kids.size() == 2) {
      self(self, kids[1], back.sig2,
           child_active(back.sig2, back.j2, active));
    }
  };
  rec(rec, bt.root(), narrow<std::uint32_t>(best_sig), root_active);

  // Drop phantom sets (regions that never absorbed a leaf) and sort.
  for (auto& level : sol.sets) {
    level.erase(std::remove_if(level.begin(), level.end(),
                               [](const std::vector<Vertex>& s) {
                                 return s.empty();
                               }),
                level.end());
    for (auto& set : level) std::sort(set.begin(), set.end());
  }

  // Demand scaling re-indexed by original tree nodes for the caller.
  result.scaled.units_per_capacity = sd.units_per_capacity;
  result.scaled.total = sd.total;
  result.scaled.capacity = sd.capacity;
  result.scaled.units.assign(static_cast<std::size_t>(t.node_count()), 0);
  for (Vertex b = 0; b < bt.node_count(); ++b) {
    const Vertex orig = bin.original_of[static_cast<std::size_t>(b)];
    if (orig != kInvalidVertex && bt.is_leaf(b)) {
      result.scaled.units[static_cast<std::size_t>(orig)] =
          sd.units[static_cast<std::size_t>(b)];
    }
  }

  // 6. Hand this solve's subtree tables to the caller so the next
  //    incremental solve can skip clean subtrees.  Only successful solves
  //    populate the store (the assembly sits after the feasibility throw).
  //    The store takes the tables' pointers: a clean node's is the very
  //    entry reuse_in holds.
  if (opt.reuse_out != nullptr) {
    DpReuseStore& store = *opt.reuse_out;
    store.height = height;
    store.prune = prune;
    store.units_per_capacity = sd.units_per_capacity;
    store.total = sd.total;
    store.capacity = sd.capacity;
    store.entries.clear();
    store.entries.reserve(tables.size());
    for (Vertex v = 0; v < bt.node_count(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      store.entries.insert_or_assign(reuse_plan->hash[vi],
                                     std::move(tables[vi]));
    }
  }
  publish_dp_metrics(result.stats, reuse_plan ? reuse_plan->translated : 0,
                     bt, sd);
  return result;
}

}  // namespace hgp
