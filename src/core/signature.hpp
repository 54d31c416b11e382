// Signatures of DP subproblems (Definition 8) and their consistency
// algebra (Definition 9).
//
// A signature of node v describes the (v,j)-active sets — the sets whose
// mirror regions contain v:
//   * D^(j) = demand (in units) of the (v,j)-active set *inside* SUB(v),
//     for j in [1,h].  Corollary 1 forces D^(1) ≥ … ≥ D^(h) ≥ 0 and
//     capacity requires D^(j) ≤ CPs[j].
//   * p ∈ [0,h] = the *presence depth*: levels 1..p have an active region
//     at v.  Levels with D > 0 are necessarily present (so p ≥ support(D)),
//     but a region may pass through v carrying no demand from SUB(v) at
//     all (D = 0 yet present) — the paper's mirror sets N(S) routinely
//     extend through demand-free internal nodes, and Definition 8's
//     induced solutions make exactly this distinction.  Without it the DP
//     cannot price region boundaries correctly.
//
// SignatureSpace enumerates every (D, p) pair once per (hierarchy, demand
// scale) and interns them to dense ids; the merge derives the parent id
// arithmetically.
//
// Performance: the interned tables (demand tuples, supports, masked-prefix
// pack keys, the pack→tuple index) live in a single Arena owned by the
// space — one allocation burst at construction, contiguous in memory.
// merge()/lift() are allocation-free: because the mixed-radix packing is
// linear in the demand tuple and a (j1,j2)-consistent merge never carries
// a digit past its radix (capacity is checked first), the merged tuple's
// pack key is just the SUM of the two children's masked-prefix keys, all
// precomputed.  The construction-time enumeration is the only code that
// materializes tuples.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/demand.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace hgp {

/// D^(1..h) in demand units.
using Signature = std::vector<DemandUnits>;

class SignatureSpace {
 public:
  /// `scaled`: capacities from scale_demands (only capacity[] and total are
  /// read); `height`: h of the hierarchy.
  SignatureSpace(const ScaledDemands& scaled, int height);

  // The interned tables are spans into the member arena; copying would
  // leave the copy pointing into the original's storage.
  SignatureSpace(const SignatureSpace&) = delete;
  SignatureSpace& operator=(const SignatureSpace&) = delete;
  SignatureSpace(SignatureSpace&&) = default;
  SignatureSpace& operator=(SignatureSpace&&) = default;

  int height() const { return height_; }
  std::size_t size() const { return count_; }

  /// Demand of the level-j active set under signature `id` (j in [1, h]).
  DemandUnits level(std::size_t id, int j) const {
    HGP_ASSERT(id < count_);
    return demands_[(id / static_cast<std::size_t>(height_ + 1)) *
                        static_cast<std::size_t>(height_) +
                    static_cast<std::size_t>(j - 1)];
  }

  /// Presence depth p: active regions exist at levels 1..p.
  int present(std::size_t id) const {
    HGP_ASSERT(id < count_);
    return static_cast<int>(id % static_cast<std::size_t>(height_ + 1));
  }

  /// Deepest level with positive demand (0 for the all-zero tuple).
  int support(std::size_t id) const {
    HGP_ASSERT(id < count_);
    return support_[id / static_cast<std::size_t>(height_ + 1)];
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Dense id of (D, p); npos if invalid (monotonicity, capacity, or
  /// p < support).
  std::size_t id_of(const Signature& d, int present) const;

  /// Absent everywhere: D = 0, p = 0.
  std::size_t zero_id() const { return zero_id_; }

  /// Leaf base case: D = (units,…,units), present at every level.
  std::size_t uniform_id(DemandUnits units) const;

  /// Definition 9 merge: children a (cut above level j1) and b (cut above
  /// j2) under a parent whose presence depth is `present` (levels above the
  /// kept prefixes may be phantom regions entering from the parent side).
  /// Requires present ≥ max(min(j1, p_a), min(j2, p_b)); returns npos if
  /// that fails or a capacity overflows.
  std::size_t merge(std::size_t a, int j1, std::size_t b, int j2,
                    int present) const;

  /// Pack key of `id`'s demand tuple masked above its presence, i.e. of
  /// the projected DP key (D^(1..p), p) with p = present(id).
  std::size_t prefix_pack(std::size_t id) const {
    return prefix_key(tuple_of(id), present(id));
  }

  /// merge(a, present(a), b, present(b), present) from the prefix packs of
  /// two keys whose demands fit every level bound together; skips the
  /// capacity check, which such a pair passes (the packing is linear).
  std::size_t merge_packed(std::size_t pack_a, std::size_t pack_b,
                           int present) const {
    const std::size_t tuple = pack_to_tuple_[pack_a + pack_b];
    HGP_ASSERT(tuple != npos);
    return compose(tuple, present);
  }

  /// Single-child variant.
  std::size_t lift(std::size_t a, int j1, int present) const;

  /// Maximum level demand: bound[j] = min(CPs[j], total), j in [1,h].
  DemandUnits level_bound(int j) const {
    return bound_[static_cast<std::size_t>(j - 1)];
  }

  /// Audits a (D, p) pair directly: Corollary 1 monotonicity
  /// D^(1) ≥ … ≥ D^(h) ≥ 0, capacity D^(j) ≤ level_bound(j), and presence
  /// p ∈ [support, h].  Unlike id_of (which returns npos so the DP can
  /// prune), a violation here throws SolveError{kInternal} — use at seams
  /// and in tests against deliberately corrupted tuples.
  void validate(const Signature& d, int present) const;

  /// Same audit on an interned id (also rejects out-of-range ids and ids
  /// whose presence depth is shallower than their demand support).
  void validate(std::size_t id) const;

  /// Arena bytes backing the interned tables (for memory diagnostics).
  std::size_t interned_bytes() const { return arena_.bytes_in_use(); }

 private:
  std::size_t pack(const Signature& d) const;
  std::size_t compose(std::size_t tuple_index, int present) const {
    return tuple_index * static_cast<std::size_t>(height_ + 1) +
           static_cast<std::size_t>(present);
  }
  std::size_t tuple_of(std::size_t id) const {
    return id / static_cast<std::size_t>(height_ + 1);
  }
  /// Pack key of the masked prefix (D^(1..kept), 0, …, 0) of a tuple.
  std::size_t prefix_key(std::size_t tuple_index, int kept) const {
    return prefix_key_[tuple_index * static_cast<std::size_t>(height_ + 1) +
                       static_cast<std::size_t>(kept)];
  }

  int height_;
  std::size_t count_ = 0;                // tuples × (h+1)
  std::vector<DemandUnits> bound_;       // per level 1..h
  std::vector<DemandUnits> stride_;      // mixed-radix packing strides
  // Interned tables, allocated from `arena_` in one burst at construction.
  Arena arena_;
  std::span<DemandUnits> demands_;       // tuple_index → D^(1..h), flattened
  std::span<int> support_;               // per tuple_index
  std::span<std::size_t> prefix_key_;    // tuple_index → key per kept 0..h
  std::span<std::size_t> pack_to_tuple_;  // packed key → tuple_index
  std::size_t zero_id_ = npos;
};

/// Free-function spelling of the signature audits, matching
/// validate_hierarchy / validate_placement at the seams.
inline void validate_signature(const SignatureSpace& space, std::size_t id) {
  space.validate(id);
}
inline void validate_signature(const SignatureSpace& space, const Signature& d,
                               int present) {
  space.validate(d, present);
}

}  // namespace hgp
