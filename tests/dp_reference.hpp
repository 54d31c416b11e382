// Shared RHGPT references for test binaries: an exhaustive brute force
// and the pair-loop DP kernel.
//
// Enumerates EVERY relaxed solution on tiny instances — all partitions of
// the leaves at level 1, all refinements at deeper levels, capacity-checked
// in rounded units — and evaluates the Definition-4 objective with true
// minimum separators.  This pins the signature DP's optimality directly,
// with no shared code path and no reliance on the fan-out trick.  Used by
// the dedicated brute-force suite and as the exactness anchor of the
// randomized differential harness.  Exponential: keep instances ≤ ~6
// leaves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/rhgpt.hpp"
#include "core/signature.hpp"
#include "core/tree_dp.hpp"

namespace hgp::testref {

using SetList = std::vector<std::vector<Vertex>>;

/// All partitions of `items` whose blocks respect `max_units`.
inline void enumerate_partitions(
    const std::vector<Vertex>& items, const std::vector<DemandUnits>& units,
    DemandUnits max_units, const std::function<void(const SetList&)>& visit) {
  SetList current;
  std::vector<DemandUnits> load;
  auto rec = [&](auto&& self, std::size_t idx) -> void {
    if (idx == items.size()) {
      visit(current);
      return;
    }
    const Vertex item = items[idx];
    const DemandUnits u = units[static_cast<std::size_t>(item)];
    for (std::size_t b = 0; b < current.size(); ++b) {
      if (load[b] + u > max_units) continue;
      current[b].push_back(item);
      load[b] += u;
      self(self, idx + 1);
      load[b] -= u;
      current[b].pop_back();
    }
    if (u <= max_units) {
      current.push_back({item});
      load.push_back(u);
      self(self, idx + 1);
      current.pop_back();
      load.pop_back();
    }
  };
  rec(rec, 0);
}

/// Minimum Definition-4 cost over all solutions, by recursive refinement.
inline double brute_force_rhgpt(const Tree& t, const Hierarchy& h,
                                const ScaledDemands& sd) {
  double best = std::numeric_limits<double>::infinity();
  RhgptSolution sol;
  sol.sets.assign(static_cast<std::size_t>(h.height()) + 1, {});
  sol.sets[0] = {t.leaves()};

  auto rec = [&](auto&& self, int level) -> void {
    if (level > h.height()) {
      best = std::min(best, rhgpt_cost(t, h, sol));
      return;
    }
    // Refine every level-(level-1) set independently; enumerate the
    // cartesian product of their partitions.
    const SetList& parents = sol.sets[static_cast<std::size_t>(level - 1)];
    auto product = [&](auto&& pself, std::size_t pi) -> void {
      if (pi == parents.size()) {
        self(self, level + 1);
        return;
      }
      enumerate_partitions(
          parents[pi], sd.units, sd.capacity_at(level),
          [&](const SetList& blocks) {
            auto& lvl = sol.sets[static_cast<std::size_t>(level)];
            const std::size_t mark = lvl.size();
            lvl.insert(lvl.end(), blocks.begin(), blocks.end());
            pself(pself, pi + 1);
            lvl.resize(mark);
          });
    };
    product(product, 0);
  };
  rec(rec, 1);
  return best;
}

// ---------------------------------------------------------------------------
// Pair-loop DP kernel (the merge as written before the projected merge).
//
// A binary node pairs EVERY feasible child state s1 with EVERY feasible
// s2 and then loops over the cut levels (j1, j2) and the parent presence
// pv; a unary node lifts every (s1, j1, pv).  Leaves, dominance pruning
// and compaction are the production rules.  Only per-node tables and
// work counters are produced (no traceback), sequentially, without reuse.
// The production kernel must reach the same feasible signature set at
// every node, with the same costs up to summation-order rounding.

struct RefNodeTable {
  std::vector<std::uint32_t> feasible;  ///< sorted signature ids
  std::vector<double> cost;             ///< parallel to `feasible`
};

struct RefDpResult {
  std::vector<RefNodeTable> nodes;  ///< indexed by binarized node id
  double cost = std::numeric_limits<double>::infinity();  ///< root optimum
  std::size_t feasible_states = 0;
  std::size_t states_pruned = 0;
  std::size_t merge_operations = 0;
};

/// Runs the pair-loop kernel on the BINARIZED tree `bt` with the demand
/// rounding `sd` that solve_rhgpt derives for it.
inline RefDpResult reference_pair_loop_dp(const Tree& bt, const Hierarchy& h,
                                          const ScaledDemands& sd,
                                          bool prune) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int height = h.height();
  const SignatureSpace space(sd, height);
  std::vector<double> ps(static_cast<std::size_t>(height) + 1, 0.0);
  for (int k = 1; k <= height; ++k) {
    ps[static_cast<std::size_t>(k)] =
        ps[static_cast<std::size_t>(k - 1)] + (h.cm(k - 1) - h.cm(k)) / 2.0;
  }
  auto at = [](int level) { return static_cast<std::size_t>(level); };

  const auto n = static_cast<std::size_t>(bt.node_count());
  RefDpResult out;
  out.nodes.resize(n);
  std::vector<std::vector<double>> dense(n);
  for (auto it = bt.preorder().rbegin(); it != bt.preorder().rend(); ++it) {
    const Vertex v = *it;
    std::vector<double>& cost = dense[static_cast<std::size_t>(v)];
    cost.assign(space.size(), kInf);
    std::vector<std::uint32_t> feasible;
    auto relax = [&](std::size_t sig, double c) {
      if (c < cost[sig]) {
        if (cost[sig] == kInf) {
          feasible.push_back(static_cast<std::uint32_t>(sig));
        }
        cost[sig] = c;
      }
    };
    const auto kids = bt.children(v);
    if (kids.empty()) {
      relax(space.uniform_id(sd.units[static_cast<std::size_t>(v)]), 0.0);
    } else if (kids.size() == 1) {
      const Vertex c = kids[0];
      const std::vector<double>& cc = dense[static_cast<std::size_t>(c)];
      const bool uncut = bt.parent_edge_infinite(c);
      const Weight w = uncut ? 0 : bt.parent_weight(c);
      for (const std::uint32_t s1 :
           out.nodes[static_cast<std::size_t>(c)].feasible) {
        const int p1 = space.present(s1);
        for (int j1 = uncut ? p1 : 0; j1 <= p1; ++j1) {
          const double closing = w * (ps[at(p1)] - ps[at(j1)]);
          const int pv_lo = uncut ? p1 : j1;
          const int pv_hi = uncut ? p1 : height;
          for (int pv = pv_lo; pv <= pv_hi; ++pv) {
            const double surviving = w * (ps[at(pv)] - ps[at(j1)]);
            relax(space.lift(s1, j1, pv), cc[s1] + closing + surviving);
            ++out.merge_operations;
          }
        }
      }
    } else {
      const std::vector<double>& c1 = dense[static_cast<std::size_t>(kids[0])];
      const std::vector<double>& c2 = dense[static_cast<std::size_t>(kids[1])];
      const bool inf1 = bt.parent_edge_infinite(kids[0]);
      const bool inf2 = bt.parent_edge_infinite(kids[1]);
      const Weight w1 = inf1 ? 0 : bt.parent_weight(kids[0]);
      const Weight w2 = inf2 ? 0 : bt.parent_weight(kids[1]);
      for (const std::uint32_t s1 :
           out.nodes[static_cast<std::size_t>(kids[0])].feasible) {
        const int p1 = space.present(s1);
        for (const std::uint32_t s2 :
             out.nodes[static_cast<std::size_t>(kids[1])].feasible) {
          const int p2 = space.present(s2);
          const double base12 = c1[s1] + c2[s2];
          for (int j1 = inf1 ? p1 : 0; j1 <= p1; ++j1) {
            const double closing1 = w1 * (ps[at(p1)] - ps[at(j1)]);
            for (int j2 = inf2 ? p2 : 0; j2 <= p2; ++j2) {
              const double closing2 = w2 * (ps[at(p2)] - ps[at(j2)]);
              int pv_lo = std::max(j1, j2);
              int pv_hi = height;
              if (inf1) pv_lo = pv_hi = p1;
              if (inf2) {
                pv_lo = std::max(pv_lo, p2);
                pv_hi = std::min(pv_hi, p2);
              }
              for (int pv = pv_lo; pv <= pv_hi; ++pv) {
                const std::size_t up = space.merge(s1, j1, s2, j2, pv);
                ++out.merge_operations;
                if (up == SignatureSpace::npos) continue;
                const double surviving = w1 * (ps[at(pv)] - ps[at(j1)]) +
                                         w2 * (ps[at(pv)] - ps[at(j2)]);
                relax(up, base12 + closing1 + closing2 + surviving);
              }
            }
          }
        }
      }
    }
    if (prune) {
      // Same Pareto rule as production: walk by (cost, id); drop a state
      // when a cheaper kept state of its presence class has
      // componentwise-smaller demand.
      std::vector<std::uint32_t> order = feasible;
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return cost[a] != cost[b] ? cost[a] < cost[b] : a < b;
                });
      std::vector<std::vector<std::uint32_t>> kept(at(height) + 1);
      std::vector<std::uint32_t> survivors;
      for (const std::uint32_t s : order) {
        const std::size_t p = at(space.present(s));
        bool dominated = false;
        for (const std::uint32_t k : kept[p]) {
          bool leq = true;
          for (int j = 1; j <= height && leq; ++j) {
            leq = space.level(k, j) <= space.level(s, j);
          }
          if (leq) {
            dominated = true;
            break;
          }
        }
        if (!dominated) {
          kept[p].push_back(s);
          survivors.push_back(s);
        }
      }
      out.states_pruned += feasible.size() - survivors.size();
      feasible = std::move(survivors);
    }
    std::sort(feasible.begin(), feasible.end());
    RefNodeTable& table = out.nodes[static_cast<std::size_t>(v)];
    table.feasible = feasible;
    table.cost.reserve(feasible.size());
    for (const std::uint32_t s : feasible) table.cost.push_back(cost[s]);
    out.feasible_states += feasible.size();
  }
  const RefNodeTable& root = out.nodes[static_cast<std::size_t>(bt.root())];
  for (const double c : root.cost) out.cost = std::min(out.cost, c);
  return out;
}

}  // namespace hgp::testref
