#include "decomp/cutter.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/mincut.hpp"
#include "graph/spectral.hpp"
#include "obs/obs.hpp"

namespace hgp {

namespace {

double demand_or_unit(const Graph& g, Vertex v) {
  return g.has_demands() ? g.demand(v) : 1.0;
}

}  // namespace

std::vector<char> SpectralCutter::cut(const Graph& g, Rng& rng) const {
  return spectral_bisect(g, rng);
}

std::vector<char> RandomCutter::cut(const Graph& g, Rng& rng) const {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(n >= 2);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<char> side(n, 0);
  for (std::size_t i = 0; i < n / 2; ++i) side[order[i]] = 1;
  return side;
}

Weight fm_refine_kernel(const Graph& g, std::vector<char>& side, int passes,
                        const std::function<bool(double)>& rejects) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(side.size() == n);

  auto gain_of = [&](Vertex v) {
    Weight same = 0, other = 0;
    for (const HalfEdge& h : g.neighbors(v)) {
      if (side[static_cast<std::size_t>(h.to)] ==
          side[static_cast<std::size_t>(v)]) {
        same += h.weight;
      } else {
        other += h.weight;
      }
    }
    return other - same;
  };

  // A max-heap of (gain, vertex) entries by gain descending, then id
  // ascending.  An entry is current while its vertex is unlocked and the
  // gain still equals the cached one; stale entries are dropped when they
  // surface, so the current entries pop in exactly the order of the rule
  // "highest gain, smallest id".  A gain that is NaN or -inf never wins a
  // strict `>` against -inf, so such a vertex is never picked and gets no
  // entry (which also keeps the order strict).
  struct Entry {
    Weight gain;
    Vertex v;
  };
  const auto below = [](const Entry& a, const Entry& b) {
    return a.gain < b.gain || (a.gain == b.gain && a.v > b.v);
  };
  std::vector<Weight> gain(n);
  std::vector<char> locked(n);
  std::vector<Entry> heap, skipped;
  const auto push = [&](Vertex v) {
    const Weight gv = gain[static_cast<std::size_t>(v)];
    if (!(gv > -std::numeric_limits<Weight>::infinity())) return;
    heap.push_back(Entry{gv, v});
    std::push_heap(heap.begin(), heap.end(), below);
  };

  double load1 = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    if (side[static_cast<std::size_t>(v)]) load1 += demand_or_unit(g, v);
  }
  std::vector<Vertex> moves;
  moves.reserve(n);
  Weight cut = g.cut_weight(side);
  // Far above the running cut's rounding error, far below any weight.
  const Weight floor_margin = 1e-9 * g.total_edge_weight();
  for (int pass = 0; pass < passes; ++pass) {
    locked.assign(n, 0);
    moves.clear();
    heap.clear();
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      gain[static_cast<std::size_t>(v)] = gain_of(v);
      push(v);
    }
    Weight best_cut = cut;
    std::size_t best_moves = 0;
    Weight running = cut;
    double running_load1 = load1;
    // Cut weight between locked vertices: they never move again this pass,
    // so every later prefix cuts at least this much.  Once it exceeds
    // best_cut by the margin no later prefix can win, and the moves the
    // pass would still make are all rolled back: end it there.
    Weight locked_cut = 0;
    for (;;) {
      // Pop to the first current entry whose move is admissible; the
      // inadmissible ones go back afterwards.
      Vertex pick = kInvalidVertex;
      while (pick == kInvalidVertex && !heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), below);
        const Entry top = heap.back();
        heap.pop_back();
        const auto v = static_cast<std::size_t>(top.v);
        if (locked[v] || !(top.gain == gain[v])) continue;
        const double d = demand_or_unit(g, top.v);
        const double new_load1 =
            side[v] ? running_load1 - d : running_load1 + d;
        if (rejects(new_load1)) {
          skipped.push_back(top);
        } else {
          pick = top.v;
        }
      }
      for (const Entry& e : skipped) {
        heap.push_back(e);
        std::push_heap(heap.begin(), heap.end(), below);
      }
      skipped.clear();
      if (pick == kInvalidVertex) break;
      const double d = demand_or_unit(g, pick);
      running_load1 += side[static_cast<std::size_t>(pick)] ? -d : d;
      side[static_cast<std::size_t>(pick)] ^= 1;
      locked[static_cast<std::size_t>(pick)] = 1;
      moves.push_back(pick);
      running -= gain[static_cast<std::size_t>(pick)];
      if (running < best_cut - 1e-12) {
        best_cut = running;
        best_moves = moves.size();
      }
      // Only the moved vertex's neighbours see a side change, so only their
      // gains move; each is recomputed in full, as a rescan would.
      for (const HalfEdge& h : g.neighbors(pick)) {
        const auto to = static_cast<std::size_t>(h.to);
        if (locked[to]) {
          if (side[to] != side[static_cast<std::size_t>(pick)]) {
            locked_cut += h.weight;
          }
          continue;
        }
        gain[to] = gain_of(h.to);
        push(h.to);
      }
      if (locked_cut > best_cut + floor_margin) {
        HGP_COUNTER_ADD("decomp.fm_floor_stops", 1);
        break;
      }
    }
    // Roll back the moves after the best prefix.
    for (std::size_t i = moves.size(); i > best_moves; --i) {
      side[static_cast<std::size_t>(moves[i - 1])] ^= 1;
    }
    cut = best_cut;
    load1 = 0;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (side[static_cast<std::size_t>(v)]) load1 += demand_or_unit(g, v);
    }
    if (best_moves == 0) break;
  }
  return cut;
}

Weight fm_refine(const Graph& g, std::vector<char>& side, int passes,
                 double balance_floor) {
  HGP_CHECK(balance_floor >= 0.0 && balance_floor < 0.5);
  double total = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) total += demand_or_unit(g, v);
  const double floor_load = balance_floor * total;
  return fm_refine_kernel(g, side, passes, [&](double new_load1) {
    return new_load1 < floor_load || total - new_load1 < floor_load;
  });
}

std::vector<char> MinCutCutter::cut(const Graph& g, Rng& rng) const {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(n >= 2);
  if (g.edge_count() == 0) {
    // Min cut is 0 anywhere; fall back to an arbitrary balanced split.
    std::vector<char> side(n, 0);
    side[rng.next_below(n)] = 1;
    return side;
  }
  return global_min_cut(g).side;
}

std::vector<char> FmCutter::cut(const Graph& g, Rng& rng) const {
  std::vector<char> side = spectral_bisect(g, rng);
  fm_refine(g, side, passes_, balance_floor_);
  // FM never empties a side thanks to the balance floor, but guard the
  // degenerate two-vertex case anyway.
  bool any0 = false, any1 = false;
  for (char c : side) (c ? any1 : any0) = true;
  if (!any0 || !any1) {
    side.assign(side.size(), 0);
    side[0] = 1;
  }
  return side;
}

}  // namespace hgp
