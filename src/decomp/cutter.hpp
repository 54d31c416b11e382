// Bipartition heuristics ("cutters") used by the recursive decomposition
// builder.  A cutter splits a (connected or not) graph into two non-empty
// sides; the builder recurses on both.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace hgp {

/// Strategy interface.  Implementations must return both sides non-empty
/// for graphs with ≥ 2 vertices and be deterministic in `rng`.
class Cutter {
 public:
  virtual ~Cutter() = default;
  virtual std::vector<char> cut(const Graph& g, Rng& rng) const = 0;
  virtual std::string name() const = 0;
};

/// Fiedler-vector bisection balanced by demand (the default).
class SpectralCutter final : public Cutter {
 public:
  std::vector<char> cut(const Graph& g, Rng& rng) const override;
  std::string name() const override { return "spectral"; }
};

/// Random balanced split — the ablation baseline: structure-oblivious
/// trees show how much solution quality depends on tree cut quality.
class RandomCutter final : public Cutter {
 public:
  std::vector<char> cut(const Graph& g, Rng& rng) const override;
  std::string name() const override { return "random"; }
};

/// Spectral seed + Fiduccia–Mattheyses-style refinement passes: moves the
/// best-gain vertex between sides while keeping each side within
/// [balance_floor, 1-balance_floor] of the total demand.
class FmCutter final : public Cutter {
 public:
  explicit FmCutter(int passes = 4, double balance_floor = 0.25)
      : passes_(passes), balance_floor_(balance_floor) {}
  std::vector<char> cut(const Graph& g, Rng& rng) const override;
  std::string name() const override { return "spectral+fm"; }

 private:
  int passes_;
  double balance_floor_;
};

/// Recursive global-minimum-cut splitting (Stoer–Wagner).  Produces the
/// best-possible cut weight at every split but possibly extreme imbalance;
/// an instructive corner of the cutter ablation (E9): great cut quality on
/// subtree sets, deep skinny trees elsewhere.
class MinCutCutter final : public Cutter {
 public:
  std::vector<char> cut(const Graph& g, Rng& rng) const override;
  std::string name() const override { return "min-cut"; }
};

/// Applies FM refinement to an existing bipartition in place; returns the
/// resulting cut weight.
Weight fm_refine(const Graph& g, std::vector<char>& side, int passes,
                 double balance_floor);

/// The FM pass loop behind fm_refine and the recursive-bisection baseline.
/// Each step moves the unlocked vertex of highest gain (ties: smallest id)
/// whose move is admissible, i.e. `rejects(new_load1)` is false for the
/// side-1 demand (unit demand when absent) the move would leave, and locks
/// it.  A pass ends when no vertex qualifies and rolls back the moves after
/// its lowest-cut prefix; refinement stops after `passes` passes or a pass
/// without improvement.  Gains are cached and only the moved vertex's
/// neighbours are recomputed, so a pass costs O(|E| log |V|) plus the
/// inadmissible vertices skipped on the way to each pick.  Returns the cut.
Weight fm_refine_kernel(const Graph& g, std::vector<char>& side, int passes,
                        const std::function<bool(double)>& rejects);

}  // namespace hgp
