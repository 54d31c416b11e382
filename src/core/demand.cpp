#include "core/demand.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace hgp {

namespace {

/// max(1, ⌊d · U⌋): the one-unit floor keeps every job visible.
DemandUnits rounded_units(double d, DemandUnits units_per_capacity) {
  const auto floored = static_cast<DemandUnits>(
      std::floor(d * static_cast<double>(units_per_capacity)));
  return std::max<DemandUnits>(1, floored);
}

}  // namespace

RoundedTotal round_demands(std::span<const double> demands, const Hierarchy& h,
                           double epsilon, DemandUnits units_override) {
  HGP_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
  RoundedTotal r;
  if (units_override > 0) {
    r.units_per_capacity = units_override;
  } else {
    const double n = static_cast<double>(demands.size());
    r.units_per_capacity =
        static_cast<DemandUnits>(std::ceil(std::max(1.0, n) / epsilon));
  }
  std::vector<double> sorted(demands.begin(), demands.end());
  std::sort(sorted.begin(), sorted.end());
  double total_demand = 0;
  for (const double d : sorted) total_demand += d;
  // The one-unit floor means at most U jobs fit one leaf; if the requested
  // resolution cannot represent a feasible instance (many tiny jobs),
  // double U until the rounded total fits the hierarchy.  Truly infeasible
  // instances (total demand > capacity) stop doubling once rounding error
  // is no longer the cause and are rejected by require_rounded_total_fits.
  for (;;) {
    r.total = 0;
    for (const double d : demands) {
      r.total += rounded_units(d, r.units_per_capacity);
    }
    r.capacity = h.capacity(0) * r.units_per_capacity;
    const bool fits = r.total <= r.capacity;
    const bool rounding_caused =
        total_demand <= static_cast<double>(h.capacity(0));
    if (fits || !rounding_caused ||
        r.units_per_capacity > (DemandUnits{1} << 24)) {
      break;
    }
    r.units_per_capacity *= 2;
  }
  return r;
}

std::string rounded_total_overflow(const RoundedTotal& rounded) {
  if (rounded.total <= rounded.capacity) return {};
  std::ostringstream os;
  os << "instance infeasible: total rounded demand " << rounded.total
     << " units exceeds hierarchy capacity " << rounded.capacity << " units";
  return os.str();
}

void require_rounded_total_fits(const RoundedTotal& rounded) {
  std::string overflow = rounded_total_overflow(rounded);
  if (!overflow.empty()) {
    throw SolveError(StatusCode::kInfeasible, std::move(overflow));
  }
}

ScaledDemands scale_demands(const Tree& t, const Hierarchy& h, double epsilon,
                            DemandUnits units_override) {
  HGP_CHECK_MSG(t.has_demands(), "tree has no leaf demands");
  std::vector<double> demands;
  demands.reserve(t.leaves().size());
  for (Vertex leaf : t.leaves()) {
    const double d = t.demand(leaf);
    HGP_CHECK_MSG(d > 0.0 && d <= 1.0,
                  "leaf demand out of (0,1]: " << d << " at node " << leaf);
    demands.push_back(d);
  }
  const RoundedTotal r = round_demands(demands, h, epsilon, units_override);
  ScaledDemands s;
  s.units_per_capacity = r.units_per_capacity;
  s.total = r.total;
  s.units.assign(static_cast<std::size_t>(t.node_count()), 0);
  for (Vertex leaf : t.leaves()) {
    s.units[static_cast<std::size_t>(leaf)] =
        rounded_units(t.demand(leaf), r.units_per_capacity);
  }
  s.capacity.resize(static_cast<std::size_t>(h.height()) + 1);
  for (int j = 0; j <= h.height(); ++j) {
    s.capacity[static_cast<std::size_t>(j)] =
        h.capacity(j) * s.units_per_capacity;
  }
  return s;
}

}  // namespace hgp
