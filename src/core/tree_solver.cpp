#include "core/tree_solver.hpp"

#include "core/rhgpt.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace hgp {

namespace {

// The deep Theorem-3 / Definition-4 audits walk the whole solution with
// minimum leaf separators; contracts run them only on instances small
// enough that the audit cannot dominate a debug solve.
constexpr Vertex kDeepAuditLeafLimit = 96;

}  // namespace

TreeHgpSolution solve_hgpt(const Tree& t, const Hierarchy& h,
                           const TreeDpOptions& opt) {
  if (contracts_enabled()) validate_hierarchy(h);

  TreeDpResult dp = solve_rhgpt(t, h, opt);

  // Theorem 3: the DP's relaxed optimum is a *nice* solution (BS = 0) and
  // a Definition-4 solution with respect to the rounded demands.
  HGP_POSTCONDITION_MSG(
      t.leaf_count() > kDeepAuditLeafLimit ||
          count_bad_sets(t, dp.solution) == 0,
      "RHGPT DP emitted a non-nice solution (Theorem 3)");
  if (contracts_enabled() && t.leaf_count() <= kDeepAuditLeafLimit) {
    validate_rhgpt(t, h, dp.scaled, dp.solution);
  }

  TreeHgpSolution out;
  {
    // Theorem-5 regrouping: relaxed mirror regions → leaf assignment.
    HGP_TRACE_SPAN("tree.convert");
    out.assignment =
        convert_to_assignment(t, h, dp.solution, dp.scaled.units);
  }
  out.relaxed = std::move(dp.solution);
  out.relaxed_cost = dp.cost;
  out.violation = assignment_violation(t, h, out.assignment);
  out.scaled = std::move(dp.scaled);
  out.stats = dp.stats;

  // Theorem 2: the regrouped assignment blows capacity up by at most
  // (1+ε)(1+j) per level (index 0 is the root).
  HGP_POSTCONDITION_MSG(
      [&] {
        for (std::size_t j = 0; j < out.violation.size(); ++j) {
          const double bound =
              (1.0 + opt.epsilon) * (1.0 + static_cast<double>(j));
          if (out.violation[j] > bound + 1e-9) return false;
        }
        return true;
      }(),
      "tree assignment exceeds the Theorem-2 violation bound");
  return out;
}

}  // namespace hgp
