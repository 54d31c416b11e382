// Resilience-layer tests: status taxonomy, deadlines/cancellation,
// per-tree fault isolation, and the hgp → multilevel → greedy fallback
// chain (see docs/RESILIENCE.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/multilevel.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"  // TraceBuffer directly: obs.hpp omits it under OFF
#include "decomp/builder.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/incremental.hpp"
#include "runtime/solver.hpp"
#include "util/deadline.hpp"
#include "util/fault_injector.hpp"
#include "util/status.hpp"

namespace hgp {
namespace {

Graph workload(std::uint64_t seed, Vertex n = 24) {
  Rng rng(seed);
  Graph g = gen::planted_partition(n, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / n);
  return g;
}

const Hierarchy& hier() {
  static const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  return h;
}

FaultInjector::Fault throw_fault() {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kThrow;
  return f;
}

FaultInjector::Fault stall_fault(double ms) {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kStall;
  f.stall_ms = ms;
  return f;
}

// Captures the global trace buffer for one test.  Tracing is off by default
// process-wide, so flipping it on/off here cannot leak into other tests.
struct TraceCapture {
  TraceCapture() {
    obs::TraceBuffer::global().clear();
    obs::TraceBuffer::global().set_enabled(true);
  }
  ~TraceCapture() {
    obs::TraceBuffer::global().set_enabled(false);
    obs::TraceBuffer::global().clear();
  }
  // A span is recorded only when its destructor runs, so presence in the
  // snapshot is proof the span closed (including during unwinding).
  static std::size_t closed(const char* name) {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : obs::TraceBuffer::global().snapshot()) {
      if (std::string_view(e.name) == name) ++n;
    }
    return n;
  }
};

FaultInjector::Fault infeasible_fault() {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kInfeasible;
  return f;
}

TEST(StatusTaxonomy, CodesHaveStableNames) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidInput), "INVALID_INPUT");
  EXPECT_STREQ(status_code_name(StatusCode::kInfeasible), "INFEASIBLE");
  EXPECT_STREQ(status_code_name(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(status_code_name(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusTaxonomy, SolveErrorIsACheckError) {
  // API compatibility: pre-taxonomy call sites catch CheckError.
  const SolveError err(StatusCode::kDeadlineExceeded, "budget gone");
  EXPECT_EQ(err.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(std::string(err.what()).find("DEADLINE_EXCEEDED"),
            std::string::npos);
  const CheckError* base = &err;
  EXPECT_NE(base, nullptr);
}

TEST(StatusTaxonomy, ClassifiesInFlightExceptions) {
  try {
    throw SolveError(StatusCode::kInfeasible, "too big");
  } catch (...) {
    const Status s = status_from_current_exception();
    EXPECT_EQ(s.code, StatusCode::kInfeasible);
    EXPECT_EQ(s.message, "too big");
  }
  try {
    throw CheckError("bare invariant failure");
  } catch (...) {
    EXPECT_EQ(status_from_current_exception().code, StatusCode::kInternal);
  }
  try {
    throw 42;
  } catch (...) {
    EXPECT_EQ(status_from_current_exception().code, StatusCode::kInternal);
  }
}

TEST(DeadlineTest, NeverAndExpiry) {
  const Deadline never = Deadline::never();
  EXPECT_TRUE(never.is_never());
  EXPECT_FALSE(never.expired());
  const Deadline gone = Deadline::after_ms(-1);
  EXPECT_TRUE(gone.expired());
  EXPECT_EQ(gone.remaining_ms(), 0);  // clamped, never negative
  const Deadline later = Deadline::after_ms(60'000);
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_ms(), 0);
}

TEST(DeadlineTest, HugeBudgetSaturatesInsteadOfOverflowing) {
  // --timeout-ms near int64 max used to overflow the steady_clock addition
  // inside after_ms; the clamp pins such budgets at the clock's horizon.
  const double huge = 9.2e18;  // ~int64 max in ms, far past the ns range
  const Deadline d = Deadline::after_ms(huge);
  EXPECT_FALSE(d.is_never());  // armed, but effectively unbounded
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 1e9);

  const Deadline inf_d =
      Deadline::after_ms(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inf_d.expired());
  const Deadline nan_d =
      Deadline::after_ms(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(nan_d.expired());
}

TEST(DeadlineTest, ExecContextChecksThrowTyped) {
  ExecContext unconstrained;
  unconstrained.check("test");  // no-throw

  ExecContext past;
  past.deadline = Deadline::after_ms(-1);
  try {
    past.check("test stage");
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }

  CancelToken token;
  token.request_cancel();
  ExecContext cancelled;
  cancelled.cancel = &token;
  // Cancellation wins over an expired deadline.
  cancelled.deadline = Deadline::after_ms(-1);
  try {
    cancelled.check("test stage");
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST(FaultInjectorTest, NoOpByDefault) {
  FaultInjector::instance().on_site("solve_one_tree", 0);  // must not throw
}

TEST(Resilience, SurvivingTreeWinsWhenOthersThrow) {
  const Graph g = workload(1);
  SolverOptions opt;
  opt.num_trees = 4;
  // Kill every tree except the last; the forest arg-min must run over the
  // lone survivor.
  // Each scope disarms only its own (site, index) key, so all three must
  // be scoped — a raw arm() here would leak into later tests.
  FaultScope f0("solve_one_tree", 0, throw_fault());
  FaultScope f1("solve_one_tree", 1, throw_fault());
  FaultScope f2("solve_one_tree", 2, throw_fault());
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kHgp);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.best_tree, 3);
  ASSERT_EQ(r.attempts.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.attempts[static_cast<std::size_t>(i)].status,
              StatusCode::kInternal);
    EXPECT_FALSE(r.attempts[static_cast<std::size_t>(i)].error.empty());
    EXPECT_TRUE(std::isinf(r.tree_costs[static_cast<std::size_t>(i)]));
  }
  EXPECT_TRUE(r.attempts[3].ok());
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), r.placement), 1e-9);
}

TEST(Resilience, SurvivorBeatsTimedOutTreesUnderPool) {
  const Graph g = workload(2);
  ThreadPool pool(2);
  SolverOptions opt;
  opt.num_trees = 4;
  opt.pool = &pool;
  opt.timeout_ms = 2000;
  // Tree 0 stalls far past the deadline; its chunk-mate (tree 1) then sees
  // the expired deadline too.  Trees 2 and 3 run on the other worker and
  // finish long before the budget is gone, so the arg-min has survivors.
  FaultScope stall("solve_one_tree", 0, stall_fault(2500));
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kHgp);
  EXPECT_TRUE(r.status.ok());
  ASSERT_EQ(r.attempts.size(), 4u);
  EXPECT_EQ(r.attempts[0].status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.attempts[2].ok());
  EXPECT_TRUE(r.attempts[3].ok());
  EXPECT_TRUE(r.best_tree == 2 || r.best_tree == 3) << r.best_tree;
}

TEST(Resilience, AllTreesThrowFallsBackToMultilevel) {
  const Graph g = workload(3);
  SolverOptions opt;
  opt.num_trees = 3;
  opt.seed = 9;
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex, throw_fault());
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.status.code, StatusCode::kInternal);
  EXPECT_EQ(r.best_tree, -1);
  ASSERT_EQ(r.attempts.size(), 3u);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kInternal);
  }
  // The fallback is the deterministic multilevel run under the same seed.
  Rng rng(opt.seed);
  const Placement direct = multilevel_placement(g, hier(), rng);
  EXPECT_EQ(r.placement.leaf_of, direct.leaf_of);
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), direct), 1e-9);
}

TEST(Resilience, DeadlineKillingAllTreesDegradesWithDeadlineStatus) {
  const Graph g = workload(4);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.timeout_ms = 40;
  // Both trees stall past the 40ms budget, so the whole primary pipeline is
  // killed by the deadline and the solve must still hand back a placement.
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex,
                 stall_fault(120));
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_EQ(r.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kDeadlineExceeded);
  }
}

TEST(Resilience, InjectedInfeasibilityClassifiedAndDegraded) {
  const Graph g = workload(5);
  SolverOptions opt;
  opt.num_trees = 2;
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex,
                 infeasible_fault());
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.status.code, StatusCode::kInfeasible);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kInfeasible);
  }
}

TEST(Resilience, FallbackNoneThrowsClassifiedError) {
  const Graph g = workload(6);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.fallback = FallbackPolicy::kNone;
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex, throw_fault());
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
}

TEST(Resilience, DeadlineMidSolveDegradesInsteadOfThrowing) {
  const Graph g = workload(7);
  SolverOptions opt;
  opt.num_trees = 4;
  opt.timeout_ms = 0.01;  // expires before any real work is possible
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), r.placement), 1e-9);
}

TEST(Resilience, CancellationThrowsInsteadOfDegrading) {
  const Graph g = workload(8);
  CancelToken token;
  token.request_cancel();
  SolverOptions opt;
  opt.num_trees = 2;
  opt.cancel = &token;
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST(Resilience, InvalidInputIsTyped) {
  const Graph g = gen::grid2d(3, 3);  // no demands
  try {
    solve_hgp(g, hier(), {});
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
  }
  const Graph w = workload(9);
  SolverOptions bad;
  bad.num_trees = 0;
  EXPECT_THROW(solve_hgp(w, hier(), bad), SolveError);
}

TEST(Resilience, TreeDpHonoursDeadline) {
  const Graph g = workload(10);
  Rng rng(1);
  const FmCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  ExecContext exec;
  exec.deadline = Deadline::after_ms(-1);
  TreeDpOptions opt;
  opt.exec = &exec;
  try {
    solve_hgpt(dt.tree(), hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(Resilience, CancelStopsParallelForPromptly) {
  ThreadPool pool(2);
  CancelToken token;
  ExecContext exec;
  exec.cancel = &token;
  std::atomic<std::size_t> processed{0};
  const std::size_t n = 200'000;
  try {
    parallel_for(
        pool, 0, n,
        [&](std::size_t i) {
          if (i == 10) token.request_cancel();
          processed.fetch_add(1, std::memory_order_relaxed);
        },
        1, &exec);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
  // Cancellation is checked before every item, so each chunk stops within
  // one iteration of the flag flipping.
  EXPECT_LT(processed.load(), n / 2);
}

TEST(Resilience, ExpiredDeadlineStopsParallelFor) {
  ThreadPool pool(2);
  ExecContext exec;
  exec.deadline = Deadline::after_ms(-1);
  std::atomic<std::size_t> processed{0};
  const std::size_t n = 100'000;
  try {
    parallel_for(
        pool, 0, n,
        [&](std::size_t i) {
          (void)i;
          processed.fetch_add(1, std::memory_order_relaxed);
        },
        1, &exec);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
  // The deadline is polled on a stride, so each chunk does at most one
  // stride of work.
  EXPECT_LT(processed.load(), 4096u);
}

TEST(Resilience, AttemptsRecordElapsedTime) {
  const Graph g = workload(11);
  SolverOptions opt;
  opt.num_trees = 2;
  const HgpResult r = solve_hgp(g, hier(), opt);
  ASSERT_EQ(r.attempts.size(), 2u);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_TRUE(a.ok());
    EXPECT_GE(a.elapsed_ms, 0.0);
    EXPECT_LT(a.cost, std::numeric_limits<double>::infinity());
  }
}

// --- Fallback-chain stage boundaries --------------------------------------
//
// Each stage of hgp → multilevel → greedy can die independently; these
// tests kill the chain at every boundary and assert both the terminal
// status and that every entered trace span closed (spans are recorded at
// destruction, so a span that leaked through the unwind would be missing
// from the snapshot).

TEST(Resilience, FallbackSpansCloseWhenMultilevelRescues) {
  const Graph g = workload(12);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 13;
  FaultScope trees("solve_one_tree", FaultInjector::kEveryIndex,
                   throw_fault());
  TraceCapture trace;
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_EQ(r.status.code, StatusCode::kInternal);
#if HGP_OBS_ENABLED
  EXPECT_EQ(TraceCapture::closed("solve"), 1u);
  EXPECT_EQ(TraceCapture::closed("solve.fallback"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.multilevel"), 1u);
  // The chain stopped at stage one: greedy must never have been entered.
  EXPECT_EQ(TraceCapture::closed("fallback.greedy"), 0u);
#endif
}

TEST(Resilience, MultilevelStageFaultFallsThroughToGreedy) {
  const Graph g = workload(13);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 17;
  FaultScope trees("solve_one_tree", FaultInjector::kEveryIndex,
                   throw_fault());
  FaultScope ml("fallback_multilevel", 0, throw_fault());
  TraceCapture trace;
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kGreedy);
  EXPECT_TRUE(r.degraded());
  // The surfaced status is the *primary* failure reason, not the
  // multilevel stage's own demise.
  EXPECT_EQ(r.status.code, StatusCode::kInternal);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_LT(r.cost, std::numeric_limits<double>::infinity());
#if HGP_OBS_ENABLED
  // The multilevel span closed via unwinding; greedy closed normally.
  EXPECT_EQ(TraceCapture::closed("solve.fallback"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.multilevel"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.greedy"), 1u);
#endif
}

TEST(Resilience, FallbackChainExhaustionNamesEveryStage) {
  const Graph g = workload(14);
  SolverOptions opt;
  opt.num_trees = 2;
  FaultScope trees("solve_one_tree", FaultInjector::kEveryIndex,
                   throw_fault());
  FaultScope ml("fallback_multilevel", 0, throw_fault());
  FaultScope gr("fallback_greedy", 0, infeasible_fault());
  TraceCapture trace;
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInfeasible);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fallback chain exhausted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("multilevel"), std::string::npos) << msg;
    EXPECT_NE(msg.find("greedy"), std::string::npos) << msg;
    // Stage statuses ride along for the postmortem: primary + multilevel
    // died as INTERNAL, greedy as INFEASIBLE.
    EXPECT_NE(msg.find("INTERNAL"), std::string::npos) << msg;
    EXPECT_NE(msg.find("INFEASIBLE"), std::string::npos) << msg;
  }
#if HGP_OBS_ENABLED
  // Even on the fully-exhausted path every entered span unwound cleanly.
  EXPECT_EQ(TraceCapture::closed("solve"), 1u);
  EXPECT_EQ(TraceCapture::closed("solve.fallback"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.multilevel"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.greedy"), 1u);
#endif
}

// A checkpoint entry may come from a recovered spill, so the forest
// executor re-validates it against the instance before trusting it.  Each
// malformed kind below is given a cost low enough to win the arg-min if it
// were trusted; it must instead be a miss, the tree solved again, and the
// answer the clean solve's, bit for bit, on both entry points.
std::vector<std::pair<std::string, CheckpointedTree>> malformed_entries(
    const Graph& g) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  CheckpointedTree base;
  base.placement.leaf_of.assign(n, 0);
  base.cost = 0.0;
  std::vector<std::pair<std::string, CheckpointedTree>> out;
  CheckpointedTree e = base;
  e.placement.leaf_of.pop_back();
  out.emplace_back("short placement", e);
  e = base;
  e.cost = std::numeric_limits<double>::quiet_NaN();
  out.emplace_back("NaN cost", e);
  e = base;
  e.cost = std::numeric_limits<double>::infinity();
  out.emplace_back("+inf cost", e);
  e = base;
  e.placement.leaf_of[n / 2] = -1;
  out.emplace_back("leaf -1", e);
  e = base;
  e.placement.leaf_of[n / 2] = hier().leaf_count();
  out.emplace_back("leaf == leaf_count", e);
  return out;
}

void expect_bit_identical(const HgpResult& got, const HgpResult& want) {
  EXPECT_EQ(std::memcmp(&got.cost, &want.cost, sizeof got.cost), 0)
      << got.cost << " vs " << want.cost;
  EXPECT_EQ(got.best_tree, want.best_tree);
  EXPECT_EQ(got.placement.leaf_of, want.placement.leaf_of);
  ASSERT_EQ(got.tree_costs.size(), want.tree_costs.size());
  for (std::size_t i = 0; i < got.tree_costs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.tree_costs[i], &want.tree_costs[i],
                          sizeof(double)),
              0)
        << "tree " << i;
  }
}

TEST(Resilience, MalformedCheckpointEntriesAreSolvedAgain) {
  const Graph g = workload(21);
  constexpr int kTree = 1;

  SolverOptions opt;
  opt.num_trees = 3;
  opt.seed = 4;
  opt.fallback = FallbackPolicy::kNone;
  const CheckpointKey hgp_key{graph_fingerprint(g), opt.seed, opt.num_trees,
                              opt.epsilon, opt.units_override};
  SolveCheckpoint clean_ck;
  SolverOptions recorded = opt;
  recorded.checkpoint = &clean_ck;
  const HgpResult clean = solve_hgp(g, hier(), recorded);
  ASSERT_FALSE(clean.degraded());

  const std::vector<DecompTree> forest =
      build_decomposition_forest(g, 3, 8, FmCutter());
  ForestSolveOptions fo;
  fo.seed = 8;
  const CheckpointKey forest_key{graph_fingerprint(g), fo.seed,
                                 static_cast<int>(forest.size()), fo.epsilon,
                                 fo.units_override};
  SolveCheckpoint clean_forest_ck;
  ForestSolveOptions forest_recorded = fo;
  forest_recorded.checkpoint = &clean_forest_ck;
  const HgpResult clean_forest =
      solve_on_forest(g, hier(), forest, forest_recorded);

  // Runs both entry points with tree kTree pre-seeded to `entry` under
  // the key each binds, and checks the served/solved flag and the answer.
  auto check = [&](const CheckpointedTree& hgp_entry,
                   const CheckpointedTree& forest_entry, bool served) {
    SolveCheckpoint ck;
    ck.bind(hgp_key);
    ck.record(kTree, hgp_entry);
    SolverOptions seeded = opt;
    seeded.checkpoint = &ck;
    const HgpResult got = solve_hgp(g, hier(), seeded);
    ASSERT_EQ(got.attempts.size(), 3u);
    EXPECT_EQ(got.attempts[kTree].from_checkpoint, served);
    EXPECT_EQ(got.telemetry.checkpoint_trees, served ? 1 : 0);
    expect_bit_identical(got, clean);

    SolveCheckpoint fck;
    fck.bind(forest_key);
    fck.record(kTree, forest_entry);
    ForestSolveOptions fseeded = fo;
    fseeded.checkpoint = &fck;
    const HgpResult fgot = solve_on_forest(g, hier(), forest, fseeded);
    ASSERT_EQ(fgot.attempts.size(), forest.size());
    EXPECT_EQ(fgot.attempts[kTree].from_checkpoint, served);
    EXPECT_EQ(fgot.telemetry.checkpoint_trees, served ? 1 : 0);
    expect_bit_identical(fgot, clean_forest);
  };

  // Control: the genuine entries are served, so the keys above match what
  // the entry points bind and the malformed cases below are real lookups.
  CheckpointedTree genuine, genuine_forest;
  ASSERT_TRUE(clean_ck.lookup(kTree, &genuine));
  ASSERT_TRUE(clean_forest_ck.lookup(kTree, &genuine_forest));
  {
    SCOPED_TRACE("genuine entry");
    check(genuine, genuine_forest, true);
  }
  for (const auto& [kind, entry] : malformed_entries(g)) {
    SCOPED_TRACE(kind);
    check(entry, entry, false);
  }
}

TEST(Resilience, FullyCheckpointedSolveBuildsNoForest) {
  // Each tree attempt builds its tree only when the checkpoint does not
  // hold it.  With every tree in the checkpoint nothing is built and
  // nothing is cached, as with HGP_FOREST_CACHE=0; a sharded solve whose
  // shards delivered every tree ends in exactly this call.
  const Graph g = workload(22);
  SolverOptions opt;
  opt.num_trees = 3;
  opt.seed = 5;
  opt.fallback = FallbackPolicy::kNone;
  SolveCheckpoint ck;
  SolverOptions recorded = opt;
  recorded.checkpoint = &ck;
  const HgpResult cold = solve_hgp(g, hier(), recorded);
  ASSERT_EQ(ck.size(), 3u);

  const auto trees_built = [] {
    return obs::MetricsRegistry::global().counter_value("decomp.trees_built");
  };
  ForestCache::global().clear();
  const std::uint64_t built_before = trees_built();
  const HgpResult warm = solve_hgp(g, hier(), recorded);
  expect_bit_identical(warm, cold);
  EXPECT_EQ(warm.telemetry.checkpoint_trees, 3);
  EXPECT_TRUE(warm.telemetry.forest_cache_hit);  // built nothing
  EXPECT_EQ(ForestCache::global().size(), 0u);
  if (HGP_OBS_ENABLED) {
    EXPECT_EQ(trees_built(), built_before);
  }

  // One tree missing: only that tree is built, the answer is the same, and
  // a forest this solve did not build whole is not cached.
  SolveCheckpoint partial;
  partial.bind(CheckpointKey{graph_fingerprint(g), opt.seed, opt.num_trees,
                             opt.epsilon, opt.units_override});
  for (const int i : {0, 2}) {
    CheckpointedTree tree;
    ASSERT_TRUE(ck.lookup(i, &tree));
    partial.record(i, std::move(tree));
  }
  SolverOptions resumed = opt;
  resumed.checkpoint = &partial;
  const HgpResult mixed = solve_hgp(g, hier(), resumed);
  expect_bit_identical(mixed, cold);
  EXPECT_EQ(mixed.telemetry.checkpoint_trees, 2);
  EXPECT_FALSE(mixed.telemetry.forest_cache_hit);
  EXPECT_EQ(ForestCache::global().size(), 0u);
  if (HGP_OBS_ENABLED) {
    EXPECT_EQ(trees_built(), built_before + 1);
  }
}

/// FmCutter that sleeps `ms` in its first cut, so a forest build costs at
/// least that much wall time.
class SlowFirstCutCutter final : public Cutter {
 public:
  explicit SlowFirstCutCutter(int ms) : ms_(ms) {}
  std::vector<char> cut(const Graph& g, Rng& rng) const override {
    if (!slept_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    }
    return inner_.cut(g, rng);
  }
  std::string name() const override { return "slow-first-cut"; }

 private:
  int ms_;
  FmCutter inner_;
  mutable std::atomic<bool> slept_{false};
};

TEST(Resilience, IncrementalBaseSolveSpendsOneBudget) {
  // IncrementalOptions::timeout_ms is the base solve's whole budget: the
  // tree builds and the tree solves draw on one deadline.  The build takes
  // at least 60 ms and each tree solve first stalls 60 ms, so no tree can
  // finish inside 100 ms.  A second, fresh budget for the solves would let
  // tree 0 finish.  The sleeps are lower bounds, so the outcome does not
  // depend on host speed.
  ForestCache::global().clear();
  const SlowFirstCutCutter cutter(60);
  IncrementalOptions opt;
  opt.num_trees = 2;
  opt.seed = 3;
  opt.cutter = &cutter;
  opt.timeout_ms = 100;
  FaultScope stall("solve_one_tree", FaultInjector::kEveryIndex,
                   stall_fault(60));
  try {
    const IncrementalSolver solver(std::make_shared<const Graph>(workload(31)),
                                   hier(), opt);
    FAIL() << "the base solve must run out of its one budget";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded) << e.what();
  }
}

}  // namespace
}  // namespace hgp
