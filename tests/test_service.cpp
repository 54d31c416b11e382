// Service-layer tests: admission control, memory-budget degradation,
// retry/backoff, checkpoint-resume, watchdog cancellation and drain
// semantics (src/runtime/service.hpp, docs/RESILIENCE.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "graph/generators.hpp"
#include "hierarchy/placement.hpp"
#include "runtime/service.hpp"
#include "util/fault_injector.hpp"
#include "util/memory_budget.hpp"
#include "util/prng.hpp"

namespace hgp {
namespace {

Graph workload(std::uint64_t seed, Vertex n = 24) {
  Rng rng(seed);
  Graph g = gen::planted_partition(n, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / static_cast<double>(n));
  return g;
}

const Hierarchy& hier() {
  static const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  return h;
}

/// Restores the global memory budget on scope exit: the budget is process
/// state and a failing test must not poison its successors.
struct BudgetGuard {
  std::size_t saved_limit;
  BudgetGuard() : saved_limit(MemoryBudget::global().limit()) {}
  ~BudgetGuard() { MemoryBudget::global().set_limit(saved_limit); }
};

FaultInjector::Fault throw_fault(double probability = 1.0,
                                 std::uint64_t seed = 1) {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kThrow;
  f.probability = probability;
  f.seed = seed;
  return f;
}

FaultInjector::Fault stall_fault(double ms, double probability = 1.0,
                                 std::uint64_t seed = 1) {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kStall;
  f.stall_ms = ms;
  f.probability = probability;
  f.seed = seed;
  return f;
}

/// Finds a fault-stream seed whose FIRST probability draw fires and whose
/// next `clean` draws do not — the deterministic way to say "fail exactly
/// the first attempt, pass the retries" (the injector consumes one draw
/// per site hit; see FaultInjector::Fault::seed).
std::uint64_t seed_firing_once(double p, int clean = 8) {
  for (std::uint64_t s = 1;; ++s) {
    SplitMix64 sm(s);
    auto draw = [&] {
      return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
    };
    if (!(draw() < p)) continue;
    bool rest_clean = true;
    for (int i = 0; i < clean; ++i) rest_clean = rest_clean && !(draw() < p);
    if (rest_clean) return s;
  }
}

// ---------------------------------------------------------------------------
// solve_with_retry

TEST(SolveWithRetry, SucceedsFirstTryWithoutSpendingRetries) {
  const Graph g = workload(7);
  SolverOptions opt;
  opt.num_trees = 2;
  const RetrySolveReport rep = solve_with_retry(g, hier(), opt);
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.has_result);
  EXPECT_EQ(rep.retries_used, 0);
  EXPECT_EQ(rep.result.retries_used, 0);
  EXPECT_NO_THROW(validate_placement(g, hier(), rep.result.placement));
}

TEST(SolveWithRetry, RetriesTransientFaultAndSurfacesSpend) {
  // The finalize fault kills attempt 1 after its trees completed; the
  // probability stream is seeded to fire exactly once, so attempt 2 runs
  // clean and must also resume every tree from the shared checkpoint.
  const Graph g = workload(11);
  const std::uint64_t fire_once = seed_firing_once(0.5);
  FaultScope finalize("solve_finalize", 0, throw_fault(0.5, fire_once));

  SolverOptions opt;
  opt.num_trees = 2;
  RetryOptions retry;
  retry.max_retries = 2;
  retry.backoff_base_ms = 1;
  retry.backoff_max_ms = 2;
  const RetrySolveReport rep = solve_with_retry(g, hier(), opt, retry);
  ASSERT_TRUE(rep.ok()) << rep.status.to_string();
  ASSERT_TRUE(rep.has_result);
  EXPECT_EQ(rep.retries_used, 1);
  EXPECT_EQ(rep.result.retries_used, 1);
  // Checkpoint-resume: the retry served completed trees instead of
  // re-running their DP.
  EXPECT_GE(rep.result.telemetry.checkpoint_trees, 1);
  int from_checkpoint = 0;
  for (const TreeAttempt& a : rep.result.attempts) {
    from_checkpoint += a.from_checkpoint ? 1 : 0;
  }
  EXPECT_EQ(from_checkpoint, rep.result.telemetry.checkpoint_trees);
}

TEST(SolveWithRetry, ExhaustedRetryBudgetIsSurfacedNotThrown) {
  const Graph g = workload(13);
  FaultScope finalize("solve_finalize", 0, throw_fault());  // every attempt
  SolverOptions opt;
  opt.num_trees = 1;
  RetryOptions retry;
  retry.max_retries = 2;
  retry.backoff_base_ms = 1;
  retry.backoff_max_ms = 2;
  const RetrySolveReport rep = solve_with_retry(g, hier(), opt, retry);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.retry_budget_exhausted);
  EXPECT_EQ(rep.retries_used, 2);
  EXPECT_EQ(rep.status.code, StatusCode::kInternal);
}

TEST(SolveWithRetry, PermanentFailuresDoNotBurnRetries) {
  Rng rng(17);
  const Graph g = gen::erdos_renyi(12, 0.3, rng);  // no demands → invalid
  const RetrySolveReport rep = solve_with_retry(g, hier(), SolverOptions{});
  EXPECT_EQ(rep.status.code, StatusCode::kInvalidInput);
  EXPECT_EQ(rep.retries_used, 0);
  EXPECT_FALSE(rep.has_result);
  EXPECT_FALSE(rep.retry_budget_exhausted);
}

// ---------------------------------------------------------------------------
// Memory budget: degrade, never OOM (the ISSUE's acceptance scenario).

TEST(MemoryBudget, SolveDegradesUnderTightBudgetInsteadOfOOM) {
  const Graph g = workload(19, 32);
  BudgetGuard guard;
  // Far below the DP footprint: arena chunk reservations fail, every tree
  // reports kResourceExhausted, and the solve must come back through the
  // degradation ladder / fallback chain rather than OOM-aborting.
  MemoryBudget::global().set_limit(16 << 10);
  SolverOptions opt;
  opt.num_trees = 4;
  RetryOptions retry;
  retry.max_retries = 1;
  retry.backoff_base_ms = 1;
  retry.backoff_max_ms = 2;
  const RetrySolveReport rep = solve_with_retry(g, hier(), opt, retry);
  // Either a degraded-but-placed result or a typed kResourceExhausted —
  // both are the documented outcomes; an OOM abort would fail the test
  // runner itself.
  EXPECT_TRUE(rep.status.code == StatusCode::kOk ||
              rep.status.code == StatusCode::kResourceExhausted)
      << rep.status.to_string();
  if (rep.has_result) {
    EXPECT_NO_THROW(validate_placement(g, hier(), rep.result.placement));
  } else {
    EXPECT_EQ(rep.status.code, StatusCode::kResourceExhausted);
  }
}

TEST(MemoryBudget, LadderStepsAreFreeAndBounded) {
  const Graph g = workload(23, 32);
  BudgetGuard guard;
  MemoryBudget::global().set_limit(16 << 10);
  SolverOptions opt;
  opt.num_trees = 8;
  RetryOptions retry;
  retry.max_retries = 0;  // ladder steps must not need the retry budget
  const RetrySolveReport rep = solve_with_retry(g, hier(), opt, retry);
  EXPECT_EQ(rep.retries_used, 0);
  // The one ladder step halves the trees: 8 → 4 → 2 → 1.
  EXPECT_EQ(rep.degrades, 3);
}

TEST(MemoryBudget, ResolveUnderPressureTakesNoLadderStep) {
  // A session pins its forest, so halving num_trees cannot shrink a
  // resolve: its kResourceExhausted goes to the retry budget instead of
  // re-running the same resolve as free ladder steps.
  const auto base = std::make_shared<const Graph>(workload(37, 32));
  BudgetGuard guard;
  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 0;
  // Cached forests may already sit above the tiny limit; admit anyway.
  sopt.admission_max_utilization = std::numeric_limits<double>::infinity();
  SolverService service(sopt);
  const auto session = service.open_incremental(base, hier());
  const std::shared_ptr<MutationLog> log = session->begin_batch();
  log->set_demand(0, 0.05);
  MemoryBudget::global().set_limit(16 << 10);
  const auto req = service.submit_resolve(session, log);
  const RetrySolveReport& rep = req->wait();
  EXPECT_EQ(rep.status.code, StatusCode::kResourceExhausted)
      << rep.status.to_string();
  EXPECT_EQ(rep.degrades, 0);
  EXPECT_EQ(rep.retries_used, 0);
  EXPECT_EQ(service.stats().degrades, 0u);
}

TEST(MemoryBudget, ReserveOrThrowReportsResourceExhausted) {
  BudgetGuard guard;
  // Baseline-relative: long-lived charges (e.g. cached forests from earlier
  // tests) legitimately stay reserved across tests.
  const std::size_t used_before = MemoryBudget::global().used();
  MemoryBudget::global().set_limit(used_before + (1 << 10));
  try {
    MemoryBudget::global().reserve_or_throw(1 << 20, "test block");
    FAIL() << "reserve_or_throw must throw over the limit";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExhausted);
  }
  // The failed reservation rolled its bytes back.
  EXPECT_EQ(MemoryBudget::global().used(), used_before);
}

// ---------------------------------------------------------------------------
// SolverService: admission control.

TEST(SolverService, RejectsWhenQueueFull) {
  const Graph g = workload(29);
  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.max_queue = 1;
  sopt.retry.max_retries = 0;
  SolverService service(sopt);

  // Hold the single worker inside request 1 long enough to stack up.
  FaultScope stall("solve_one_tree", 0, stall_fault(300));
  SolverOptions opt;
  opt.num_trees = 1;
  auto r1 = service.submit(g, hier(), opt);
  // Wait until the worker picked r1 up so r2 lands in the queue.
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto r2 = service.submit(g, hier(), opt);
  auto r3 = service.submit(g, hier(), opt);  // queue full → rejected

  EXPECT_TRUE(r3->done());  // rejection is immediate and terminal
  EXPECT_EQ(r3->wait().status.code, StatusCode::kResourceExhausted);
  EXPECT_FALSE(r3->wait().has_result);

  EXPECT_TRUE(r1->wait().ok());
  EXPECT_TRUE(r2->wait().ok());
  const SolverService::Stats stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(SolverService, RejectsUnderBudgetPressure) {
  const Graph g = workload(31);
  BudgetGuard guard;
  // Leave 1 MiB of headroom above whatever is already charged, then hog
  // almost all of it so utilization sits above the admission threshold.
  MemoryBudget::global().set_limit(MemoryBudget::global().used() + (64u << 20));
  ASSERT_TRUE(MemoryBudget::global().try_reserve((64u << 20) - 64));

  ServiceOptions sopt;
  sopt.admission_max_utilization = 0.9;
  SolverService service(sopt);
  auto req = service.submit(g, hier());
  EXPECT_TRUE(req->done());
  EXPECT_EQ(req->wait().status.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_budget, 1u);

  MemoryBudget::global().release((64u << 20) - 64);
  // Pressure gone → the next arrival is admitted and solves.
  auto ok_req = service.submit(g, hier());
  EXPECT_TRUE(ok_req->wait().ok());
}

// ---------------------------------------------------------------------------
// SolverService: retry, checkpoint, watchdog, drain.

TEST(SolverService, RetriesTransientFaultToSuccess) {
  const Graph g = workload(37);
  const std::uint64_t fire_once = seed_firing_once(0.5);
  FaultScope finalize("solve_finalize", 0, throw_fault(0.5, fire_once));

  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 2;
  sopt.retry.backoff_base_ms = 1;
  sopt.retry.backoff_max_ms = 2;
  SolverService service(sopt);
  SolverOptions opt;
  opt.num_trees = 2;
  auto req = service.submit(g, hier(), opt);
  const RetrySolveReport& rep = req->wait();
  ASSERT_TRUE(rep.ok()) << rep.status.to_string();
  EXPECT_EQ(rep.retries_used, 1);
  EXPECT_GE(rep.result.telemetry.checkpoint_trees, 1);
  const SolverService::Stats stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_GE(stats.checkpoint_trees, 1u);
}

TEST(SolverService, WatchdogCancelsStuckAttemptAndRetrySucceeds) {
  const Graph g = workload(41);
  // Attempt 1 stalls tree 0 far past the watchdog threshold; the watchdog
  // cancels it, the retry runs clean (the stall stream fires once).  The
  // threshold leaves a clean small-graph solve a wide margin even under
  // TSan's slowdown, so only the stalled attempt can be cancelled.
  const std::uint64_t fire_once = seed_firing_once(0.5);
  FaultScope stall("solve_one_tree", 0, stall_fault(2500, 0.5, fire_once));

  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 2;
  sopt.retry.backoff_base_ms = 1;
  sopt.retry.backoff_max_ms = 2;
  sopt.stuck_after_ms = 800;
  sopt.watchdog_poll_ms = 20;
  SolverService service(sopt);
  SolverOptions opt;
  opt.num_trees = 2;
  auto req = service.submit(g, hier(), opt);
  const RetrySolveReport& rep = req->wait();
  ASSERT_TRUE(rep.ok()) << rep.status.to_string();
  EXPECT_GE(rep.retries_used, 1);
  EXPECT_GE(service.stats().watchdog_cancels, 1u);
}

TEST(SolverService, CallerCancelIsTerminalNotRetried) {
  const Graph g = workload(43);
  FaultScope stall("solve_one_tree", 0, stall_fault(200));
  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 3;
  SolverService service(sopt);
  SolverOptions opt;
  opt.num_trees = 1;
  auto req = service.submit(g, hier(), opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  req->cancel();
  const RetrySolveReport& rep = req->wait();
  EXPECT_EQ(rep.status.code, StatusCode::kCancelled);
  EXPECT_EQ(rep.retries_used, 0);  // a caller cancel must not be retried
}

TEST(SolverService, DrainFinishesInFlightAndRejectsNewArrivals) {
  const Graph g = workload(47);
  ServiceOptions sopt;
  sopt.workers = 2;
  SolverService service(sopt);
  SolverOptions opt;
  opt.num_trees = 1;
  std::vector<std::shared_ptr<ServiceRequest>> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(service.submit(g, hier(), opt));
  service.drain();
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->done());
    EXPECT_TRUE(r->wait().ok());
  }
  auto late = service.submit(g, hier(), opt);
  EXPECT_TRUE(late->done());
  EXPECT_EQ(late->wait().status.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_draining, 1u);
  service.drain();  // idempotent
}

TEST(SolverService, ZeroQueueRejectsEverythingImmediately) {
  const Graph g = workload(53);
  ServiceOptions sopt;
  sopt.max_queue = 0;
  SolverService service(sopt);
  auto req = service.submit(g, hier());
  EXPECT_TRUE(req->done());
  EXPECT_EQ(req->wait().status.code, StatusCode::kResourceExhausted);
}

TEST(SolverService, ResolveArrivalsPassTheSameAdmission) {
  // submit_resolve shares submit's admission path: a full queue and a
  // draining service reject a resolve the same way, and a rejected resolve
  // is not counted as a resolve.
  const auto base = std::make_shared<const Graph>(workload(59));
  for (const bool drained : {false, true}) {
    SCOPED_TRACE(drained ? "drained" : "max_queue = 0");
    ServiceOptions sopt;
    sopt.workers = 1;
    if (!drained) sopt.max_queue = 0;
    SolverService service(sopt);
    const auto session = service.open_incremental(base, hier());
    if (drained) service.drain();
    const std::shared_ptr<MutationLog> log = session->begin_batch();
    log->set_demand(0, 0.05);
    const auto req = service.submit_resolve(session, log);
    EXPECT_TRUE(req->done());
    EXPECT_EQ(req->wait().status.code, StatusCode::kResourceExhausted);
    const SolverService::Stats st = service.stats();
    EXPECT_EQ(st.rejected_queue_full, drained ? 0u : 1u);
    EXPECT_EQ(st.rejected_draining, drained ? 1u : 0u);
    EXPECT_EQ(st.admitted, 0u);
    EXPECT_EQ(st.resolves, 0u);
  }
}

// ---------------------------------------------------------------------------
// Durable spills (ServiceOptions::spill_dir, docs/RESILIENCE.md)

/// Fresh spill directory, removed (with contents) on scope exit.
struct SpillDir {
  std::string path;
  SpillDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "hgp-test-spill-XXXXXX")
            .string();
    path = ::mkdtemp(templ.data()) != nullptr ? templ : std::string();
  }
  ~SpillDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

std::size_t spill_file_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    n += e.path().extension() == ".ckpt" ? 1u : 0u;
  }
  return n;
}

TEST(SolverService, SpillsCheckpointAndResumesAcrossRestart) {
  const Graph g = workload(59);
  SpillDir spill;
  ASSERT_FALSE(spill.path.empty());

  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 0;  // first failure is terminal → one spill
  sopt.spill_dir = spill.path;
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 59;
  opt.fallback = FallbackPolicy::kNone;  // the failure must propagate

  // "Process" 1: every tree completes, then the finalize boundary dies.
  {
    FaultScope finalize("solve_finalize", 0, throw_fault());
    SolverService crashing(sopt);
    auto req = crashing.submit(g, hier(), opt);
    EXPECT_FALSE(req->wait().ok());
    EXPECT_EQ(crashing.stats().checkpoint_spills, 1u);
  }
  EXPECT_EQ(spill_file_count(spill.path), 1u);

  // "Process" 2: a fresh service over the same directory recovers the
  // spill; the identical request resumes every tree instead of re-solving.
  SolverService restarted(sopt);
  auto req = restarted.submit(g, hier(), opt);
  const RetrySolveReport& rep = req->wait();
  ASSERT_TRUE(rep.ok()) << rep.status.to_string();
  ASSERT_TRUE(rep.has_result);
  EXPECT_EQ(rep.result.telemetry.checkpoint_trees, opt.num_trees);
  EXPECT_EQ(restarted.stats().checkpoint_recovered, 1u);
  // Success consumes the spill file.
  EXPECT_EQ(spill_file_count(spill.path), 0u);
  EXPECT_NO_THROW(validate_placement(g, hier(), rep.result.placement));
}

TEST(SolverService, DifferentKeyDoesNotConsumeRecoveredSpill) {
  const Graph g = workload(61);
  SpillDir spill;
  ASSERT_FALSE(spill.path.empty());

  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 0;
  sopt.spill_dir = spill.path;
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 61;
  opt.fallback = FallbackPolicy::kNone;
  {
    FaultScope finalize("solve_finalize", 0, throw_fault());
    SolverService crashing(sopt);
    crashing.submit(g, hier(), opt)->wait();
  }

  SolverService restarted(sopt);
  SolverOptions other = opt;
  other.seed = 62;  // different key → different forest → no resume
  other.fallback = FallbackPolicy::kChain;
  auto req = restarted.submit(g, hier(), other);
  const RetrySolveReport& rep = req->wait();
  ASSERT_TRUE(rep.ok()) << rep.status.to_string();
  EXPECT_EQ(rep.result.telemetry.checkpoint_trees, 0);
  EXPECT_EQ(restarted.stats().checkpoint_recovered, 0u);
  // The unmatched spill stays for a later restart with the right key.
  EXPECT_EQ(spill_file_count(spill.path), 1u);
}

TEST(SolverService, CorruptSpillIsDeletedAtRecoveryScan) {
  const Graph g = workload(67);
  SpillDir spill;
  ASSERT_FALSE(spill.path.empty());
  {
    std::ofstream os(spill.path + "/ckpt-deadbeef.ckpt", std::ios::binary);
    os << "not a snapshot container";
  }

  ServiceOptions sopt;
  sopt.spill_dir = spill.path;
  SolverService service(sopt);
  // The unreadable spill was counted and deleted (its bytes are gone for
  // good); the service still serves requests normally.
  EXPECT_GE(service.stats().checkpoint_spill_failures, 1u);
  EXPECT_EQ(spill_file_count(spill.path), 0u);
  auto req = service.submit(g, hier());
  EXPECT_TRUE(req->wait().ok());
}

TEST(SolverService, SpillWriteFailureDegradesToInMemory) {
  const Graph g = workload(71);
  SpillDir spill;
  ASSERT_FALSE(spill.path.empty());

  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.retry.max_retries = 2;
  sopt.retry.backoff_base_ms = 1;
  sopt.retry.backoff_max_ms = 2;
  sopt.spill_dir = spill.path;
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 71;

  // Attempt 1 dies at finalize; the spill write hits injected ENOSPC at
  // every boundary.  The retry must still succeed from the *in-memory*
  // checkpoint — durability is best-effort, never load-bearing.
  const std::uint64_t fire_once = seed_firing_once(0.5);
  FaultScope finalize("solve_finalize", 0, throw_fault(0.5, fire_once));
  FaultScope enospc("snapshot.write", FaultInjector::kEveryIndex,
                    [] {
                      FaultInjector::Fault f;
                      f.action = FaultInjector::Action::kIoEnospc;
                      return f;
                    }());
  SolverService service(sopt);
  auto req = service.submit(g, hier(), opt);
  const RetrySolveReport& rep = req->wait();
  ASSERT_TRUE(rep.ok()) << rep.status.to_string();
  EXPECT_GE(rep.result.telemetry.checkpoint_trees, 1);
  EXPECT_EQ(service.stats().checkpoint_spills, 0u);
  EXPECT_GE(service.stats().checkpoint_spill_failures, 1u);
  EXPECT_EQ(spill_file_count(spill.path), 0u);
}

}  // namespace
}  // namespace hgp
