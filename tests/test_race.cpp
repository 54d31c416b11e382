// Concurrency stress tests, written for TSan (the `tsan` preset /
// HGP_SANITIZE=thread).  Each test drives a shared structure from enough
// threads that any missing synchronization in src/parallel, src/runtime or
// src/util shows up as a data-race report rather than a flaky assertion.
// The tests also pass under plain builds, so they run in every preset of
// the sanitizer matrix (scripts/check_sanitizers.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/signature.hpp"
#include "core/tree_solver.hpp"
#include "decomp/builder.hpp"
#include "graph/generators.hpp"
#include "obs/event_journal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/introspect.hpp"
#include "graph/fingerprint.hpp"
#include "graph/mutation_log.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/incremental.hpp"
#include "runtime/service.hpp"
#include "runtime/shard_server.hpp"
#include "runtime/solver.hpp"
#include "util/deadline.hpp"
#include "util/fault_injector.hpp"
#include "util/memory_budget.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace hgp {
namespace {

Graph demand_graph(std::uint64_t seed, Vertex n = 16) {
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

// The signature DP's merge algebra hammered through parallel_for from every
// worker at once.  The space is shared read-only after construction; a
// stray mutable member or lazily-filled cache inside merge/lift would race
// here.
TEST(Race, ConcurrentSignatureMergesOverSharedSpace) {
  ScaledDemands scaled;
  scaled.units_per_capacity = 4;
  scaled.capacity = {48, 16, 4};
  scaled.total = 40;
  const SignatureSpace space(scaled, 2);

  ThreadPool pool(4);
  const std::size_t ids = space.size();
  std::atomic<std::size_t> merges{0};
  parallel_for(pool, 0, ids, [&](std::size_t a) {
    for (std::size_t b = 0; b < ids; b += 3) {
      for (int j1 = 0; j1 <= 2; ++j1) {
        for (int j2 = 0; j2 <= 2; ++j2) {
          const std::size_t m = space.merge(a, j1, b, j2, 2);
          if (m != SignatureSpace::npos) {
            validate_signature(space, m);
            merges.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  });
  EXPECT_GT(merges.load(), 0u);
}

// Whole tree solves (signature DP + conversion) racing on one pool, the way
// runtime/solver.cpp fans the forest out.
TEST(Race, ConcurrentTreeSolvesShareOnePool) {
  const Graph g = demand_graph(7);
  const Hierarchy& h = hier();
  const FmCutter cutter;
  Rng rng(11);
  std::vector<DecompTree> forest;
  for (int i = 0; i < 4; ++i) {
    Rng child = rng.fork(static_cast<std::uint64_t>(i));
    forest.push_back(build_decomp_tree(g, child, cutter));
  }

  ThreadPool pool(4);
  std::vector<double> costs(forest.size(), 0.0);
  parallel_for(pool, 0, forest.size(), [&](std::size_t i) {
    const TreeHgpSolution sol = solve_hgpt(forest[i].tree(), h);
    costs[i] = assignment_cost(forest[i].tree(), h, sol.assignment);
  });
  for (double c : costs) EXPECT_GE(c, 0.0);
}

// End-to-end parallel solve: the forest build and the per-tree DP solves
// all run on the pool while the main thread spins on the shared attempt
// records only after completion.
TEST(Race, ParallelForestSolveEndToEnd) {
  const Graph g = demand_graph(3);
  const Hierarchy& h = hier();
  ThreadPool pool(4);
  SolverOptions opt;
  opt.num_trees = 4;
  opt.pool = &pool;
  const HgpResult result = solve_hgp(g, h, opt);
  EXPECT_EQ(result.method, SolveMethod::kHgp);
  EXPECT_EQ(result.attempts.size(), 4u);
}

// Cancel raised from a second thread mid-solve: the token write races the
// workers' PeriodicCheck polls by design; TSan must see only the atomic.
TEST(Race, CancelMidSolveFromAnotherThread) {
  const Graph g = demand_graph(5);
  const Hierarchy& h = hier();
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(4);
    CancelToken cancel;
    SolverOptions opt;
    opt.num_trees = 6;
    opt.pool = &pool;
    opt.cancel = &cancel;
    std::thread canceller([&cancel, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      cancel.request_cancel();
    });
    try {
      const HgpResult result = solve_hgp(g, h, opt);
      // The solve may win the race and finish before the token flips.
      EXPECT_EQ(result.attempts.size(), 6u);
    } catch (const SolveError& e) {
      EXPECT_EQ(e.code(), StatusCode::kCancelled);
    }
    canceller.join();
  }
}

// Many threads polling one expiring Deadline through PeriodicCheck while
// parallel_for chunks unwind: deadline reads are const on an immutable
// value, so this is race-free by construction — TSan verifies.
TEST(Race, SharedDeadlineExpiryUnderParallelFor) {
  ThreadPool pool(4);
  ExecContext exec;
  exec.deadline = Deadline::after_ms(2);
  std::atomic<std::size_t> visited{0};
  try {
    parallel_for(
        pool, 0, 1u << 18,
        [&](std::size_t) {
          visited.fetch_add(1, std::memory_order_relaxed);
        },
        1, &exec);
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_GT(visited.load(), 0u);
}

// Arm/disarm from a control thread racing workers that cross the fault
// site continuously.  Exercises the armed-count fast path, the locked
// table handoff, and the scoped disarm that must not clobber other keys.
TEST(Race, FaultInjectorArmDisarmVsConcurrentReaders) {
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> fires{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        try {
          FaultInjector::instance().on_site("race_site", 0);
        } catch (const SolveError&) {
          fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Fault fault;
    fault.action = FaultInjector::Action::kInfeasible;
    const FaultScope scope("race_site", 0, fault);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  // The window is narrow on a loaded box; firing at least once over 200
  // arm cycles is all the determinism this race admits.
  SUCCEED() << "observed " << fires.load() << " injected faults";
}

// Two scopes on different keys, destroyed from different threads: each
// must remove only its own fault (the old disarm-all-on-exit behaviour
// made this test's second scope silently vanish).
TEST(Race, ScopedDisarmIsKeyLocal) {
  FaultInjector::Fault fault;
  fault.action = FaultInjector::Action::kInfeasible;
  const FaultScope outer("race_outer", FaultInjector::kEveryIndex, fault);
  {
    const FaultScope inner("race_inner", 0, fault);
    EXPECT_THROW(FaultInjector::instance().on_site("race_inner", 0),
                 SolveError);
  }
  // inner's destruction must not have disarmed outer.
  EXPECT_THROW(FaultInjector::instance().on_site("race_outer", 5), SolveError);
}

// Two DP solves of DIFFERENT trees on two threads at once: the DP's only
// process-global state (the metrics that publish_dp_metrics feeds) is
// touched from both, and each solve must still reproduce its own
// single-thread result.
TEST(Race, CompetingDpSolvesShareProcessGlobals) {
  auto make_tree = [](std::uint64_t seed) {
    Rng rng(seed);
    const Graph g = gen::random_tree(250, rng, gen::WeightRange{1.0, 6.0});
    Tree t = Tree::from_graph(g, 0);
    std::vector<double> d(static_cast<std::size_t>(t.leaf_count()));
    for (double& x : d) x = rng.next_double(0.005, 0.025);
    t.set_leaf_demands(d);
    return t;
  };
  const Tree t1 = make_tree(21);
  const Tree t2 = make_tree(22);
  const Hierarchy& h = hier();

  TreeDpOptions opt;
  opt.units_override = 3;
  double c1 = -1, c2 = -1;
  std::thread s1([&] { c1 = solve_rhgpt(t1, h, opt).cost; });
  std::thread s2([&] { c2 = solve_rhgpt(t2, h, opt).cost; });
  s1.join();
  s2.join();

  EXPECT_EQ(c1, solve_rhgpt(t1, h, opt).cost);
  EXPECT_EQ(c2, solve_rhgpt(t2, h, opt).cost);
}

// Concurrent end-to-end solves of the SAME instance: the second wave is
// served by the forest LRU cache, so the shared cache's find/insert and
// the shared immutable forest snapshot get hammered from every thread.
TEST(Race, ForestCacheServesConcurrentSolves) {
  const Graph g = demand_graph(9);
  const Hierarchy& h = hier();
  std::vector<std::thread> solvers;
  std::vector<double> costs(4, -1);
  for (int r = 0; r < 4; ++r) {
    solvers.emplace_back([&, r] {
      SolverOptions opt;
      opt.num_trees = 2;
      opt.seed = 5;
      costs[static_cast<std::size_t>(r)] = solve_hgp(g, h, opt).cost;
    });
  }
  for (auto& t : solvers) t.join();
  for (double c : costs) EXPECT_EQ(c, costs[0]);
}

// Submission storm: many producer threads submit to one pool at once while
// results drain through futures.
TEST(Race, ThreadPoolConcurrentSubmitters) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      std::vector<std::future<void>> futures;
      futures.reserve(50);
      for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.submit([&total] {
          total.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(total.load(), 200);
}

// --- Service layer under TSan ---------------------------------------------

// Submission storm racing a mid-stream drain(): submitter threads hammer
// submit while another thread flips the service into draining, so the
// admission path, the queue, and the terminal-report handoff all run
// concurrently.  Every handle must still reach a documented terminal
// state and the admission ledger must balance.
TEST(Race, ServiceConcurrentSubmitAndDrain) {
  const Graph g = demand_graph(31);
  const Hierarchy& h = hier();
  ServiceOptions sopt;
  sopt.workers = 2;
  sopt.max_queue = 4;
  SolverService service(sopt);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 10;
  std::vector<std::shared_ptr<ServiceRequest>> handles[kThreads];
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int p = 0; p < kThreads; ++p) {
    submitters.emplace_back([&, p] {
      for (int i = 0; i < kPerThread; ++i) {
        SolverOptions opt;
        opt.num_trees = 1;
        opt.seed = static_cast<std::uint64_t>(p * 100 + i);
        handles[p].push_back(service.submit(g, h, opt));
      }
    });
  }
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service.drain();
  });
  for (auto& t : submitters) t.join();
  drainer.join();
  service.drain();  // idempotent; everything terminal afterwards

  for (const auto& wave : handles) {
    for (const auto& req : wave) {
      const RetrySolveReport& rep = req->wait();
      EXPECT_TRUE(req->done());
      // Valid inputs: every terminal status except kInvalidInput is a
      // documented outcome (ok, rejected, cancelled, degraded failure).
      EXPECT_NE(rep.status.code, StatusCode::kInvalidInput)
          << rep.status.to_string();
      if (rep.ok()) {
        EXPECT_TRUE(rep.has_result);
        EXPECT_EQ(rep.result.placement.leaf_of.size(),
                  static_cast<std::size_t>(g.vertex_count()));
      }
    }
  }
  const SolverService::Stats s = service.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.submitted, s.admitted + s.rejected());
  EXPECT_EQ(s.completed, s.admitted);
}

// Watchdog with a hair-trigger timeout racing requests that complete in
// about the same time: the per-attempt token swap, the watchdog's
// cancelled-classification flag, and normal completion all collide.  A
// request must end kOk (it won the race, possibly after retries) or
// kCancelled (the watchdog won and the retry budget ran out) — nothing
// else, and never a torn report.
TEST(Race, ServiceWatchdogCancelRacesCompletion) {
  const Graph g = demand_graph(33);
  const Hierarchy& h = hier();
  ServiceOptions sopt;
  sopt.workers = 2;
  sopt.max_queue = 32;
  sopt.retry.max_retries = 2;
  sopt.retry.backoff_base_ms = 0;
  sopt.retry.backoff_max_ms = 1;
  sopt.stuck_after_ms = 1;  // same order as a small solve's runtime
  sopt.watchdog_poll_ms = 1;
  SolverService service(sopt);

  std::vector<std::shared_ptr<ServiceRequest>> handles;
  handles.reserve(16);
  for (int i = 0; i < 16; ++i) {
    SolverOptions opt;
    opt.num_trees = 1;
    opt.seed = static_cast<std::uint64_t>(i);
    handles.push_back(service.submit(g, h, opt));
  }
  service.drain();

  for (const auto& req : handles) {
    const RetrySolveReport& rep = req->wait();
    EXPECT_TRUE(req->done());
    EXPECT_TRUE(rep.status.code == StatusCode::kOk ||
                rep.status.code == StatusCode::kCancelled)
        << rep.status.to_string();
    EXPECT_LE(rep.retries_used, sopt.retry.max_retries);
    if (rep.ok()) {
      EXPECT_TRUE(rep.has_result);
    }
  }
  // How often the watchdog wins is timing-dependent; the invariant under
  // test is the absence of races and of undocumented statuses.
  SUCCEED() << "watchdog cancels: " << service.stats().watchdog_cancels;
}

// Budget accounting under parallel DP: concurrent solves sharing one inner
// pool charge and release the global MemoryBudget from every worker at
// once (arena chunks, dense-table pool).  After the storm, usage must
// return exactly to the post-warmup baseline — a lost or doubled atomic
// update would leave a permanent drift.  Baseline-relative because the
// forest cache legitimately retains its charges across solves.
TEST(Race, ServiceBudgetAccountingUnderParallelDp) {
  const Graph g = demand_graph(35, 32);
  const Hierarchy& h = hier();
  MemoryBudget& budget = MemoryBudget::global();

  SolverOptions warm;
  warm.num_trees = 2;
  warm.seed = 5;
  solve_hgp(g, h, warm);  // populate the forest cache for this key
  const std::size_t used0 = budget.used();

  const std::size_t old_limit = budget.limit();
  budget.set_limit(used0 + (std::size_t{512} << 20));  // generous headroom

  ThreadPool pool(4);
  std::vector<std::thread> solvers;
  std::vector<double> costs(4, -1);
  for (int r = 0; r < 4; ++r) {
    solvers.emplace_back([&, r] {
      for (int round = 0; round < 3; ++round) {
        SolverOptions opt;
        opt.num_trees = 2;
        opt.seed = 5;  // cache hit: no new retained charges
        opt.pool = &pool;
        costs[static_cast<std::size_t>(r)] = solve_hgp(g, h, opt).cost;
      }
    });
  }
  for (auto& t : solvers) t.join();
  budget.set_limit(old_limit);

  for (double c : costs) EXPECT_EQ(c, costs[0]);
  // Every per-solve charge (arenas, table pools) must have been released.
  EXPECT_EQ(budget.used(), used0);
}

// Submit / drain / watchdog wakeups hammered from every direction at once.
// The storm drives all three service condition variables (work_cv_,
// idle_cv_, watchdog_cv_) plus every per-request cv_ concurrently.  TSan
// cannot see a lost wakeup — a predicate stored outside the waiter's mutex
// races nothing it tracks — so the failure mode this case targets is a
// hang: a wait() or drain() that never returns because its notify landed
// in the check-then-block window.
TEST(Race, ServiceWakeupStormSubmitDrainWatchdog) {
  const Graph g = demand_graph(77, 16);
  const Hierarchy& h = hier();

  for (int round = 0; round < 3; ++round) {
    ServiceOptions sopt;
    sopt.workers = 3;
    sopt.max_queue = 256;
    sopt.retry.max_retries = 1;
    sopt.retry.backoff_base_ms = 0.1;
    sopt.stuck_after_ms = 2000;  // watchdog polls, nothing actually sticks
    sopt.watchdog_poll_ms = 1;
    SolverService service(sopt);

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 8;
    std::vector<std::vector<std::shared_ptr<ServiceRequest>>> handles(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        auto& mine = handles[static_cast<std::size_t>(t)];
        for (int i = 0; i < kPerThread; ++i) {
          SolverOptions opt;
          opt.num_trees = 1;
          opt.seed = static_cast<std::uint64_t>(t * 100 + i);
          mine.push_back(service.submit(g, h, opt));
          if (i % 3 == 0) std::this_thread::yield();
        }
        // A cancel racing the retry/backoff machinery: exercises the
        // store-under-lock + notify-after-unlock path in cancel() against
        // a concurrent wait().
        mine.front()->cancel();
        for (auto& r : mine) r->wait();
      });
    }
    for (auto& t : submitters) t.join();
    // Drain races the tail of the last completions; it must observe
    // quiescence via idle_cv_, not by luck.
    service.drain();
    for (auto& per : handles) {
      for (auto& r : per) EXPECT_TRUE(r->done());
    }
  }
}

// The thread pool's two wakeup paths — submit's notify_one and the
// destructor's stop broadcast — churned in a tight loop.  Each round ends
// with idle workers blocked on the queue cv; a stop_ store that escaped
// the mutex (or a dropped broadcast) would leave a worker blocked forever
// and hang the join in ~ThreadPool.
TEST(Race, ThreadPoolWakeupChurnSubmitVsShutdown) {
  std::atomic<long> ran{0};
  constexpr int kRounds = 25;
  constexpr int kSubmitters = 3;
  constexpr int kJobs = 40;
  for (int round = 0; round < kRounds; ++round) {
    ThreadPool pool(3);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        std::vector<std::future<void>> futures;
        futures.reserve(kJobs);
        for (int i = 0; i < kJobs; ++i) {
          futures.push_back(pool.submit(
              [&] { ran.fetch_add(1, std::memory_order_relaxed); }));
        }
        for (auto& f : futures) f.get();
      });
    }
    for (auto& t : submitters) t.join();
  }
  EXPECT_EQ(ran.load(std::memory_order_relaxed),
            static_cast<long>(kRounds) * kSubmitters * kJobs);
}

// --- Incremental churn under TSan ------------------------------------------

/// Session base for the churn races: demands round to one unit each at
/// units_override=3 (d ≤ 1/3), so drift-only schedules can never push the
/// rounded instance over hier()'s 4x3-unit capacity — every resolve ends
/// kOk or, having lost the commit race, kInvalidInput.
std::shared_ptr<const Graph> churn_base(std::uint64_t seed) {
  Rng rng(seed);
  Graph g = gen::planted_partition(10, 4, 0.75, 0.1, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 0.25);
  return std::make_shared<const Graph>(std::move(g));
}

/// Drift-only churn mix (volume reweights + demand nudges below the 1/3
/// rounding step) for the service races: keeps the instance size and
/// feasibility fixed while still invalidating subtrees.
gen::ChurnOptions race_drift() {
  gen::ChurnOptions copt;
  copt.ops = 2;
  copt.w_add_vertex = 0;
  copt.w_remove_vertex = 0;
  copt.w_add_edge = 0;
  copt.w_remove_edge = 0;
  copt.demand_lo = 0.05;
  copt.demand_hi = 0.30;
  return copt;
}

// Concurrent mutation submission against one incremental session while its
// resolves are in flight: submitter threads race begin_batch (snapshot
// read), the optimistic stale check, and the atomic commit under the
// session mutex, with plain solves of another instance interleaving on the
// same workers.  Losing threads must see a terminal kInvalidInput and
// succeed after rebasing; the committed chain must stay consistent (the
// session's last placement always matches its current graph).
TEST(Race, ServiceConcurrentResolveBatchesRebaseOnStale) {
  const auto base = churn_base(91);
  const Hierarchy& h = hier();
  ServiceOptions sopt;
  sopt.workers = 2;
  sopt.max_queue = 64;
  SolverService service(sopt);
  IncrementalOptions iopt;
  iopt.num_trees = 2;
  iopt.units_override = 3;
  iopt.seed = 17;
  const auto session = service.open_incremental(base, h, iopt);

  constexpr int kThreads = 3;
  constexpr int kBatches = 4;
  std::atomic<int> committed{0};
  std::atomic<int> stale{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int b = 0; b < kBatches; ++b) {
        // Rebase loop: each lost commit race re-records the batch against
        // the newly committed snapshot (bounded — every round commits
        // someone, so kThreads rounds suffice; 16 is slack).
        for (int attempt = 0; attempt < 16; ++attempt) {
          const auto log = session->begin_batch();
          gen::churn(*log, race_drift(), rng);
          if (log->empty()) break;
          const auto req = service.submit_resolve(session, log);
          const RetrySolveReport& rep = req->wait();
          if (rep.ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          if (rep.status.code == StatusCode::kInvalidInput) {
            stale.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          unexpected.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "unexpected resolve status: "
                        << rep.status.to_string();
          break;
        }
      }
    });
  }
  // Plain solves of a different instance share the same worker pool the
  // whole time, so resolve requests and classic requests interleave.
  const Graph other = demand_graph(93);
  std::vector<std::shared_ptr<ServiceRequest>> plain;
  plain.reserve(8);
  for (int i = 0; i < 8; ++i) {
    SolverOptions opt;
    opt.num_trees = 1;
    opt.seed = static_cast<std::uint64_t>(i);
    plain.push_back(service.submit(other, h, opt));
  }
  for (auto& t : churners) t.join();
  service.drain();

  EXPECT_EQ(committed.load(), kThreads * kBatches);
  EXPECT_EQ(unexpected.load(), 0);
  for (const auto& req : plain) {
    EXPECT_TRUE(req->wait().ok()) << req->wait().status.to_string();
  }
  // The committed chain is self-consistent after the storm.
  const HgpResult& last = session->last();
  EXPECT_EQ(last.placement.leaf_of.size(),
            static_cast<std::size_t>(session->graph()->vertex_count()));
  EXPECT_GE(service.stats().resolves,
            static_cast<std::uint64_t>(committed.load()));
  SUCCEED() << committed.load() << " commits, " << stale.load()
            << " stale rejections";
}

// Warm-start checkpoint recovery racing a churn batch: a service restart
// recovers a durable spill while resolve batches hammer an incremental
// session on the same workers.  The resumed request must still finish from
// the recovered trees (not re-solve), the churn batches must all commit,
// and TSan watches the spill index, the checkpoint store and the session
// state collide.
TEST(Race, ServiceSpillRecoveryRacesResolveBatches) {
  const Graph other = demand_graph(95);
  const Hierarchy& h = hier();
  std::string spill_dir;
  {
    std::string templ =
        (std::filesystem::temp_directory_path() / "hgp-race-spill-XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(templ.data()), nullptr);
    spill_dir = templ;
  }

  ServiceOptions sopt;
  sopt.workers = 2;
  sopt.max_queue = 64;
  sopt.retry.max_retries = 0;  // first failure is terminal → one spill
  sopt.spill_dir = spill_dir;
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 95;
  opt.fallback = FallbackPolicy::kNone;

  // "Process" 1: every tree completes, then the finalize boundary dies —
  // the checkpoint (all trees) spills durably.
  {
    FaultInjector::Fault fault;
    fault.action = FaultInjector::Action::kThrow;
    const FaultScope finalize("solve_finalize", 0, fault);
    SolverService crashing(sopt);
    EXPECT_FALSE(crashing.submit(other, h, opt)->wait().ok());
    EXPECT_EQ(crashing.stats().checkpoint_spills, 1u);
  }

  // "Process" 2: the restart indexes the spill; the matching request and a
  // churn-batch storm run concurrently.
  {
    SolverService restarted(sopt);
    IncrementalOptions iopt;
    iopt.num_trees = 2;
    iopt.units_override = 3;
    iopt.seed = 19;
    const auto session = restarted.open_incremental(churn_base(97), h, iopt);

    std::atomic<int> committed{0};
    std::thread churner([&] {
      Rng rng(7);
      for (int b = 0; b < 6; ++b) {
        for (int attempt = 0; attempt < 16; ++attempt) {
          const auto log = session->begin_batch();
          gen::churn(*log, race_drift(), rng);
          if (log->empty()) break;
          // Hold the request: wait() returns a reference into it.
          const auto req = restarted.submit_resolve(session, log);
          const RetrySolveReport& rep = req->wait();
          if (rep.ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          EXPECT_EQ(rep.status.code, StatusCode::kInvalidInput)
              << rep.status.to_string();
        }
      }
    });
    const auto resumed = restarted.submit(other, h, opt);
    const RetrySolveReport& rep = resumed->wait();
    churner.join();
    restarted.drain();

    ASSERT_TRUE(rep.ok()) << rep.status.to_string();
    ASSERT_TRUE(rep.has_result);
    // Every tree came from the recovered checkpoint (warm start).
    EXPECT_EQ(rep.result.telemetry.checkpoint_trees, opt.num_trees);
    EXPECT_EQ(restarted.stats().checkpoint_recovered, 1u);
    EXPECT_EQ(committed.load(), 6);
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// --- Observability layer under TSan ----------------------------------------

// Journal writers on every thread racing flight-recorder dumps and both
// reader paths (the sorting snapshot and the signal-safe ring copy).  The
// journal's claim is lock-free writes with acquire-published reads; a
// non-atomic slot field or a missed release on the ring head would race
// here.  The lap-detection discard makes counts approximate, so the
// assertions are sanity bounds, not totals.
TEST(Race, JournalConcurrentWritersVsFlightDump) {
  obs::EventJournal::global().clear();
  // Fixed work per writer (not run-until-told-to-stop): the dump loop
  // below spins until every writer finished, so the readers and writers
  // overlap regardless of how late the OS schedules the new threads.
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        obs::EventJournal::global().record(
            obs::EventKind::kCheckpointRecord,
            static_cast<std::uint64_t>(w) + 1, 1,
            static_cast<std::int64_t>(i), 0);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::vector<obs::JournalEvent> scratch(
      obs::EventJournal::kMaxSignalEvents);
  int rounds = 0;
  // A few extra rounds after the last writer exits read the quiesced tail.
  for (int tail = 0; writers_done.load(std::memory_order_acquire) < 4 ||
                     tail++ < 3;
       ++rounds) {
    std::ostringstream os;
    obs::FlightRecorder::global().write_json(os, "race test");
    EXPECT_NE(os.str().find("\"events\": ["), std::string::npos);
    const std::size_t n = obs::EventJournal::global().copy_events_signal_safe(
        scratch.data(), scratch.size());
    EXPECT_LE(n, scratch.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(scratch[i].kind, obs::EventKind::kCheckpointRecord);
      EXPECT_GE(scratch[i].request_id, 1u);
      EXPECT_LE(scratch[i].request_id, 4u);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(rounds, 0);
  EXPECT_GE(obs::EventJournal::global().recorded(), 4 * kPerWriter);
  obs::EventJournal::global().clear();
}

#if HGP_OBS_ENABLED
// Endpoint scrapes racing a submit/drain/watchdog storm: the server thread
// walks live service state (write_requests_json nests the request locks
// under the service lock) while workers mutate it, the watchdog scans it,
// and submitters grow it.  Scrapes must stay well-formed the whole time —
// the last scrape runs after drain, against a quiescent service.
TEST(Race, IntrospectScrapeDuringServiceStorm) {
  const Graph g = demand_graph(41);
  const Hierarchy& h = hier();
  ServiceOptions sopt;
  sopt.workers = 2;
  sopt.max_queue = 64;
  sopt.retry.max_retries = 1;
  sopt.retry.backoff_base_ms = 0.1;
  sopt.stuck_after_ms = 1;  // watchdog fires into the storm
  sopt.watchdog_poll_ms = 1;
  sopt.obs_socket =
      (std::filesystem::temp_directory_path() /
       ("hgp-race-" + std::to_string(::getpid()) + ".sock"))
          .string();
  SolverService service(sopt);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> scrapes_ok{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string metrics;
      std::string requests;
      const bool ok =
          obs::introspect_fetch(sopt.obs_socket, "/metrics", &metrics).ok() &&
          obs::introspect_fetch(sopt.obs_socket, "/requests", &requests).ok();
      if (ok) {
        EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
        EXPECT_NE(requests.find("\"queue_depth\":"), std::string::npos);
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 8;
  std::vector<std::vector<std::shared_ptr<ServiceRequest>>> handles(
      kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      auto& mine = handles[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) {
        SolverOptions opt;
        opt.num_trees = 1;
        opt.seed = static_cast<std::uint64_t>(t * 100 + i);
        mine.push_back(service.submit(g, h, opt));
      }
      for (auto& r : mine) r->wait();
    });
  }
  for (auto& t : submitters) t.join();
  service.drain();

  // One scrape against the drained service must succeed deterministically.
  std::string final_requests;
  EXPECT_TRUE(
      obs::introspect_fetch(sopt.obs_socket, "/requests", &final_requests)
          .ok());
  EXPECT_NE(final_requests.find("\"draining\":true"), std::string::npos);
  stop.store(true, std::memory_order_release);
  scraper.join();
  for (auto& per : handles) {
    for (auto& r : per) EXPECT_TRUE(r->done());
  }
  SUCCEED() << scrapes_ok.load() << " clean scrapes mid-storm";
}
#endif  // HGP_OBS_ENABLED

// ---------------------------------------------------------------------------
// Sharded-coordinator traffic under TSan.  The coordinator's state (shard
// states, lease epochs, lease clocks, the report) belongs to its one loop on
// the caller's thread, while in-process shards beat, solve and reply from
// their own threads and a canceller fires from another — these tests drive
// all of them at once so any state shared across threads shows up as a
// report.

struct RaceShardThread {
  std::thread thread;
  ~RaceShardThread() {
    if (thread.joinable()) thread.join();
  }
};

net::Socket race_start_shard(std::deque<RaceShardThread>& pool,
                             ShardServerOptions opt = {}) {
  auto [mine, theirs] = net::socket_pair();
  RaceShardThread& sh = pool.emplace_back();
  sh.thread = std::thread([sock = std::move(theirs), opt]() mutable {
    net::FrameChannel ch(std::move(sock));
    run_shard_server(ch, opt);
  });
  return std::move(mine);
}

// Many shards beating fast while trees flow: the loop reads heartbeats and
// results from every socket between its lease scans and assignment passes.
TEST(Race, CoordinatorConcurrentHeartbeatsAndResults) {
  const Graph g = demand_graph(31, 20);
  SolverOptions opt;
  opt.num_trees = 6;
  opt.seed = 31;

  std::deque<RaceShardThread> pool;
  CoordinatorOptions copt;
  copt.heartbeat_ms = 1;  // heartbeat storm: every shard beats ~1kHz
  ShardCoordinator coord(g, hier(), opt, copt);
  ShardServerOptions sopt;
  sopt.heartbeat_ms = 1;
  for (int i = 0; i < 4; ++i) coord.adopt_shard(race_start_shard(pool, sopt));
  const HgpResult got = coord.solve();

  const HgpResult want = solve_hgp(g, hier(), opt);
  EXPECT_EQ(got.placement.leaf_of, want.placement.leaf_of);
  EXPECT_EQ(coord.report().trees_from_shards, 6);
}

// Lease expiry + reassignment racing live result delivery: laggards that
// stop beating lose their leases and deliver their results late, under
// stale epochs, while the honest shards solve the reassigned trees.  The
// lease is far above the beat gaps an overloaded host has shown (36-92 ms
// between an honest shard's beats), and each laggard holds its tree until
// an honest shard has started it, so the laggards' expiry and the honest
// shards' survival do not depend on the scheduler.
TEST(Race, CoordinatorReassignmentRacesResultDelivery) {
  const Graph g = demand_graph(32, 20);
  SolverOptions opt;
  opt.num_trees = 8;
  opt.seed = 32;

  Mutex mu;
  CondVar cv;
  bool laggard_leased = false;
  std::vector<int> honest_started;
  const auto wait_until = [&](const std::function<bool()>& done) {
    const Deadline bound = Deadline::after_ms(30000);
    MutexLock lock(mu);
    while (!done() && !bound.expired()) cv.wait_for_ms(mu, 20);
  };

  std::deque<RaceShardThread> pool;
  CoordinatorOptions copt;
  copt.lease_ms = 400;
  ShardCoordinator coord(g, hier(), opt, copt);

  // The honest shards beat every 5 ms and hold their first tree until a
  // laggard has taken a lease, so the laggards cannot be left without one.
  ShardServerOptions honest;
  honest.heartbeat_ms = 5;
  honest.on_tree_start = [&](int tree) {
    wait_until([&] { return laggard_leased; });
    const MutexLock lock(mu);
    honest_started.push_back(tree);
    cv.notify_all();
  };
  // The laggards never beat, and hold each tree until an honest shard has
  // started it, which it does only once the laggard's lease has expired.
  ShardServerOptions laggard;
  laggard.heartbeat_ms = 60000;
  laggard.on_tree_start = [&](int tree) {
    {
      const MutexLock lock(mu);
      laggard_leased = true;
      cv.notify_all();
    }
    wait_until([&] {
      return std::find(honest_started.begin(), honest_started.end(), tree) !=
             honest_started.end();
    });
  };
  for (int i = 0; i < 2; ++i) coord.adopt_shard(race_start_shard(pool, honest));
  for (int i = 0; i < 2; ++i)
    coord.adopt_shard(race_start_shard(pool, laggard));
  const HgpResult got = coord.solve();

  const HgpResult want = solve_hgp(g, hier(), opt);
  EXPECT_EQ(got.placement.leaf_of, want.placement.leaf_of);
  EXPECT_EQ(std::memcmp(&got.cost, &want.cost, sizeof got.cost), 0);
  EXPECT_EQ(coord.report().batches_completed, 8);
  EXPECT_GE(coord.report().batches_reassigned, 1);
}

// Caller cancellation from another thread while shards stream results: the
// cancel path (supervise throws -> cleanup sends Shutdown and closes every
// channel) must not race the shards' own threads.
TEST(Race, CoordinatorCancelRacesShardTraffic) {
  const Graph g = demand_graph(33, 20);
  CancelToken cancel;
  SolverOptions opt;
  opt.num_trees = 8;
  opt.seed = 33;
  opt.cancel = &cancel;

  std::deque<RaceShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), opt, copt);
  ShardServerOptions sopt;
  sopt.heartbeat_ms = 1;
  sopt.on_tree_start = [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  for (int i = 0; i < 3; ++i) coord.adopt_shard(race_start_shard(pool, sopt));

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.request_cancel();
  });
  try {
    (void)coord.solve();
    // Legal: every tree may have finished before the cancel landed.
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
  canceller.join();
}

}  // namespace
}  // namespace hgp
