// hgp_chaos — chaos harness for the solver service layer.
//
//   hgp_chaos [--requests N] [--seed S] [--metrics FILE] [--verbose]
//             [--obs-socket PATH] [--flight-dump FILE] [--hold-open-ms N]
//
// Fires N concurrent requests at a SolverService while seeded probabilistic
// fault schedules (util/fault_injector.hpp) crash trees, kill solves at the
// finalize boundary and break fallback stages; a canceller thread aborts a
// random subset of requests in flight; a small admission queue and a global
// memory budget put the service under the pressure it exists to absorb.
//
// The harness then asserts the service's contract:
//   * every request ends in a documented terminal status (never hangs,
//     never leaks an unclassified exception, never OOM-aborts),
//   * every placed result is a valid placement with finite cost,
//   * no request exceeds its retry budget,
//   * the run exercised ≥ 1 admission rejection, ≥ 1 successful retry and
//     ≥ 1 checkpoint-resume (the three behaviours the service adds).
//
// Exit 0 when every invariant held, 1 otherwise.  Deterministic in --seed
// up to OS scheduling (fault draws are seeded streams consumed in arrival
// order).  CI runs this under ASan — see scripts/chaos_smoke.sh.
//
// Observability hooks (PR 8): --obs-socket exposes the storm service's
// live introspection endpoint so CI can scrape /metrics and /requests
// mid-storm (scripts/obs_endpoint_smoke.sh); --hold-open-ms keeps the
// endpoint alive that long after the phases finish so a scraper never
// races the exit; --flight-dump names the flight-recorder file the
// services dump on watchdog cancels and the harness attaches (as
// FILE.assert) to every failed CHAOS_EXPECT.  Phase 4 stalls attempts
// under an aggressive watchdog and asserts the dump names every
// retry/degrade/spill step of the affected request.
//
// Churn phase (PR 9): phase 5 opens an incremental session and fires
// concurrent seeded churn batches at it through submit_resolve while a
// probabilistic fault schedule crashes trees mid-resolve.  Losers of the
// optimistic commit race must see the documented kInvalidInput rejection
// and succeed after rebasing; failed resolves must leave the committed
// session state untouched (the same batch resubmits verbatim); and the
// final committed placement must validate against the final committed
// graph.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "hierarchy/cost.hpp"
#include "hierarchy/placement.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/service.hpp"
#include "util/fault_injector.hpp"
#include "util/memory_budget.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace {

using namespace hgp;

int g_failures = 0;
std::string g_flight_dump;  // --flight-dump (or a temp default)

/// Every failed expectation gets a flight-recorder dump next to the
/// configured dump file: the journal tail says what the service was doing
/// when the invariant broke, which a bare condition string cannot.
void attach_flight_dump(const char* cond) {
  if (g_flight_dump.empty()) return;
  const std::string path = g_flight_dump + ".assert";
  const Status s = obs::FlightRecorder::global().dump_to_file(
      path, std::string("chaos assertion failed: ") + cond);
  if (s.ok()) {
    std::fprintf(stderr, "  flight recorder attached: %s\n", path.c_str());
  }
}

#define CHAOS_EXPECT(cond, ...)              \
  do {                                       \
    if (!(cond)) {                           \
      ++g_failures;                          \
      std::fprintf(stderr, "FAIL: ");        \
      std::fprintf(stderr, __VA_ARGS__);     \
      std::fprintf(stderr, "  [%s]\n", #cond); \
      attach_flight_dump(#cond);             \
    }                                        \
  } while (0)

FaultInjector::Fault prob_throw(double p, std::uint64_t seed) {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kThrow;
  f.probability = p;
  f.seed = seed;
  return f;
}

bool documented_terminal(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInfeasible:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
      return true;
    case StatusCode::kInvalidInput:
      // The harness submits only valid inputs; seeing this is a bug.
      return false;
    case StatusCode::kDataLoss:
      // Spill/recovery integrity failures degrade to in-memory operation;
      // a request must never surface kDataLoss as its terminal status.
      return false;
    case StatusCode::kUnavailable:
      // Shard loss degrades to in-process solving (coordinator.hpp); a
      // request must never surface kUnavailable as its terminal status.
      return false;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 200;
  std::uint64_t seed = 1;
  std::string metrics_path;
  std::string obs_socket;
  std::string flight_dump;
  std::string shardd_path;
  long hold_open_ms = 0;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hgp_chaos: missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--requests")) {
      requests = std::atoi(need("--requests").c_str());
      if (requests < 1) {
        std::fprintf(stderr, "hgp_chaos: --requests must be >= 1\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(need("--seed").c_str(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics_path = need("--metrics");
    } else if (!std::strcmp(argv[i], "--obs-socket")) {
      obs_socket = need("--obs-socket");
    } else if (!std::strcmp(argv[i], "--flight-dump")) {
      flight_dump = need("--flight-dump");
    } else if (!std::strcmp(argv[i], "--shardd")) {
      shardd_path = need("--shardd");
    } else if (!std::strcmp(argv[i], "--hold-open-ms")) {
      hold_open_ms = std::strtol(need("--hold-open-ms").c_str(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--verbose")) {
      verbose = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::printf(
          "usage: hgp_chaos [--requests N] [--seed S] [--metrics FILE]\n"
          "                 [--obs-socket PATH] [--flight-dump FILE]\n"
          "                 [--shardd PATH] [--hold-open-ms N] [--verbose]\n"
          "  --shardd PATH  shard worker binary; enables phase 6, the\n"
          "                 distributed storm over real worker processes\n");
      return 0;
    } else {
      std::fprintf(stderr, "hgp_chaos: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  if (flight_dump.empty()) {
    flight_dump = (std::filesystem::temp_directory_path() /
                   "hgp-chaos-flight.json")
                      .string();
  }
  g_flight_dump = flight_dump;

  Rng master(seed);
  Graph g = gen::planted_partition(32, 4, 0.7, 0.08, master,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / 32);
  const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});

  // A budget large enough that healthy solves pass but small enough that
  // the accounting paths run for real (arena chunks charge against it).
  MemoryBudget::global().set_limit(256u << 20);

  ServiceOptions sopt;
  sopt.workers = 4;
  sopt.max_queue = 16;
  sopt.retry.max_retries = 2;
  sopt.retry.backoff_base_ms = 1;
  sopt.retry.backoff_max_ms = 8;
  sopt.retry.jitter_seed = seed;
  sopt.stuck_after_ms = 2000;  // generous: a smoke check, not a trigger
  sopt.watchdog_poll_ms = 50;

  // ---- Phase 1: deterministic admission rejection under budget pressure.
  // Saturate the budget above the admission threshold, submit, restore.
  {
    SolverService service(sopt);
    const std::size_t hog = static_cast<std::size_t>(
        static_cast<double>(MemoryBudget::global().limit()) * 0.99);
    if (!MemoryBudget::global().try_reserve(hog)) {
      CHAOS_EXPECT(false, "budget hog reservation unexpectedly failed\n");
    } else {
      auto req = service.submit(g, h);
      const RetrySolveReport& rep = req->wait();
      CHAOS_EXPECT(rep.status.code == StatusCode::kResourceExhausted,
                   "budget-pressure submit returned %s\n",
                   status_code_name(rep.status.code));
      CHAOS_EXPECT(!rep.has_result,
                   "admission-rejected request carried a result\n");
      MemoryBudget::global().release(hog);
    }
    CHAOS_EXPECT(service.stats().rejected_budget >= 1,
                 "no budget admission rejection recorded\n");
  }

  // ---- Phase 2: the storm.  Probabilistic fault schedules at the solver's
  // injection sites (seeded: same --seed, same schedule), random caller
  // cancellations, a small queue, all workers busy.
  FaultScope tree_faults("solve_one_tree", FaultInjector::kEveryIndex,
                         prob_throw(0.30, seed * 2 + 1));
  FaultScope finalize_faults("solve_finalize", 0,
                             prob_throw(0.12, seed * 3 + 1));
  FaultScope multilevel_faults("fallback_multilevel", 0,
                               prob_throw(0.20, seed * 5 + 1));

  // The storm service is the one with the live endpoint: it exists for
  // most of the run and is what a scraper should be watching.  Later
  // phases leave obs_socket empty — a second bind would steal (and on
  // destruction unlink) the path out from under this service.
  ServiceOptions storm_opt = sopt;
  storm_opt.obs_socket = obs_socket;
  storm_opt.flight_dump_path = flight_dump;
  SolverService service(storm_opt);
  std::vector<std::shared_ptr<ServiceRequest>> handles;
  handles.reserve(static_cast<std::size_t>(requests));

  SolverOptions base;
  base.num_trees = 2;
  base.epsilon = 0.5;

  // The canceller runs concurrently with submission so cancels land on
  // queued and in-flight requests, not on corpses: the submitter hands it
  // victims through a small mailbox.
  std::mutex cancel_mu;
  std::vector<std::shared_ptr<ServiceRequest>> cancel_mailbox;
  std::atomic<bool> submitting{true};
  std::thread canceller([&] {
    Rng delay(seed ^ 0xDEADBEEF);
    for (;;) {
      std::shared_ptr<ServiceRequest> victim;
      {
        const std::lock_guard<std::mutex> lock(cancel_mu);
        if (!cancel_mailbox.empty()) {
          victim = std::move(cancel_mailbox.back());
          cancel_mailbox.pop_back();
        }
      }
      if (victim == nullptr) {
        if (!submitting.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>(delay.next_double(50, 1500))));
      victim->cancel();
    }
  });

  Rng pace = master.fork(0xCA);
  for (int i = 0; i < requests; ++i) {
    // Most arrivals respect backpressure (bounded wait for queue space) so
    // the bulk of the load is admitted; the rest barge in mid-burst and
    // overflow into admission rejections when the queue is at its bound.
    if (pace.next_bool(0.8)) {
      for (int spin = 0;
           spin < 400 && service.queue_depth() >= sopt.max_queue; ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    SolverOptions opt = base;
    opt.seed = seed + static_cast<std::uint64_t>(i);
    auto req = service.submit(g, h, opt);
    handles.push_back(req);
    if (pace.next_bool(0.06)) {
      const std::lock_guard<std::mutex> lock(cancel_mu);
      cancel_mailbox.push_back(req);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(pace.next_double(0, 300))));
  }
  submitting.store(false, std::memory_order_release);

  service.drain();
  canceller.join();

  // ---- Verification.
  int ok_count = 0, cancelled = 0, rejected = 0, degraded_results = 0,
      failed_terminal = 0, retry_successes = 0, checkpoint_resumes = 0;
  for (const auto& req : handles) {
    CHAOS_EXPECT(req->done(), "request %llu not terminal after drain\n",
                 static_cast<unsigned long long>(req->id()));
    const RetrySolveReport& rep = req->wait();
    CHAOS_EXPECT(documented_terminal(rep.status.code),
                 "request %llu ended in undocumented status %s\n",
                 static_cast<unsigned long long>(req->id()),
                 status_code_name(rep.status.code));
    CHAOS_EXPECT(rep.retries_used <= sopt.retry.max_retries,
                 "request %llu used %d retries (budget %d)\n",
                 static_cast<unsigned long long>(req->id()), rep.retries_used,
                 sopt.retry.max_retries);
    if (rep.has_result) {
      try {
        validate_placement(g, h, rep.result.placement);
      } catch (const std::exception& e) {
        CHAOS_EXPECT(false, "request %llu produced invalid placement: %s\n",
                     static_cast<unsigned long long>(req->id()), e.what());
      }
      CHAOS_EXPECT(std::isfinite(rep.result.cost),
                   "request %llu result cost not finite\n",
                   static_cast<unsigned long long>(req->id()));
      if (rep.result.telemetry.checkpoint_trees > 0) ++checkpoint_resumes;
    }
    switch (rep.status.code) {
      case StatusCode::kOk:
        ++ok_count;
        if (rep.retries_used > 0) ++retry_successes;
        break;
      case StatusCode::kCancelled:
        ++cancelled;
        break;
      case StatusCode::kResourceExhausted:
        if (rep.has_result) {
          ++degraded_results;
        } else {
          ++rejected;
        }
        break;
      default:
        if (rep.has_result) {
          ++degraded_results;
        } else {
          ++failed_terminal;
        }
        break;
    }
  }

  const SolverService::Stats stats = service.stats();
  std::printf(
      "hgp_chaos: %d requests — %d ok (%d after retries), %d cancelled, "
      "%d rejected, %d degraded, %d failed\n",
      requests, ok_count, retry_successes, cancelled, rejected,
      degraded_results, failed_terminal);
  std::printf(
      "service: admitted %llu, rejected %llu (queue %llu, budget %llu, "
      "draining %llu), retries %llu, degrades %llu, watchdog cancels %llu, "
      "checkpoint trees %llu\n",
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.rejected()),
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.rejected_budget),
      static_cast<unsigned long long>(stats.rejected_draining),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.degrades),
      static_cast<unsigned long long>(stats.watchdog_cancels),
      static_cast<unsigned long long>(stats.checkpoint_trees));
  if (verbose) {
    for (const auto& req : handles) {
      const RetrySolveReport& rep = req->wait();
      std::printf("  req %3llu: %-18s retries=%d degrades=%d ckpt=%d%s\n",
                  static_cast<unsigned long long>(req->id()),
                  status_code_name(rep.status.code), rep.retries_used,
                  rep.degrades,
                  rep.has_result ? rep.result.telemetry.checkpoint_trees : 0,
                  rep.has_result ? "" : " (no result)");
    }
  }

  // The acceptance counters: phase 1 guarantees the admission rejection;
  // the storm's fault schedule makes retry successes and checkpoint
  // resumes overwhelmingly likely at the default scale (p ≈ 1 - 1e-6 at
  // 200 requests; smaller --requests runs may need a different seed).
  CHAOS_EXPECT(retry_successes >= 1, "no request succeeded after a retry\n");
  CHAOS_EXPECT(checkpoint_resumes >= 1,
               "no request resumed trees from a checkpoint\n");
  CHAOS_EXPECT(stats.checkpoint_trees >= 1,
               "service counted no checkpoint-served trees\n");

  // ---- Phase 3: durability across a service restart.  Part A: a service
  // with a spill directory and no retry budget, where every attempt dies
  // at the finalize boundary — *after* all trees completed — so each
  // terminal failure spills a full checkpoint.  Part B: a fresh service
  // (the "restarted process") over the same directory must recover the
  // spills and serve every tree of the re-submitted requests from them.
  // Destroying the first service models the kill: nothing survives it but
  // the spill files on disk, which is exactly what a dead process leaves.
  {
    // Mask the storm's probabilistic schedules (re-arming a (site, index)
    // overwrites): phase 3 needs solves that fail only where it says.
    FaultScope quiet_trees("solve_one_tree", FaultInjector::kEveryIndex, {});
    FaultScope quiet_ml("fallback_multilevel", 0, {});

    std::string spill_dir = [] {
      std::string templ = (std::filesystem::temp_directory_path() /
                           "hgp-chaos-spill-XXXXXX")
                              .string();
      return ::mkdtemp(templ.data()) != nullptr ? templ : std::string();
    }();
    CHAOS_EXPECT(!spill_dir.empty(), "mkdtemp failed for the spill dir\n");
    if (!spill_dir.empty()) {
      ServiceOptions dopt = sopt;
      dopt.workers = 2;
      dopt.retry.max_retries = 0;  // first failure is terminal → one spill
      dopt.spill_dir = spill_dir;
      constexpr int kPhase3Requests = 4;
      auto phase3_opt = [&](int i) {
        SolverOptions opt = base;
        opt.seed = seed + 1000 + static_cast<std::uint64_t>(i);
        opt.fallback = FallbackPolicy::kNone;  // let the failure propagate
        return opt;
      };
      {
        FaultScope kill_finalize("solve_finalize", 0, prob_throw(1.0, 1));
        SolverService crashing(dopt);
        std::vector<std::shared_ptr<ServiceRequest>> doomed;
        for (int i = 0; i < kPhase3Requests; ++i) {
          doomed.push_back(crashing.submit(g, h, phase3_opt(i)));
        }
        for (const auto& req : doomed) {
          const RetrySolveReport& rep = req->wait();
          CHAOS_EXPECT(!rep.ok(),
                       "phase 3 request %llu survived the finalize kill\n",
                       static_cast<unsigned long long>(req->id()));
        }
        CHAOS_EXPECT(
            crashing.stats().checkpoint_spills >=
                static_cast<std::uint64_t>(kPhase3Requests),
            "phase 3 spilled %llu checkpoints, expected >= %d\n",
            static_cast<unsigned long long>(
                crashing.stats().checkpoint_spills),
            kPhase3Requests);
      }  // service destroyed: the process "died", only the spills survive

      SolverService restarted(dopt);
      std::vector<std::shared_ptr<ServiceRequest>> resumed;
      for (int i = 0; i < kPhase3Requests; ++i) {
        resumed.push_back(restarted.submit(g, h, phase3_opt(i)));
      }
      for (const auto& req : resumed) {
        const RetrySolveReport& rep = req->wait();
        CHAOS_EXPECT(rep.ok(), "phase 3 restart request %llu ended %s\n",
                     static_cast<unsigned long long>(req->id()),
                     status_code_name(rep.status.code));
        // Every tree must come from the recovered checkpoint: a restarted
        // process re-solving completed trees is exactly the waste this
        // subsystem exists to avoid.
        CHAOS_EXPECT(
            rep.has_result &&
                rep.result.telemetry.checkpoint_trees == base.num_trees,
            "phase 3 restart request %llu resumed %d/%d trees\n",
            static_cast<unsigned long long>(req->id()),
            rep.has_result ? rep.result.telemetry.checkpoint_trees : 0,
            base.num_trees);
      }
      const SolverService::Stats rstats = restarted.stats();
      CHAOS_EXPECT(rstats.checkpoint_recovered >=
                       static_cast<std::uint64_t>(kPhase3Requests),
                   "phase 3 recovered %llu spills, expected >= %d\n",
                   static_cast<unsigned long long>(rstats.checkpoint_recovered),
                   kPhase3Requests);
      // Success consumes the spill: nothing stale may linger for the next
      // restart to trip over.
      std::size_t leftover = 0;
      for (const auto& e : std::filesystem::directory_iterator(spill_dir)) {
        leftover += e.path().extension() == ".ckpt" ? 1u : 0u;
      }
      CHAOS_EXPECT(leftover == 0,
                   "phase 3 left %zu spill file(s) after success\n", leftover);
      std::printf(
          "phase 3: %d crash-spilled requests resumed after restart "
          "(%llu spills recovered)\n",
          kPhase3Requests,
          static_cast<unsigned long long>(rstats.checkpoint_recovered));
      std::error_code ec;
      std::filesystem::remove_all(spill_dir, ec);
    }
  }

  // ---- Phase 4: watchdog-cancel storm with the flight recorder attached.
  // Deterministic, not probabilistic: (a) a budget-squeezed request walks
  // the degradation ladder; (b) a request whose second tree always stalls
  // far past an aggressive stuck-threshold is watchdog-cancelled on every
  // attempt, spilling its one completed tree at each retry boundary.  The
  // service dumps the flight recorder on each watchdog cancel, so after
  // the storm the dump file must name every retry/degrade/spill step.
  {
    // Mask the storm's probabilistic schedules (re-arming overwrites);
    // the stall below is armed at exact index 1, which outranks the
    // every-index quiet entry only for tree 1.
    FaultScope quiet_trees("solve_one_tree", FaultInjector::kEveryIndex, {});
    FaultScope quiet_fin("solve_finalize", 0, {});
    FaultScope quiet_ml("fallback_multilevel", 0, {});

    std::string wd_spill_dir = [] {
      std::string templ = (std::filesystem::temp_directory_path() /
                           "hgp-chaos-wd-XXXXXX")
                              .string();
      return ::mkdtemp(templ.data()) != nullptr ? templ : std::string();
    }();
    CHAOS_EXPECT(!wd_spill_dir.empty(),
                 "mkdtemp failed for the watchdog spill dir\n");
    if (!wd_spill_dir.empty()) {
      // The stuck threshold must outlast a healthy attempt of this
      // instance on this build (a sanitizer build runs several times
      // slower), or the watchdog cancels before the squeeze degrades or
      // tree 0 is checkpointed.  So time the stalled request's solve
      // unstalled first, and keep the stall well above the threshold.
      SolverOptions stopt = base;
      stopt.seed = seed + 6000;
      Timer unstalled;
      (void)solve_hgp(g, h, stopt);
      const double stuck_after_ms = std::max(40.0, 3 * unstalled.millis());
      const double stall_ms = std::max(400.0, 5 * stuck_after_ms);

      ServiceOptions wopt = sopt;
      wopt.workers = 1;
      wopt.retry.max_retries = 1;
      wopt.retry.backoff_base_ms = 1;
      wopt.retry.backoff_max_ms = 2;
      wopt.stuck_after_ms = stuck_after_ms;
      wopt.watchdog_poll_ms = 5;
      wopt.spill_dir = wd_spill_dir;
      wopt.flight_dump_path = flight_dump;
      // The squeeze targets the solve, not admission.
      wopt.admission_max_utilization = 2.0;
      SolverService wd(wopt);

      // (a) leave the solve less headroom than one arena chunk, so every
      // attempt throws kResourceExhausted and the ladder halves the trees
      // before burning retries.
      const std::size_t limit = MemoryBudget::global().limit();
      const std::size_t used = MemoryBudget::global().used();
      const std::size_t squeeze =
          limit > used + (4u << 10) ? limit - used - (4u << 10) : 0;
      if (squeeze > 0 && MemoryBudget::global().try_reserve(squeeze)) {
        SolverOptions sqopt = base;
        sqopt.seed = seed + 5000;
        auto squeezed = wd.submit(g, h, sqopt);
        const RetrySolveReport& rep = squeezed->wait();
        MemoryBudget::global().release(squeeze);
        CHAOS_EXPECT(rep.degrades >= 1,
                     "budget squeeze produced no degradation steps\n");
      } else {
        CHAOS_EXPECT(false, "budget squeeze reservation failed\n");
      }

      // (b) the stall: tree 1 sleeps at its injection site far past the
      // stuck-threshold.  Tree 0 completes and is checkpointed, so each
      // watchdog cancel is followed by a non-empty spill.
      FaultInjector::Fault stall;
      stall.action = FaultInjector::Action::kStall;
      stall.probability = 1.0;
      stall.stall_ms = stall_ms;
      FaultScope stall_tree1("solve_one_tree", 1, stall);
      auto stuck = wd.submit(g, h, stopt);
      const RetrySolveReport& srep = stuck->wait();
      CHAOS_EXPECT(srep.status.code == StatusCode::kCancelled,
                   "stalled request ended %s, expected CANCELLED\n",
                   status_code_name(srep.status.code));
      CHAOS_EXPECT(srep.retry_budget_exhausted,
                   "stalled request did not exhaust its retry budget\n");
      const SolverService::Stats wstats = wd.stats();
      CHAOS_EXPECT(wstats.watchdog_cancels >= 2,
                   "watchdog cancelled %llu attempts, expected >= 2\n",
                   static_cast<unsigned long long>(wstats.watchdog_cancels));
      CHAOS_EXPECT(wstats.checkpoint_spills >= 1,
                   "watchdog storm spilled %llu checkpoints, expected >= 1\n",
                   static_cast<unsigned long long>(wstats.checkpoint_spills));

#if HGP_OBS_ENABLED
      // The dump written at the second watchdog cancel must carry the
      // affected request's whole causal chain so far.  (Under HGP_OBS=OFF
      // the journal and the dump hook compile out — the storm's behavioral
      // assertions above still ran; there is just no file to inspect.)
      std::ifstream dump_in(flight_dump);
      std::string dump((std::istreambuf_iterator<char>(dump_in)),
                       std::istreambuf_iterator<char>());
      CHAOS_EXPECT(!dump.empty(), "no flight-recorder dump at %s\n",
                   flight_dump.c_str());
      for (const char* kind :
           {"watchdog_cancel", "retry", "backoff", "checkpoint_spill",
            "checkpoint_record", "degrade", "attempt_start", "attempt_end"}) {
        const std::string needle = "\"kind\": \"" + std::string(kind) + "\"";
        CHAOS_EXPECT(dump.find(needle) != std::string::npos,
                     "flight dump missing %s events\n", kind);
      }
      const std::string stuck_id =
          "\"request\": " + std::to_string(stuck->id());
      CHAOS_EXPECT(dump.find(stuck_id) != std::string::npos,
                   "flight dump never names the stalled request %llu\n",
                   static_cast<unsigned long long>(stuck->id()));
      std::printf(
          "phase 4: watchdog storm dumped the flight recorder (%zu bytes, "
          "%llu cancels)\n",
          dump.size(), static_cast<unsigned long long>(wstats.watchdog_cancels));
#endif  // HGP_OBS_ENABLED
      std::error_code ec;
      std::filesystem::remove_all(wd_spill_dir, ec);
    }
  }

  // ---- Phase 5: churn.  An incremental session under concurrent seeded
  // churn batches while trees crash probabilistically mid-resolve.  The
  // contract: a failed resolve never damages the committed state (the same
  // batch resubmits and eventually lands), a lost commit race surfaces as
  // the documented kInvalidInput (rebase and go again), and after the storm
  // the committed placement is valid for the committed graph.
  {
    // The base instance rounds every demand to one unit at units=3
    // (d <= 1/3), so drift-only churn cannot push the rounded instance
    // over the hierarchy's 4x3-unit capacity: every resolve ends kOk,
    // stale, or fault-injected failure — never infeasible.
    Rng crng(seed ^ 0x636875726eull);
    Graph churn_g = gen::planted_partition(10, 4, 0.75, 0.1, crng,
                                           gen::WeightRange{2.0, 6.0},
                                           gen::WeightRange{1.0, 2.0});
    gen::set_uniform_demands(churn_g, 0.25);
    auto churn_base = std::make_shared<const Graph>(std::move(churn_g));

    FaultScope churn_faults("solve_one_tree", FaultInjector::kEveryIndex,
                            prob_throw(0.25, seed * 7 + 1));
    ServiceOptions copt = sopt;
    copt.workers = 2;
    SolverService churn_service(copt);
    IncrementalOptions iopt;
    iopt.num_trees = 2;
    iopt.units_override = 3;
    iopt.seed = seed;
    std::shared_ptr<IncrementalSession> session;
    try {
      // The base solve runs under the fault schedule too; a few attempts
      // ride out an unlucky first draw.
      for (int attempt = 0;; ++attempt) {
        try {
          session = churn_service.open_incremental(churn_base, h, iopt);
          break;
        } catch (const SolveError&) {
          if (attempt >= 16) throw;
        }
      }
    } catch (const SolveError& e) {
      CHAOS_EXPECT(false, "phase 5 base solve never survived: %s\n", e.what());
    }
    if (session != nullptr) {
      constexpr int kChurners = 3;
      constexpr int kBatchesPerThread = 3;
      std::atomic<int> committed{0}, stale_rebases{0}, faulted_retries{0},
          stuck_batches{0};
      std::vector<std::thread> churners;
      churners.reserve(kChurners);
      for (int t = 0; t < kChurners; ++t) {
        churners.emplace_back([&, t] {
          Rng rng(seed * 131 + static_cast<std::uint64_t>(t));
          for (int b = 0; b < kBatchesPerThread; ++b) {
            bool landed = false;
            for (int attempt = 0; attempt < 64 && !landed; ++attempt) {
              const auto log = session->begin_batch();
              gen::ChurnOptions churn;
              churn.ops = 2;
              churn.w_add_vertex = 0;
              churn.w_remove_vertex = 0;
              churn.w_add_edge = 0;
              churn.w_remove_edge = 0;
              churn.demand_lo = 0.05;
              churn.demand_hi = 0.30;
              gen::churn(*log, churn, rng);
              if (log->empty()) {
                landed = true;
                break;
              }
              // Hold the request: wait() returns a reference into it.
              const auto req = churn_service.submit_resolve(session, log);
              const RetrySolveReport& rep = req->wait();
              if (rep.ok()) {
                committed.fetch_add(1, std::memory_order_relaxed);
                landed = true;
              } else if (rep.status.code == StatusCode::kInvalidInput) {
                // Lost the commit race: rebase on the new snapshot.
                stale_rebases.fetch_add(1, std::memory_order_relaxed);
              } else {
                // Fault-injected failure: the committed state is untouched,
                // so the SAME log is still current — resubmit it verbatim.
                CHAOS_EXPECT(documented_terminal(rep.status.code),
                             "phase 5 resolve ended in undocumented %s\n",
                             status_code_name(rep.status.code));
                faulted_retries.fetch_add(1, std::memory_order_relaxed);
                for (int again = 0; again < 64 && !landed; ++again) {
                  const RetrySolveReport& r2 =
                      churn_service.submit_resolve(session, log)->wait();
                  if (r2.ok()) {
                    committed.fetch_add(1, std::memory_order_relaxed);
                    landed = true;
                  } else if (r2.status.code == StatusCode::kInvalidInput) {
                    break;  // someone else committed meanwhile: rebase
                  }
                }
              }
            }
            if (!landed) stuck_batches.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (auto& t : churners) t.join();
      churn_service.drain();

      CHAOS_EXPECT(stuck_batches.load() == 0,
                   "phase 5: %d churn batch(es) never committed\n",
                   stuck_batches.load());
      CHAOS_EXPECT(committed.load() == kChurners * kBatchesPerThread,
                   "phase 5 committed %d batches, expected %d\n",
                   committed.load(), kChurners * kBatchesPerThread);
      CHAOS_EXPECT(churn_service.stats().resolves >=
                       static_cast<std::uint64_t>(committed.load()),
                   "phase 5 service counted %llu resolves for %d commits\n",
                   static_cast<unsigned long long>(
                       churn_service.stats().resolves),
                   committed.load());
      // The committed chain survived the storm intact.
      const HgpResult& last = session->last();
      try {
        validate_placement(*session->graph(), h, last.placement);
      } catch (const std::exception& e) {
        CHAOS_EXPECT(false, "phase 5 final placement invalid: %s\n", e.what());
      }
      CHAOS_EXPECT(std::isfinite(last.cost),
                   "phase 5 final cost not finite\n");
      std::printf(
          "phase 5: %d churn batches committed (%d stale rebases, %d "
          "fault-retried resolves)\n",
          committed.load(), stale_rebases.load(), faulted_retries.load());
    }
  }

  // ---- Phase 6: the distributed storm (enabled by --shardd).  Coordinated
  // solves over REAL worker processes while the fleet is killed mid-solve
  // (seeded SIGKILL at a tree boundary), heartbeats stall past the lease,
  // frames are torn on the wire, and a zombie peer delivers a hostile
  // stale-epoch result.  Invariants: every request reaches a terminal
  // state, every placement validates, every coordinated result is
  // BIT-identical to the single-process baseline, and across the storm at
  // least one lease expired, one tree was reassigned, and one zombie was
  // fenced — with zero lost or double-counted trees.
  if (!shardd_path.empty()) {
    // Mask the in-process storm schedules: phase 6's baseline and its
    // final aggregation must fail only where the *distributed* schedule
    // says, or the differential would diverge for the wrong reason.
    FaultScope quiet_trees("solve_one_tree", FaultInjector::kEveryIndex, {});
    FaultScope quiet_fin("solve_finalize", 0, {});
    FaultScope quiet_ml("fallback_multilevel", 0, {});

    int total_lease_expiries = 0;
    int total_reassigned = 0;
    int total_zombies = 0;
    int total_lost = 0;

    SolverOptions p6;
    p6.num_trees = 6;
    p6.epsilon = 0.5;

    // One coordinated request under `copt` (plus optionally an adopted
    // scripted peer), checked bit-for-bit against the single-process
    // baseline of the same instance.
    auto run_distributed = [&](const char* label, std::uint64_t inst_seed,
                               CoordinatorOptions copt,
                               std::function<net::Socket(const Graph&)> adopt)
        -> const CoordinatorReport* {
      static CoordinatorReport last;
      Rng prng(inst_seed);
      Graph pg = gen::planted_partition(24, 4, 0.75, 0.05, prng,
                                        gen::WeightRange{2.0, 6.0},
                                        gen::WeightRange{1.0, 2.0});
      gen::set_uniform_demands(pg, 4.0 / 24.0);
      SolverOptions opt = p6;
      opt.seed = inst_seed;
      const HgpResult want = solve_hgp(pg, h, opt);
      try {
        ShardCoordinator coord(pg, h, opt, copt);
        if (adopt) coord.adopt_shard(adopt(pg));
        const HgpResult got = coord.solve();
        CHAOS_EXPECT(std::memcmp(&got.cost, &want.cost, sizeof got.cost) == 0,
                     "phase 6 [%s]: cost diverged (%.17g vs %.17g)\n", label,
                     got.cost, want.cost);
        CHAOS_EXPECT(got.placement.leaf_of == want.placement.leaf_of,
                     "phase 6 [%s]: placement diverged\n", label);
        CHAOS_EXPECT(got.best_tree == want.best_tree,
                     "phase 6 [%s]: best_tree diverged\n", label);
        try {
          validate_placement(pg, h, got.placement);
        } catch (const std::exception& e) {
          CHAOS_EXPECT(false, "phase 6 [%s]: placement invalid: %s\n", label,
                       e.what());
        }
        const CoordinatorReport& rep = coord.report();
        // Exactly-once accounting: a leased tree completes remotely at most
        // once (trees the fleet lost are re-solved in-process, which does
        // not count here), so remote completions can never exceed the tree
        // count — a double-counted lease would push it over.  A hostile or
        // duplicate result that slipped the fence would also have broken
        // the bit-identity checked above.
        CHAOS_EXPECT(rep.batches_completed <= p6.num_trees,
                     "phase 6 [%s]: %d remote completions for %d batches\n",
                     label, rep.batches_completed, p6.num_trees);
        CHAOS_EXPECT(rep.trees_from_shards <= p6.num_trees,
                     "phase 6 [%s]: %d remote trees for %d sampled\n", label,
                     rep.trees_from_shards, p6.num_trees);
        total_lease_expiries += rep.lease_expiries;
        total_reassigned += rep.batches_reassigned;
        total_zombies += rep.zombies_fenced;
        total_lost += rep.shards_lost;
        if (verbose) {
          std::printf(
              "phase 6 [%s]: %d up %d lost %d expiries %d reassigned "
              "%d zombies %d/%d remote\n",
              label, rep.shards_up, rep.shards_lost, rep.lease_expiries,
              rep.batches_reassigned, rep.zombies_fenced,
              rep.trees_from_shards, p6.num_trees);
        }
        last = rep;
        return &last;
      } catch (const SolveError& e) {
        CHAOS_EXPECT(false, "phase 6 [%s]: non-terminal failure %s: %s\n",
                     label, status_code_name(e.code()), e.what());
        return nullptr;
      }
    };

    auto spawn_opts = [&](int shards) {
      CoordinatorOptions copt;
      copt.num_shards = shards;
      copt.shardd_path = shardd_path;
      return copt;
    };

    // (a) Clean fleet: everything remote, nothing lost.
    if (const CoordinatorReport* rep =
            run_distributed("clean", seed + 600, spawn_opts(3), nullptr)) {
      CHAOS_EXPECT(rep->shards_lost == 0 && rep->trees_from_shards == 6,
                   "phase 6 [clean]: %d lost, %d/6 remote\n", rep->shards_lost,
                   rep->trees_from_shards);
    }

    // (b) SIGKILL mid-solve: every worker is armed to die the moment it
    // starts tree 3, so whoever the tree lands on is killed; the respawn
    // budget burns down and the survivors (or the in-process fallback)
    // finish.  Seeded and deterministic per worker.
    {
      CoordinatorOptions copt = spawn_opts(2);
      copt.shard_args = {"--fault", "shardd.kill,3,kill"};
      copt.respawn_limit = 1;
      if (const CoordinatorReport* rep =
              run_distributed("sigkill", seed + 601, copt, nullptr)) {
        CHAOS_EXPECT(rep->shards_lost >= 1,
                     "phase 6 [sigkill]: no shard was ever lost\n");
        CHAOS_EXPECT(rep->batches_reassigned >= 1,
                     "phase 6 [sigkill]: kill forced no reassignment\n");
      }
    }

    // (c) Stalled heartbeats: the worker's beater and its first tree solve
    // both stall far past the lease, so the coordinator must detect the
    // hang by lease expiry (the socket stays open — nothing else tells).
    {
      CoordinatorOptions copt = spawn_opts(2);
      copt.lease_ms = 200;
      copt.shard_args = {"--fault", "shardd.heartbeat,0,stall,1500",
                         "--fault", "shardd.tree,0,stall,1500"};
      if (const CoordinatorReport* rep =
              run_distributed("stall", seed + 602, copt, nullptr)) {
        CHAOS_EXPECT(rep->lease_expiries >= 1,
                     "phase 6 [stall]: hung shard never lost its lease\n");
      }
    }

    // (d) Torn frames: every worker flips one byte in ~15% of its frames;
    // the per-frame CRC must convert each into a detected kDataLoss (dead
    // shard) rather than accepted garbage.  Which frames tear is seeded.
    {
      CoordinatorOptions copt = spawn_opts(2);
      copt.respawn_limit = 2;
      copt.shard_args = {"--fault",
                         "net.frame,0,torn-frame,0,0.15," +
                             std::to_string(seed * 11 + 3)};
      (void)run_distributed("torn", seed + 603, copt, nullptr);
    }

    // (e) Zombie: an adopted scripted peer answers its first assignment
    // with a hostile zero-cost result under a WRONG epoch — the fence must
    // discard it — then crashes so its leased tree is reassigned to the
    // one honest spawned worker.
    {
      CoordinatorOptions copt = spawn_opts(1);
      auto zombie = [](const Graph& zg) {
        auto [mine, theirs] = net::socket_pair();
        const std::uint64_t fp = graph_fingerprint(zg);
        const std::size_t n = static_cast<std::size_t>(zg.vertex_count());
        std::thread([sock = std::move(theirs), fp, n]() mutable {
          try {
            net::FrameChannel ch(std::move(sock));
            const Deadline d = Deadline::after_ms(20000);
            net::handshake_server(ch, d);
            auto job = ch.recv(d);
            if (!job.has_value()) return;
            net::JobAckMsg ack;
            ack.graph_fingerprint = fp;
            ack.num_trees = net::decode_job(job->payload).num_trees;
            ch.send(net::kMsgJobAck, net::encode_job_ack(ack), d);
            auto assign = ch.recv(d);
            if (!assign.has_value() || assign->type != net::kMsgAssign) return;
            const net::AssignMsg a = net::decode_assign(assign->payload);
            net::TreeResultMsg stale;
            stale.epoch = a.epoch + 7;  // a previous life's lease
            stale.tree_index = a.tree_index;
            stale.status = static_cast<std::uint8_t>(StatusCode::kOk);
            stale.cost = 0.0;  // would win any arg-min if not fenced
            stale.leaf_of.assign(n, 0);
            ch.send(net::kMsgTreeResult, net::encode_tree_result(stale), d);
            ch.close();  // crash: the fenced tree must be reassigned
          } catch (...) {
          }
        }).detach();  // hgp-lint: allow(naked-thread)
        return std::move(mine);
      };
      if (const CoordinatorReport* rep =
              run_distributed("zombie", seed + 604, copt, zombie)) {
        CHAOS_EXPECT(rep->zombies_fenced >= 1,
                     "phase 6 [zombie]: stale-epoch result was not fenced\n");
        CHAOS_EXPECT(rep->batches_reassigned >= 1,
                     "phase 6 [zombie]: fenced batch was not reassigned\n");
      }
    }

    CHAOS_EXPECT(total_lease_expiries >= 1,
                 "phase 6: storm produced no lease expiry\n");
    CHAOS_EXPECT(total_reassigned >= 1,
                 "phase 6: storm produced no reassignment\n");
    CHAOS_EXPECT(total_zombies >= 1,
                 "phase 6: storm produced no zombie fence\n");
    CHAOS_EXPECT(total_lost >= 1, "phase 6: storm lost no shard at all\n");
    std::printf(
        "phase 6: distributed storm done (%d shards lost, %d lease "
        "expiries, %d reassignments, %d zombies fenced; all results "
        "bit-identical)\n",
        total_lost, total_lease_expiries, total_reassigned, total_zombies);
  }

  // Give a scraper racing the storm a grace window before the endpoint
  // (owned by the storm service, still alive here) disappears.
  if (hold_open_ms > 0) {
    std::printf("holding introspection endpoint open for %ld ms\n",
                hold_open_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_open_ms));
  }

  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    obs::MetricsRegistry::global().write_json(os);
    if (!os) {
      std::fprintf(stderr, "hgp_chaos: cannot write metrics file '%s'\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "hgp_chaos: %d invariant violation(s)\n", g_failures);
    return 1;
  }
  std::printf("hgp_chaos: all invariants held\n");
  return 0;
}
