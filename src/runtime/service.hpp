// SolverService: the long-running-process front end over solve_hgp.
//
// PR 1 made a single solve resilient; this layer protects the *process*
// serving many solves:
//
//   * admission control — a bounded request queue plus a memory-budget
//     utilization gate (util/memory_budget.hpp).  Arrivals beyond either
//     limit are rejected with kResourceExhausted instead of queueing
//     without bound or OOMing the arena/pool machinery.
//   * retry with exponential backoff + deterministic jitter — transiently
//     classified failures (status_is_transient) are re-attempted within a
//     per-request retry budget; the spend is surfaced on
//     HgpResult::retries_used.
//   * degradation ladder — kResourceExhausted degrades a plain request
//     before burning retries: the tree count is halved, down to one
//     tree; the fallback chain inside solve_hgp
//     (multilevel → greedy) is the final rung.  Ladder steps are free (not
//     counted against the retry budget) because each strictly shrinks the
//     footprint.  A resolve has no ladder step (its session pins the
//     forest), so its kResourceExhausted spends the retry budget.
//   * checkpoint/resume — every retry of a request shares one
//     SolveCheckpoint (runtime/checkpoint.hpp), so an attempt killed after
//     some trees completed resumes from the survivors.
//   * watchdog — a service thread cancels any attempt running past a
//     stuck-threshold; a watchdog cancel is treated as transient (the
//     retry path re-attempts), a caller cancel is terminal.
//   * drain/shutdown — drain() finishes queued and in-flight work while
//     rejecting new arrivals; the destructor drains then joins all
//     threads.
//
// Validation lives in tests/test_service.cpp and the chaos harness
// tools/hgp_chaos (seeded probabilistic fault schedules, concurrent
// requests, budget pressure).  See docs/RESILIENCE.md for the
// architecture diagram and knob table.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/incremental.hpp"
#include "runtime/solver.hpp"
#include "util/memory_budget.hpp"
#include "util/prng.hpp"
#include "util/sync.hpp"

namespace hgp {

namespace obs {
class IntrospectionServer;
}  // namespace obs

struct RetryOptions {
  /// Re-attempts allowed beyond the first try (0 = fail fast).
  int max_retries = 2;
  /// First backoff; doubles per retry up to backoff_max_ms.
  double backoff_base_ms = 5;
  double backoff_max_ms = 250;
  /// Uniform jitter applied to each backoff: sleep *= 1 + U(-f, +f).
  /// Jitter decorrelates retry storms across concurrent requests.
  double jitter_fraction = 0.5;
  /// Seed of the jitter stream (deterministic per request).
  std::uint64_t jitter_seed = 1;
};

/// Terminal outcome of one request after admission, retries and
/// degradation.  `status` is always one of the documented terminal codes;
/// `has_result` says whether `result` carries a placement (true for kOk
/// and for degraded-but-placed outcomes).
struct RetrySolveReport {
  Status status;
  bool has_result = false;
  HgpResult result;
  int retries_used = 0;
  /// Degradation-ladder steps applied (each halves num_trees; always 0
  /// for a resolve).
  int degrades = 0;
  /// The final failure was transient but the retry budget was spent.
  bool retry_budget_exhausted = false;

  bool ok() const { return status.ok(); }
};

/// The backoff-with-jitter schedule of the retry loop, exposed so other
/// retrying layers (the shard coordinator's reconnect/respawn path) share
/// the one policy: backoff_base_ms doubling per retry up to
/// backoff_max_ms, then ±jitter_fraction uniform jitter drawn from
/// `jitter` (one draw per call — deterministic in the seed and call
/// ordinal).
double backoff_for_retry(const RetryOptions& ro, int retry_number,
                         Rng& jitter);

/// solve_hgp wrapped in the retry/backoff/degradation policy, for callers
/// that want the service semantics without the queue (hgp_solve --retries
/// uses this; SolverService workers run the same loop).  `opt.checkpoint`
/// carries completed trees across attempts; when null an internal
/// checkpoint is used.  Never throws: every outcome, including
/// kInvalidInput, is reported through the returned status.
RetrySolveReport solve_with_retry(const Graph& g, const Hierarchy& h,
                                  SolverOptions opt,
                                  const RetryOptions& retry = {});

struct ServiceOptions {
  /// Worker threads executing requests (≥ 1).
  std::size_t workers = 2;
  /// Bounded admission queue (excludes in-flight work); arrivals beyond it
  /// are rejected with kResourceExhausted.
  std::size_t max_queue = 64;
  RetryOptions retry;
  /// Reject admission when MemoryBudget::global() utilization exceeds this
  /// (only applies when a budget limit is set).
  double admission_max_utilization = 0.95;
  /// Watchdog stuck-threshold: cancel any attempt running longer than this
  /// many milliseconds (0 disables the watchdog).
  double stuck_after_ms = 0;
  double watchdog_poll_ms = 20;
  /// Inner pool on which each solve runs its forest's trees concurrently
  /// (shared across workers; a tree's DP never submits to it, so sharing
  /// cannot deadlock).
  ThreadPool* solve_pool = nullptr;
  /// Directory for durable checkpoint spills (empty = disabled).  With a
  /// spill dir set, every failed attempt persists its checkpoint (binary
  /// snapshot container, crash-safe rename; src/io/snapshot.hpp), the
  /// constructor scans the directory and indexes surviving spills by key,
  /// and a submitted request whose key matches a recovered spill resumes
  /// from the completed trees instead of re-solving them — including
  /// across a kill + restart of the whole process.  Spilling is strictly
  /// best-effort: any I/O or integrity failure is counted, logged, and
  /// the solve continues in memory.
  std::string spill_dir;
  /// Unix-domain socket path for the live introspection endpoint
  /// (obs/introspect.hpp): /metrics, /requests, /flightrecorder.  Empty
  /// consults the HGP_OBS_SOCKET environment variable; empty both ways
  /// (or a build with HGP_OBS=OFF) disables the endpoint.  Endpoint
  /// start-up failure is logged and ignored — observability must never
  /// take the service down.
  std::string obs_socket;
  /// File the service dumps the flight recorder to when a watchdog cancel
  /// fires or a request terminates with kInternal (overwritten per event;
  /// empty disables the automatic dumps).  The same path is registered as
  /// the fatal-signal crash dump (journal-only, see
  /// obs/flight_recorder.hpp), with ".signal" appended.
  std::string flight_dump_path;
};

/// Reject reason indices carried in the journal's kReject arg (and shown
/// by hgp_top / docs/OBSERVABILITY.md).
inline constexpr int kRejectDraining = 0;
inline constexpr int kRejectQueueFull = 1;
inline constexpr int kRejectBudget = 2;

class IncrementalSession;

/// Caller's handle to a submitted request.  Thread-safe.
class ServiceRequest {
 public:
  /// Blocks until the request reaches a terminal state.
  const RetrySolveReport& wait() HGP_EXCLUDES(mutex_);

  /// Requests cancellation: the current attempt is cancelled cooperatively
  /// and no further attempts start.  Terminal status becomes kCancelled
  /// unless the request already finished.
  void cancel() HGP_EXCLUDES(mutex_);

  bool done() const HGP_EXCLUDES(mutex_);

  /// Identifier assigned at submit (dense, starting at 0).
  std::uint64_t id() const { return id_; }

 private:
  friend class SolverService;

  ServiceRequest(std::uint64_t id, const Graph& g, const Hierarchy& h,
                 SolverOptions opt)
      : id_(id), graph_(&g), hierarchy_(&h), opt_(std::move(opt)) {}

  /// Incremental re-solve request: applies `log` to `session` (defined in
  /// service.cpp, where IncrementalSession is complete).
  ServiceRequest(std::uint64_t id, std::shared_ptr<IncrementalSession> session,
                 std::shared_ptr<const MutationLog> log, SolverOptions opt);

  void finish(RetrySolveReport report) HGP_EXCLUDES(mutex_);

  const std::uint64_t id_;
  const Graph* graph_;
  const Hierarchy* hierarchy_;
  SolverOptions opt_;
  /// Non-null for resolve requests (submit_resolve): the session whose
  /// state the request advances, and the mutation log it applies.  The log
  /// handle co-owns its base graph snapshot (IncrementalSolver::
  /// begin_batch), so graph_ stays valid even after the session commits
  /// past it.
  std::shared_ptr<IncrementalSession> session_;
  std::shared_ptr<const MutationLog> log_;
  SolveCheckpoint checkpoint_;

  /// Acquired after SolverService::mutex_ (submit-reject and watchdog-scan
  /// paths nest it inside the service lock); never the other way around.
  mutable Mutex mutex_;
  CondVar cv_;
  bool done_ HGP_GUARDED_BY(mutex_) = false;
  bool running_ HGP_GUARDED_BY(mutex_) = false;
  RetrySolveReport report_ HGP_GUARDED_BY(mutex_);

  /// Attempts started by the retry loop (monotone; the introspection
  /// /requests view and journal events read it lock-free).
  std::atomic<std::uint32_t> attempts_started_{0};
  /// Caller-initiated cancellation (sticky across attempts).  Atomic so
  /// the retry loop can poll it lock-free, but the cancel() store happens
  /// under mutex_ — it is the predicate of wait()'s cv loop, and the
  /// lost-wakeup rule (util/sync.hpp) applies to atomics too.
  std::atomic<bool> caller_cancelled_{false};
  /// The watchdog cancelled the *current* attempt (reset per attempt).
  std::atomic<bool> watchdog_cancelled_{false};
  /// Token observed by the current attempt, swapped fresh per attempt so a
  /// stale watchdog cancel cannot kill the retry.
  std::shared_ptr<CancelToken> attempt_token_ HGP_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point attempt_start_
      HGP_GUARDED_BY(mutex_){};
};

/// A live incremental instance inside the service: the committed
/// (graph, forest, reuse-store, placement) state that submit_resolve
/// requests advance.  Thread-safe; an internal mutex serializes resolves,
/// so concurrent batches against one session execute one at a time and
/// each re-checks staleness against whatever its predecessor committed.
class IncrementalSession {
 public:
  /// Current committed graph snapshot (advances after every successful
  /// resolve).
  std::shared_ptr<const Graph> graph() const HGP_EXCLUDES(mutex_);
  /// A fresh MutationLog over graph() that co-owns the snapshot — the only
  /// supported way to author a resolve batch.
  std::shared_ptr<MutationLog> begin_batch() const HGP_EXCLUDES(mutex_);
  /// Last committed result (the base solve, then each successful resolve).
  HgpResult last() const HGP_EXCLUDES(mutex_);
  const Hierarchy& hierarchy() const { return *hierarchy_; }

 private:
  friend class SolverService;
  friend class ServiceRequest;

  explicit IncrementalSession(std::unique_ptr<IncrementalSolver> solver);

  /// One retry-loop attempt of one resolve request; called by the worker
  /// through the solve callable.  Throws like IncrementalSolver::resolve
  /// (a stale log is terminal kInvalidInput).
  HgpResult run_attempt(const MutationLog& log, const SolverOptions& opt)
      HGP_EXCLUDES(mutex_);

  const Hierarchy* hierarchy_;
  /// Serializes resolves and guards the solver state.  Leaf with respect
  /// to the service locks (workers hold no service mutex while solving);
  /// the checkpoint's internal mutex nests inside it.
  mutable Mutex mutex_;
  std::unique_ptr<IncrementalSolver> solver_ HGP_GUARDED_BY(mutex_);
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions opt = {});
  /// Drains (finishing queued + in-flight work), then joins all threads.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Submits a request.  `g` and `h` must outlive the request.  Never
  /// blocks and never throws SolveError: a rejected arrival (queue full,
  /// budget pressure, draining) returns a handle that is already terminal
  /// with status kResourceExhausted.
  std::shared_ptr<ServiceRequest> submit(const Graph& g, const Hierarchy& h,
                                         SolverOptions opt = {})
      HGP_EXCLUDES(mutex_);

  /// Opens an incremental session: builds the forest and runs the base
  /// solve synchronously on the calling thread (resolves, not the base
  /// solve, go through the queue).  `h` must outlive the session; `base`
  /// is shared into it.  Throws the base solve's SolveError on failure.
  std::shared_ptr<IncrementalSession> open_incremental(
      std::shared_ptr<const Graph> base, const Hierarchy& h,
      IncrementalOptions opt = {});

  /// Submits an incremental re-solve applying `log` (authored via
  /// session->begin_batch()) to the session.  Admission-controlled like
  /// submit() and run by the same retry/watchdog machinery; `opt` supplies
  /// the per-request knobs (timeout, retries via ServiceOptions, cancel) —
  /// its structural fields (num_trees, epsilon, seed) are ignored, the
  /// session pins them, so the degradation ladder does not apply.  A log
  /// whose base graph is no longer the session's current snapshot fails
  /// terminally with kInvalidInput when it runs (optimistic concurrency:
  /// losers of a commit race rebase and resubmit).  Throws
  /// SolveError(kInvalidInput) only for null session/log.
  std::shared_ptr<ServiceRequest> submit_resolve(
      std::shared_ptr<IncrementalSession> session,
      std::shared_ptr<const MutationLog> log, SolverOptions opt = {})
      HGP_EXCLUDES(mutex_);

  /// Stops admitting, waits until every queued and in-flight request is
  /// terminal.  Idempotent; the service stays drained afterwards.
  void drain() HGP_EXCLUDES(mutex_);

  /// Queued requests right now (in-flight excluded).
  std::size_t queue_depth() const HGP_EXCLUDES(mutex_);

  /// JSON view of the service's live state for the introspection
  /// endpoint: queue depth, in-flight requests (id, state, attempt,
  /// queue position), drain flag and global memory-budget utilization.
  /// One request object per line, so line-oriented clients (hgp_top) can
  /// parse without a JSON library.
  void write_requests_json(std::ostream& os) const HGP_EXCLUDES(mutex_);

  /// Plain-atomic counters mirrored into the obs metrics registry (the
  /// struct works under HGP_OBS=OFF; the registry copy feeds --metrics
  /// exports).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_budget = 0;
    std::uint64_t rejected_draining = 0;
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;
    std::uint64_t degrades = 0;
    std::uint64_t watchdog_cancels = 0;
    std::uint64_t checkpoint_trees = 0;
    /// Checkpoints durably spilled at retry boundaries.
    std::uint64_t checkpoint_spills = 0;
    /// Spill writes that failed, plus recovered files that failed
    /// integrity checking (both degrade to in-memory operation).
    std::uint64_t checkpoint_spill_failures = 0;
    /// Requests that resumed from a spill recovered at construction.
    std::uint64_t checkpoint_recovered = 0;
    /// Incremental re-solve requests admitted (subset of admitted).
    std::uint64_t resolves = 0;

    std::uint64_t rejected() const {
      return rejected_queue_full + rejected_budget + rejected_draining;
    }
  };
  Stats stats() const;

 private:
  void worker_loop() HGP_EXCLUDES(mutex_);
  void watchdog_loop() HGP_EXCLUDES(mutex_);
  void run_request(const std::shared_ptr<ServiceRequest>& req)
      HGP_EXCLUDES(mutex_);
  /// The one admission path of submit() and submit_resolve(): builds the
  /// request under the service lock (`make` receives its id), then rejects
  /// it (draining, queue full, memory budget) or queues it.  Returns true
  /// when admitted; `req` is the caller's handle either way.
  bool admit(const std::function<ServiceRequest*(std::uint64_t)>& make,
             std::shared_ptr<ServiceRequest>& req) HGP_EXCLUDES(mutex_);
  void reject(ServiceRequest& req, const char* why, int reason_index);
  /// Best-effort flight-recorder dump to opt_.flight_dump_path (no-op when
  /// the path is empty or HGP_OBS is compiled out).
  void maybe_flight_dump(const char* reason) const;
  /// Construction-time scan of spill_dir: index readable spills by key,
  /// delete unreadable ones (their bytes are gone for good).
  void recover_spills() HGP_EXCLUDES(spill_mutex_);
  /// Deterministic spill file path for a checkpoint key.
  std::string spill_path(const CheckpointKey& key) const;
  /// Best-effort durable spill of the request's checkpoint.
  void spill_checkpoint(ServiceRequest& req);
  /// Loads a recovered spill matching the request's key, if any.
  void try_recover(ServiceRequest& req, const SolverOptions& opt)
      HGP_EXCLUDES(spill_mutex_);

  ServiceOptions opt_;

  /// The service-wide lock; ServiceRequest::mutex_ nests inside it.
  mutable Mutex mutex_;
  CondVar work_cv_;   // workers wait for queue/stop
  CondVar idle_cv_;   // drain waits for quiescence
  std::deque<std::shared_ptr<ServiceRequest>> queue_ HGP_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<ServiceRequest>> inflight_
      HGP_GUARDED_BY(mutex_);
  bool draining_ HGP_GUARDED_BY(mutex_) = false;
  bool stopping_ HGP_GUARDED_BY(mutex_) = false;
  std::uint64_t next_id_ HGP_GUARDED_BY(mutex_) = 0;

  CondVar watchdog_cv_;

  /// Spills found at construction, consumed (erased) as requests with
  /// matching keys arrive.  Own mutex, a leaf: touched from run_request,
  /// which never holds mutex_.
  Mutex spill_mutex_;
  std::vector<std::pair<CheckpointKey, std::string>> recovered_spills_
      HGP_GUARDED_BY(spill_mutex_);

  struct AtomicStats {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected_queue_full{0};
    std::atomic<std::uint64_t> rejected_budget{0};
    std::atomic<std::uint64_t> rejected_draining{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> degrades{0};
    std::atomic<std::uint64_t> watchdog_cancels{0};
    std::atomic<std::uint64_t> checkpoint_trees{0};
    std::atomic<std::uint64_t> checkpoint_spills{0};
    std::atomic<std::uint64_t> checkpoint_spill_failures{0};
    std::atomic<std::uint64_t> checkpoint_recovered{0};
    std::atomic<std::uint64_t> resolves{0};
  };
  AtomicStats stats_;

  // Dedicated long-lived threads, not pool tasks: workers block on the
  // queue cv for the service's lifetime and the watchdog must keep running
  // while every pool worker is wedged — parking them in a ThreadPool would
  // deadlock the very condition the watchdog exists to break.
  // hgp-lint: allow(naked-thread)
  std::vector<std::thread> workers_;
  // hgp-lint: allow(naked-thread)
  std::thread watchdog_;

  /// Live introspection endpoint (null unless enabled and HGP_OBS=ON).
  /// Declared last: members destroy in reverse order, so the endpoint
  /// stops serving before any other member tears down and no scrape can
  /// observe a half-destroyed service.
  std::unique_ptr<obs::IntrospectionServer> introspect_;
};

}  // namespace hgp
