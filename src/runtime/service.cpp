#include "runtime/service.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <ostream>
#include <sstream>
#include <utility>

#include "graph/fingerprint.hpp"
#include "obs/event_journal.hpp"  // next_library_request_id under HGP_OBS=OFF
#include "obs/flight_recorder.hpp"
#include "obs/introspect.hpp"
#include "obs/obs.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace hgp {

namespace {

/// Hooks a SolverService worker installs around the shared retry loop so
/// the loop stays oblivious to queues, watchdogs and metrics.  The plain
/// solve_with_retry leaves every hook empty.
struct RetryHooks {
  /// Called before each attempt (install a fresh cancel token, stamp the
  /// attempt start for the watchdog).
  std::function<void(SolverOptions&)> before_attempt;
  /// Classifies a caught kCancelled: true = the watchdog did it (retry),
  /// false = the caller did it (terminal).
  std::function<bool()> cancel_is_transient;
  /// Interruptible backoff sleep; returns false when the request was
  /// cancelled while waiting (→ terminal kCancelled).
  std::function<bool(double)> backoff_wait;
  std::function<void()> on_retry;
  std::function<void()> on_degrade;
  /// Called at every retry boundary — an attempt failed with the given
  /// status and the loop is about to degrade, retry, or give up.  The
  /// service spills the checkpoint here so a killed process can resume
  /// completed trees after restart.
  std::function<void(const Status&)> on_attempt_failed;
  /// Called once when an attempt unwound because the watchdog cancelled
  /// it (the service attaches a flight-recorder dump).
  std::function<void()> on_watchdog_cancel;
  /// Called with the terminal status just before a non-ok return (the
  /// service dumps the flight recorder on kInternal — a contract failure
  /// worth a post-mortem even though the process survives).
  std::function<void(const Status&)> on_terminal_failure;
};

}  // namespace

double backoff_for_retry(const RetryOptions& ro, int retry_number,
                         Rng& jitter) {
  double backoff = ro.backoff_base_ms;
  for (int i = 1; i < retry_number; ++i) {
    backoff = std::min(backoff * 2, ro.backoff_max_ms);
  }
  backoff = std::min(backoff, ro.backoff_max_ms);
  if (ro.jitter_fraction > 0 && backoff > 0) {
    backoff *=
        1.0 + jitter.next_double(-ro.jitter_fraction, ro.jitter_fraction);
  }
  return backoff > 0 ? backoff : 0;
}

namespace {

/// The loop is generic over what an "attempt" does: a full solve_hgp for
/// plain requests, a session resolve for incremental ones.  Retry, backoff
/// and journaling behave identically for both; `ladder` is false for
/// resolves, whose session pins the forest, so halving num_trees would
/// re-run the same resolve for free.
RetrySolveReport run_retry_loop(
    const std::function<HgpResult(const SolverOptions&)>& solve,
    SolverOptions opt, const RetryOptions& ro, bool ladder,
    const RetryHooks& hooks, std::uint64_t request_id) {
  RetrySolveReport rep;
  // Attempts of one logical request share a checkpoint, so trees completed
  // by a killed attempt are served, not re-solved, on the retry.
  SolveCheckpoint local_checkpoint;
  if (opt.checkpoint == nullptr) opt.checkpoint = &local_checkpoint;
  Rng jitter(ro.jitter_seed);
  std::uint32_t attempt_no = 0;
  const auto fail_terminal = [&hooks](RetrySolveReport& r) {
    if (hooks.on_terminal_failure) hooks.on_terminal_failure(r.status);
  };

  while (true) {
    ++attempt_no;
    // Thread-local id scope: journal emit sites below this frame (fallback
    // stages, checkpoint records on this thread) inherit the ids without
    // every signature carrying them.
    HGP_REQUEST_SCOPE(request_id, attempt_no);
    opt.checkpoint->set_request_context(request_id, attempt_no);
    HGP_JOURNAL(kAttemptStart, request_id, attempt_no, opt.num_trees, 0);
    Status failure;
    try {
      if (hooks.before_attempt) hooks.before_attempt(opt);
      HgpResult r = solve(opt);
      r.retries_used = rep.retries_used;
      HGP_JOURNAL(kAttemptEnd, request_id, attempt_no, 0, r.status.code);
      if (!status_is_transient(r.status.code)) {
        rep.status = r.status;
        rep.result = std::move(r);
        rep.has_result = true;
        if (!rep.status.ok()) fail_terminal(rep);
        return rep;
      }
      // The fallback chain placed the request but for a transient reason
      // (all trees crashed, resource pressure).  Keep the degraded result
      // as the floor, then let the retry/degradation logic below decide
      // whether another attempt may do better.
      failure = r.status;
      rep.result = std::move(r);
      rep.has_result = true;
    } catch (const SolveError& e) {
      failure = e.status();
      HGP_JOURNAL(kAttemptEnd, request_id, attempt_no, 0, failure.code);
      if (failure.code == StatusCode::kCancelled) {
        const bool transient =
            hooks.cancel_is_transient && hooks.cancel_is_transient();
        if (!transient) {
          rep.status = failure;
          fail_terminal(rep);
          return rep;
        }
        // Watchdog-initiated: the attempt was stuck, not the request —
        // fall through to the retry path.
        if (hooks.on_watchdog_cancel) hooks.on_watchdog_cancel();
      } else if (!status_is_transient(failure.code)) {
        rep.status = failure;
        fail_terminal(rep);
        return rep;
      }
    } catch (...) {
      failure = status_from_current_exception();  // kInternal → transient
      HGP_JOURNAL(kAttemptEnd, request_id, attempt_no, 0, failure.code);
    }

    if (hooks.on_attempt_failed) hooks.on_attempt_failed(failure);

    // Resource pressure degrades before it burns retries: the one ladder
    // step halves the trees (down to one), which strictly shrinks the
    // footprint, so stepping is free.
    if (failure.code == StatusCode::kResourceExhausted && ladder &&
        opt.num_trees > 1) {
      opt.num_trees /= 2;
      ++rep.degrades;
      HGP_JOURNAL(kDegrade, request_id, attempt_no, opt.num_trees,
                  failure.code);
      if (hooks.on_degrade) hooks.on_degrade();
      continue;
    }

    if (rep.retries_used >= ro.max_retries) {
      rep.retry_budget_exhausted = true;
      rep.status = failure;
      if (rep.has_result) rep.result.retries_used = rep.retries_used;
      fail_terminal(rep);
      return rep;
    }
    ++rep.retries_used;
    HGP_JOURNAL(kRetry, request_id, attempt_no, rep.retries_used,
                failure.code);
    if (hooks.on_retry) hooks.on_retry();
    const double backoff = backoff_for_retry(ro, rep.retries_used, jitter);
    if (backoff > 0) {
      HGP_JOURNAL(kBackoff, request_id, attempt_no,
                  static_cast<std::int64_t>(backoff), 0);
      if (hooks.backoff_wait) {
        if (!hooks.backoff_wait(backoff)) {
          rep.status = Status(StatusCode::kCancelled,
                              "cancelled while waiting to retry");
          fail_terminal(rep);
          return rep;
        }
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
      }
    }
  }
}

}  // namespace

RetrySolveReport solve_with_retry(const Graph& g, const Hierarchy& h,
                                  SolverOptions opt,
                                  const RetryOptions& retry) {
  // Library callers get a process-unique journal id from a range disjoint
  // from service request ids.
  return run_retry_loop(
      [&g, &h](const SolverOptions& o) { return solve_hgp(g, h, o); },
      std::move(opt), retry, /*ladder=*/true, RetryHooks{},
      obs::next_library_request_id());
}

// ---------------------------------------------------------------------------
// IncrementalSession

IncrementalSession::IncrementalSession(
    std::unique_ptr<IncrementalSolver> solver)
    : hierarchy_(&solver->hierarchy()), solver_(std::move(solver)) {}

std::shared_ptr<const Graph> IncrementalSession::graph() const {
  const MutexLock lock(mutex_);
  return solver_->graph();
}

std::shared_ptr<MutationLog> IncrementalSession::begin_batch() const {
  const MutexLock lock(mutex_);
  return solver_->begin_batch();
}

HgpResult IncrementalSession::last() const {
  const MutexLock lock(mutex_);
  return solver_->last();
}

HgpResult IncrementalSession::run_attempt(const MutationLog& log,
                                          const SolverOptions& opt) {
  // Serializes resolves across workers: a concurrent batch blocks here and
  // then re-checks staleness against whatever its predecessor committed.
  const MutexLock lock(mutex_);
  ResolveOptions ro;
  ro.timeout_ms = opt.timeout_ms;
  ro.cancel = opt.cancel;
  ro.checkpoint = opt.checkpoint;
  return solver_->resolve(log, ro);
}

// ---------------------------------------------------------------------------
// ServiceRequest

ServiceRequest::ServiceRequest(std::uint64_t id,
                               std::shared_ptr<IncrementalSession> session,
                               std::shared_ptr<const MutationLog> log,
                               SolverOptions opt)
    : id_(id),
      graph_(&log->base()),
      hierarchy_(&session->hierarchy()),
      opt_(std::move(opt)),
      session_(std::move(session)),
      log_(std::move(log)) {}

const RetrySolveReport& ServiceRequest::wait() {
  MutexLock lock(mutex_);
  while (!done_) cv_.wait(mutex_);
  // Safe to hand out once done_: finish() was the last writer of report_.
  return report_;
}

void ServiceRequest::cancel() {
  HGP_JOURNAL(kCallerCancel, id_,
              attempts_started_.load(std::memory_order_relaxed), 0, 0);
  std::shared_ptr<CancelToken> token;
  {
    const MutexLock lock(mutex_);
    // The store stays under mutex_ even though the flag is atomic: it is
    // the predicate of wait()'s and backoff_wait's cv loops, and only the
    // mutex closes their check-then-block window (util/sync.hpp).
    caller_cancelled_.store(true, std::memory_order_release);
    token = attempt_token_;
  }
  // Cancel the attempt and wake any backoff sleep outside the lock.
  if (token) token->request_cancel();
  cv_.notify_all();
}

bool ServiceRequest::done() const {
  const MutexLock lock(mutex_);
  return done_;
}

void ServiceRequest::finish(RetrySolveReport report) {
  {
    const MutexLock lock(mutex_);
    report_ = std::move(report);
    done_ = true;
    running_ = false;
    attempt_token_.reset();
  }
  // done_ (the waiters' predicate) was set under the lock above, so this
  // notify cannot be lost.
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// SolverService

SolverService::SolverService(ServiceOptions opt) : opt_(std::move(opt)) {
  if (opt_.workers == 0) opt_.workers = 1;
  if (opt_.watchdog_poll_ms <= 0) opt_.watchdog_poll_ms = 20;
  // Recover before any worker starts, so the index is complete by the
  // time the first request could look for its spill.
  if (!opt_.spill_dir.empty()) recover_spills();
  workers_.reserve(opt_.workers);
  for (std::size_t i = 0; i < opt_.workers; ++i) {
    // hgp-lint: allow(naked-thread) — see the member declaration.
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (opt_.stuck_after_ms > 0) {
    // hgp-lint: allow(naked-thread) — see the member declaration.
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
#if HGP_OBS_ENABLED
  // Publish the service gauges before the endpoint opens: a scrape that
  // lands before the first request must still describe the service, not
  // an empty registry.
  HGP_GAUGE_SET("service.queue_depth", 0);
  HGP_GAUGE_SET("service.inflight", 0);
  if (!opt_.flight_dump_path.empty()) {
    obs::FlightRecorder::install_signal_dump(opt_.flight_dump_path +
                                             ".signal");
  }
  std::string socket_path = opt_.obs_socket;
  if (socket_path.empty()) {
    const char* env = std::getenv("HGP_OBS_SOCKET");
    if (env != nullptr) socket_path = env;
  }
  if (!socket_path.empty()) {
    try {
      obs::IntrospectOptions iopt;
      iopt.socket_path = socket_path;
      introspect_ = std::make_unique<obs::IntrospectionServer>(iopt);
      introspect_->register_handler(
          "/requests", [this](std::ostream& os) { write_requests_json(os); });
    } catch (const SolveError& e) {
      // Observability must never take the service down: a stillborn
      // endpoint (bad path, permissions) is logged and the service runs
      // without it.
      HGP_WARN("introspection endpoint disabled: " << e.status().to_string());
    }
  }
#endif  // HGP_OBS_ENABLED
}

SolverService::~SolverService() {
  drain();
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& w : workers_) w.join();  // hgp-lint: allow(naked-thread)
  if (watchdog_.joinable()) watchdog_.join();
}

void SolverService::reject(ServiceRequest& req, const char* why,
                           int reason_index) {
  HGP_JOURNAL(kReject, req.id(), 0, reason_index, 0);
  RetrySolveReport rep;
  rep.status = Status(StatusCode::kResourceExhausted, why);
  req.finish(std::move(rep));
  HGP_COUNTER_ADD("service.admission_rejects", 1);
}

bool SolverService::admit(
    const std::function<ServiceRequest*(std::uint64_t)>& make,
    std::shared_ptr<ServiceRequest>& req) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  HGP_COUNTER_ADD("service.submitted", 1);
  {
    const MutexLock lock(mutex_);
    req.reset(make(next_id_++));
    HGP_JOURNAL(kSubmit, req->id(), 0, 0, 0);
    if (draining_ || stopping_) {
      stats_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
      reject(*req, "service is draining; request rejected", kRejectDraining);
      return false;
    }
    if (queue_.size() >= opt_.max_queue) {
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      reject(*req, "admission queue is full", kRejectQueueFull);
      return false;
    }
    const MemoryBudget& budget = MemoryBudget::global();
    if (budget.limit() > 0 &&
        budget.utilization() > opt_.admission_max_utilization) {
      stats_.rejected_budget.fetch_add(1, std::memory_order_relaxed);
      reject(*req, "memory budget utilization above the admission threshold",
             kRejectBudget);
      return false;
    }
    queue_.push_back(req);
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    HGP_JOURNAL(kAdmit, req->id(), 0,
                static_cast<std::int64_t>(queue_.size()), 0);
    HGP_GAUGE_SET("service.queue_depth", queue_.size());
  }
  work_cv_.notify_one();
  HGP_COUNTER_ADD("service.admitted", 1);
  return true;
}

std::shared_ptr<ServiceRequest> SolverService::submit(const Graph& g,
                                                      const Hierarchy& h,
                                                      SolverOptions opt) {
  std::shared_ptr<ServiceRequest> req;
  admit(
      [&](std::uint64_t id) {
        return new ServiceRequest(id, g, h, std::move(opt));
      },
      req);
  return req;
}

std::shared_ptr<IncrementalSession> SolverService::open_incremental(
    std::shared_ptr<const Graph> base, const Hierarchy& h,
    IncrementalOptions opt) {
  if (opt.pool == nullptr) opt.pool = opt_.solve_pool;
  auto solver =
      std::make_unique<IncrementalSolver>(std::move(base), h, std::move(opt));
  // Private constructor — no make_shared.
  return std::shared_ptr<IncrementalSession>(
      new IncrementalSession(std::move(solver)));
}

std::shared_ptr<ServiceRequest> SolverService::submit_resolve(
    std::shared_ptr<IncrementalSession> session,
    std::shared_ptr<const MutationLog> log, SolverOptions opt) {
  if (session == nullptr || log == nullptr) {
    throw SolveError(StatusCode::kInvalidInput,
                     "submit_resolve requires a session and a mutation log");
  }
  std::shared_ptr<ServiceRequest> req;
  if (admit(
          [&](std::uint64_t id) {
            return new ServiceRequest(id, std::move(session), std::move(log),
                                      std::move(opt));
          },
          req)) {
    stats_.resolves.fetch_add(1, std::memory_order_relaxed);
    HGP_COUNTER_ADD("service.resolves", 1);
  }
  return req;
}

void SolverService::drain() {
  MutexLock lock(mutex_);
  draining_ = true;
  while (!queue_.empty() || !inflight_.empty()) idle_cv_.wait(mutex_);
}

std::size_t SolverService::queue_depth() const {
  const MutexLock lock(mutex_);
  return queue_.size();
}

SolverService::Stats SolverService::stats() const {
  Stats s;
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.admitted = stats_.admitted.load(std::memory_order_relaxed);
  s.rejected_queue_full =
      stats_.rejected_queue_full.load(std::memory_order_relaxed);
  s.rejected_budget = stats_.rejected_budget.load(std::memory_order_relaxed);
  s.rejected_draining =
      stats_.rejected_draining.load(std::memory_order_relaxed);
  s.completed = stats_.completed.load(std::memory_order_relaxed);
  s.retries = stats_.retries.load(std::memory_order_relaxed);
  s.degrades = stats_.degrades.load(std::memory_order_relaxed);
  s.watchdog_cancels = stats_.watchdog_cancels.load(std::memory_order_relaxed);
  s.checkpoint_trees = stats_.checkpoint_trees.load(std::memory_order_relaxed);
  s.checkpoint_spills =
      stats_.checkpoint_spills.load(std::memory_order_relaxed);
  s.checkpoint_spill_failures =
      stats_.checkpoint_spill_failures.load(std::memory_order_relaxed);
  s.checkpoint_recovered =
      stats_.checkpoint_recovered.load(std::memory_order_relaxed);
  s.resolves = stats_.resolves.load(std::memory_order_relaxed);
  return s;
}

void SolverService::write_requests_json(std::ostream& os) const {
  const MemoryBudget& budget = MemoryBudget::global();
  const MutexLock lock(mutex_);
  os << "{\"queue_depth\":" << queue_.size()
     << ",\"inflight\":" << inflight_.size()
     << ",\"draining\":" << (draining_ ? "true" : "false")
     << ",\"budget_limit_bytes\":" << budget.limit()
     << ",\"budget_used_bytes\":" << budget.used()
     << ",\"budget_utilization\":" << budget.utilization()
     << ",\"requests\":[";
  bool first = true;
  const auto emit = [&os, &first](const ServiceRequest& req, const char* state,
                                  std::int64_t queue_position,
                                  double elapsed_ms) {
    // One object per line so line-oriented clients (hgp_top) can parse
    // each entry with string splitting instead of a JSON library.
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"id\":" << req.id() << ",\"state\":\"" << state
       << "\",\"attempt\":"
       << req.attempts_started_.load(std::memory_order_relaxed)
       << ",\"queue_position\":" << queue_position
       << ",\"elapsed_ms\":" << elapsed_ms << "}";
  };
  const auto now = std::chrono::steady_clock::now();
  for (const std::shared_ptr<ServiceRequest>& req : inflight_) {
    double elapsed_ms = 0;
    const char* state = "inflight";
    {
      // Nests inside mutex_, same order as the watchdog scan.
      const MutexLock rlock(req->mutex_);
      if (req->running_ && req->attempt_token_ != nullptr) {
        state = "running";
        elapsed_ms = std::chrono::duration<double, std::milli>(
                         now - req->attempt_start_)
                         .count();
      }
    }
    emit(*req, state, -1, elapsed_ms);
  }
  std::int64_t position = 0;
  for (const std::shared_ptr<ServiceRequest>& req : queue_) {
    emit(*req, "queued", position++, 0);
  }
  os << (first ? "]}" : "\n]}") << "\n";
}

void SolverService::maybe_flight_dump(const char* reason) const {
#if HGP_OBS_ENABLED
  if (opt_.flight_dump_path.empty()) return;
  const Status s =
      obs::FlightRecorder::global().dump_to_file(opt_.flight_dump_path,
                                                 reason);
  if (!s.ok()) {
    HGP_WARN("flight-recorder dump (" << reason
                                      << ") failed: " << s.to_string());
  }
#else
  (void)reason;
#endif
}

// ---------------------------------------------------------------------------
// Durable checkpoint spills

std::string SolverService::spill_path(const CheckpointKey& key) const {
  // One file per key, named by a mix of every key field, so a re-spill of
  // the same request overwrites its predecessor and a restarted process
  // computes the identical name.
  std::uint64_t h = key.graph_fingerprint;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(key.seed);
  mix(static_cast<std::uint64_t>(key.num_trees));
  mix(std::bit_cast<std::uint64_t>(key.epsilon));
  mix(static_cast<std::uint64_t>(key.units_override));
  std::ostringstream name;
  name << std::hex << h;
  return opt_.spill_dir + "/ckpt-" + name.str() + ".ckpt";
}

void SolverService::recover_spills() {
  std::error_code ec;
  std::filesystem::create_directories(opt_.spill_dir, ec);
  for (const auto& entry :
       std::filesystem::directory_iterator(opt_.spill_dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".ckpt") {
      continue;
    }
    const std::string path = entry.path().string();
    SolveCheckpoint probe;
    const Status s = probe.load(path);
    if (!s.ok() || !probe.bound()) {
      // A spill that fails integrity checking carries no usable state;
      // delete it so it cannot shadow a future spill under the same name.
      HGP_WARN("discarding unreadable checkpoint spill " << path << ": "
                                                         << s.to_string());
      stats_.checkpoint_spill_failures.fetch_add(1, std::memory_order_relaxed);
      HGP_COUNTER_ADD("service.checkpoint_spill_failures", 1);
      std::error_code rm;
      std::filesystem::remove(entry.path(), rm);
      continue;
    }
    const MutexLock lock(spill_mutex_);
    recovered_spills_.emplace_back(probe.key(), path);
  }
}

void SolverService::spill_checkpoint(ServiceRequest& req) {
  if (!req.checkpoint_.bound() || req.checkpoint_.size() == 0) return;
  const Status s = req.checkpoint_.save(spill_path(req.checkpoint_.key()));
  if (s.ok()) {
    stats_.checkpoint_spills.fetch_add(1, std::memory_order_relaxed);
    HGP_JOURNAL(kCheckpointSpill, req.id(),
                req.attempts_started_.load(std::memory_order_relaxed),
                static_cast<std::int64_t>(req.checkpoint_.size()), 0);
    HGP_COUNTER_ADD("service.checkpoint_spills", 1);
  } else {
    // Spilling is strictly best-effort: losing durability must never fail
    // the solve, so the failure is counted and logged and the request
    // keeps running on its in-memory checkpoint.
    stats_.checkpoint_spill_failures.fetch_add(1, std::memory_order_relaxed);
    HGP_COUNTER_ADD("service.checkpoint_spill_failures", 1);
    HGP_WARN("checkpoint spill failed: " << s.to_string());
  }
}

void SolverService::try_recover(ServiceRequest& req,
                                const SolverOptions& opt) {
  {
    const MutexLock lock(spill_mutex_);
    if (recovered_spills_.empty()) return;
  }
  // The fingerprint costs O(m); it is only paid while unconsumed spills
  // remain, and solve_hgp recomputes its own copy regardless.
  CheckpointKey key;
  key.graph_fingerprint = graph_fingerprint(*req.graph_);
  key.seed = opt.seed;
  key.num_trees = opt.num_trees;
  key.epsilon = opt.epsilon;
  key.units_override = opt.units_override;
  std::string path;
  {
    const MutexLock lock(spill_mutex_);
    const auto it = std::find_if(
        recovered_spills_.begin(), recovered_spills_.end(),
        [&key](const auto& e) { return e.first == key; });
    if (it == recovered_spills_.end()) return;
    path = it->second;
    recovered_spills_.erase(it);
  }
  const Status s = req.checkpoint_.load(path);
  if (s.ok() && req.checkpoint_.bound() && req.checkpoint_.key() == key) {
    stats_.checkpoint_recovered.fetch_add(1, std::memory_order_relaxed);
    HGP_JOURNAL(kCheckpointRecover, req.id(), 0,
                static_cast<std::int64_t>(req.checkpoint_.size()), 0);
    HGP_COUNTER_ADD("service.checkpoint_recovered", 1);
    HGP_INFO("request " << req.id() << " resumed "
                        << req.checkpoint_.size()
                        << " checkpointed trees from " << path);
  } else {
    // The file rotted between the recovery scan and now (or a key
    // collision slipped through the name hash): drop it and solve from
    // scratch.
    HGP_WARN("recovered checkpoint spill unusable: " << path << ": "
                                                     << s.to_string());
    stats_.checkpoint_spill_failures.fetch_add(1, std::memory_order_relaxed);
    HGP_COUNTER_ADD("service.checkpoint_spill_failures", 1);
    req.checkpoint_.clear();
  }
}

void SolverService::worker_loop() {
  for (;;) {
    std::shared_ptr<ServiceRequest> req;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(mutex_);
      // Even when stopping, finish what was admitted: the destructor
      // drains before it sets stopping_, so this only matters for queued
      // work racing a shutdown.
      if (queue_.empty()) return;
      req = std::move(queue_.front());
      queue_.pop_front();
      inflight_.push_back(req);
      HGP_GAUGE_SET("service.queue_depth", queue_.size());
      HGP_GAUGE_SET("service.inflight", inflight_.size());
    }
    run_request(req);
    {
      const MutexLock lock(mutex_);
      inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), req),
                      inflight_.end());
      stats_.completed.fetch_add(1, std::memory_order_relaxed);
      HGP_GAUGE_SET("service.inflight", inflight_.size());
    }
    HGP_COUNTER_ADD("service.completed", 1);
    // drain()'s predicate (queue_/inflight_ empty) changed under the lock
    // above; notifying after unlock avoids waking drain into a held mutex.
    idle_cv_.notify_all();
  }
}

void SolverService::run_request(const std::shared_ptr<ServiceRequest>& req) {
  {
    const MutexLock lock(req->mutex_);
    req->running_ = true;
  }
  const bool is_resolve = req->session_ != nullptr;
  SolverOptions opt = req->opt_;
  opt.checkpoint = &req->checkpoint_;
  if (opt.pool == nullptr) opt.pool = opt_.solve_pool;
  // Spill recovery keys on the submitted graph; a resolve's checkpoint is
  // bound to the *mutated* graph only once the attempt materializes it, so
  // resolves skip the recovery probe (their warm start is the session's
  // reuse stores; the checkpoint still carries completed trees across the
  // retries of this request, and still spills on failure).
  if (!opt_.spill_dir.empty() && !is_resolve) try_recover(*req, opt);

  RetryOptions retry = opt_.retry;
  // Decorrelate jitter across requests while staying deterministic in
  // (service seed, request id).
  retry.jitter_seed = SplitMix64(retry.jitter_seed ^ (req->id() + 1)).next();

  RetryHooks hooks;
  hooks.before_attempt = [this, &req](SolverOptions& o) {
    auto token = std::make_shared<CancelToken>();
    req->attempts_started_.fetch_add(1, std::memory_order_relaxed);
    {
      const MutexLock lock(req->mutex_);
      req->watchdog_cancelled_.store(false, std::memory_order_release);
      req->attempt_token_ = token;
      req->attempt_start_ = std::chrono::steady_clock::now();
    }
    // A caller cancel that landed between attempts must still stop the
    // request: pre-cancel the fresh token so the solve unwinds at its
    // first check.
    if (req->caller_cancelled_.load(std::memory_order_acquire)) {
      token->request_cancel();
    }
    o.cancel = token.get();
  };
  hooks.cancel_is_transient = [&req] {
    return req->watchdog_cancelled_.load(std::memory_order_acquire) &&
           !req->caller_cancelled_.load(std::memory_order_acquire);
  };
  hooks.backoff_wait = [&req](double ms) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(ms);
    MutexLock lock(req->mutex_);
    while (!req->caller_cancelled_.load(std::memory_order_acquire)) {
      const double left_ms = std::chrono::duration<double, std::milli>(
                                 deadline - std::chrono::steady_clock::now())
                                 .count();
      if (left_ms <= 0) break;
      req->cv_.wait_for_ms(req->mutex_, left_ms);
    }
    return !req->caller_cancelled_.load(std::memory_order_acquire);
  };
  hooks.on_retry = [this] {
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    HGP_COUNTER_ADD("service.retries", 1);
  };
  hooks.on_degrade = [this] {
    stats_.degrades.fetch_add(1, std::memory_order_relaxed);
    HGP_COUNTER_ADD("service.degrades", 1);
  };
  if (!opt_.spill_dir.empty()) {
    hooks.on_attempt_failed = [this, &req](const Status&) {
      spill_checkpoint(*req);
    };
  }
  hooks.on_watchdog_cancel = [this] {
    maybe_flight_dump("watchdog cancelled a stuck attempt");
  };
  hooks.on_terminal_failure = [this](const Status& s) {
    // kInternal is a broken contract, not an expected outcome — worth a
    // post-mortem dump even though the process survives.
    if (s.code == StatusCode::kInternal) {
      maybe_flight_dump("request terminated with kInternal");
    }
  };

  const auto solve = [&req, is_resolve](const SolverOptions& o) -> HgpResult {
    if (is_resolve) return req->session_->run_attempt(*req->log_, o);
    return solve_hgp(*req->graph_, *req->hierarchy_, o);
  };
  // A resolve takes no ladder step: its kResourceExhausted goes straight to
  // the retry budget.
  RetrySolveReport rep = run_retry_loop(solve, std::move(opt), retry,
                                        /*ladder=*/!is_resolve, hooks,
                                        req->id());
  if (!opt_.spill_dir.empty() && rep.status.ok() && req->checkpoint_.bound()) {
    // Terminal success: the durable state served its purpose; remove the
    // spill so the directory only holds work worth resuming.
    std::error_code ec;
    std::filesystem::remove(spill_path(req->checkpoint_.key()), ec);
  }
  if (rep.has_result && rep.result.telemetry.checkpoint_trees > 0) {
    const auto n =
        static_cast<std::uint64_t>(rep.result.telemetry.checkpoint_trees);
    stats_.checkpoint_trees.fetch_add(n, std::memory_order_relaxed);
    HGP_COUNTER_ADD("service.checkpoint_trees", n);
  }
  req->finish(std::move(rep));
}

void SolverService::watchdog_loop() {
  MutexLock lock(mutex_);
  while (!stopping_) {
    watchdog_cv_.wait_for_ms(mutex_, opt_.watchdog_poll_ms);
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (const std::shared_ptr<ServiceRequest>& req : inflight_) {
      std::shared_ptr<CancelToken> token;
      {
        // Nests inside mutex_ — the one place the service → request lock
        // order is exercised with both held.
        const MutexLock rlock(req->mutex_);
        if (!req->running_ || req->attempt_token_ == nullptr) continue;
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(now - req->attempt_start_)
                .count();
        if (elapsed_ms < opt_.stuck_after_ms) continue;
        if (req->attempt_token_->cancelled()) continue;  // already handled
        // Flag before cancelling: the worker that observes the cancelled
        // token (acquire) must also see this store so it classifies the
        // cancel as watchdog-transient, not caller-terminal.
        req->watchdog_cancelled_.store(true, std::memory_order_release);
        token = req->attempt_token_;
      }
      // Poke the token outside req->mutex_ — no lock held across the
      // cancel propagation.
      token->request_cancel();
      stats_.watchdog_cancels.fetch_add(1, std::memory_order_relaxed);
      HGP_JOURNAL(kWatchdogCancel, req->id(),
                  req->attempts_started_.load(std::memory_order_relaxed), 0,
                  StatusCode::kCancelled);
      HGP_COUNTER_ADD("service.watchdog_cancels", 1);
    }
  }
}

}  // namespace hgp
