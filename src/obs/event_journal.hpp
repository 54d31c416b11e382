// Request-scoped structured event journal: the causal history behind the
// metrics.
//
// Counters say *how many* retries happened; the journal says *which
// request* retried, after what failure, and what the service did next.
// Every lifecycle transition of a request (submit, admit/reject, attempt
// start/end, retry + backoff, degrade step, checkpoint spill/recover/
// record, watchdog cancel, fallback stage) is recorded as a fixed-size
// typed event stamped with the request id, the attempt number and the
// recording thread.  The flight recorder (obs/flight_recorder.hpp) dumps
// the journal tail when something goes wrong; the chaos harness attaches
// it to assertion failures.
//
// Concurrency: lock-free by construction, TSan- and signal-safe to read.
// Events land in per-thread ring buffers (dense thread id → ring; with
// more threads than rings, a ring is shared and the write index is
// claimed with fetch_add).  Every slot field is a relaxed atomic — plain
// stores on real hardware — and the ring's write index is published with
// release order, so a snapshot that acquire-loads the index sees fully
// written events.  A reader discards any event the index says may have
// been overwritten while it was copying (lap detection), trading a few
// lost tail events under extreme load for a hot path with no locks, no
// allocation and no fences beyond one release store.
//
// Instrument through the HGP_JOURNAL* macros in obs/obs.hpp — they
// compile to no-ops under HGP_OBS=OFF like the rest of the layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hgp::obs {

/// Event taxonomy (docs/OBSERVABILITY.md has the annotated table).  The
/// numeric values are stable once released: flight-recorder dumps and the
/// journal's consumers identify kinds by name, but mixed-version tooling
/// reads raw dumps too.
enum class EventKind : std::uint8_t {
  kSubmit = 0,            ///< request entered SolverService::submit
  kAdmit = 1,             ///< admission passed; request queued
  kReject = 2,            ///< admission rejected (arg: reject reason index)
  kAttemptStart = 3,      ///< retry-loop attempt began (arg: num_trees)
  kAttemptEnd = 4,        ///< attempt finished (status: outcome code)
  kRetry = 5,             ///< retry granted (arg: retries used so far)
  kBackoff = 6,           ///< backoff sleep began (arg: sleep ms)
  kDegrade = 7,           ///< degradation-ladder step (arg: new num_trees)
  kCheckpointSpill = 8,   ///< checkpoint spilled to disk (arg: tree count)
  kCheckpointRecover = 9, ///< spilled checkpoint recovered (arg: tree count)
  kCheckpointRecord = 10, ///< one tree recorded into the checkpoint (arg: i)
  kWatchdogCancel = 11,   ///< watchdog cancelled a stuck attempt
  kCallerCancel = 12,     ///< caller cancelled the request
  kFallbackStage = 13,    ///< fallback-chain stage entered (arg: stage)
  kResolveStart = 14,     ///< incremental re-solve began (arg: mutation count)
  kResolveEnd = 15,       ///< incremental re-solve finished (arg: DP nodes
                          ///< reused; status: outcome code)
  kShardUp = 16,          ///< shard handshake + job load done (arg: shard id)
  kShardLost = 17,        ///< shard declared dead — socket error or missed
                          ///< heartbeats past its lease (arg: shard id)
  kLeaseExpire = 18,      ///< a leased tree's shard missed heartbeats past
                          ///< the lease (arg: tree index)
  kBatchReassign = 19,    ///< leased tree re-queued under a bumped epoch
                          ///< (arg: tree index)
  kZombieFenced = 20,     ///< stale-epoch result discarded (arg: tree index)
  kCount                  // number of kinds; keep last
};

/// Stable lowercase name of a kind ("attempt_start", ...).
const char* event_kind_name(EventKind kind);

/// Fallback-chain stage indices carried in kFallbackStage's arg.
inline constexpr std::int64_t kFallbackStageMultilevel = 1;
inline constexpr std::int64_t kFallbackStageGreedy = 2;

/// One decoded journal event (the copy a snapshot hands out; the in-ring
/// representation is atomic words).
struct JournalEvent {
  std::int64_t ts_us = 0;        ///< microseconds since journal epoch
  std::uint64_t request_id = 0;
  std::uint32_t attempt = 0;     ///< 0 = outside any attempt / first
  std::uint32_t tid = 0;         ///< dense thread id (util/thread_id.hpp)
  EventKind kind = EventKind::kSubmit;
  std::uint8_t status = 0;       ///< StatusCode of the outcome, 0 = none
  std::int64_t arg = 0;          ///< kind-specific payload
};

/// The journal.  One global instance backs the macros; tests may build
/// private ones.
class EventJournal {
 public:
  /// Events retained per ring (power of two; ~64 threads' worth of rings
  /// exist, so the journal tail covers kRingCapacity recent events per
  /// active thread).
  static constexpr std::size_t kRingCapacity = 1024;
  static constexpr std::size_t kRings = 64;

  EventJournal();
  ~EventJournal();
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Process-wide journal the HGP_JOURNAL macros record into.
  static EventJournal& global();

  /// Records one event.  Lock-free; safe from any thread, including
  /// concurrently with snapshot() and signal-safe readers.
  void record(EventKind kind, std::uint64_t request_id, std::uint32_t attempt,
              std::int64_t arg = 0, std::uint8_t status = 0);

  /// Copies every retained event, oldest first (global ts_us order).
  /// Events that may have been overwritten mid-copy are discarded.
  std::vector<JournalEvent> snapshot() const;

  /// Total events ever recorded (relaxed; approximate under concurrency).
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Resets every ring to empty.  Test scoping only: concurrent writers
  /// may interleave with the reset (benignly — slots are atomics).
  void clear();

  /// Microseconds since the journal's construction (the ts_us clock).
  std::int64_t now_us() const;

  // --- async-signal-safe surface (flight recorder's fatal-signal dump) --

  /// Maximum events visit_signal_safe can report.
  static constexpr std::size_t kMaxSignalEvents = kRings * kRingCapacity;

  /// Copies up to `max` retained events into `out` without allocating,
  /// locking or calling the C++ runtime: relaxed/acquire atomic loads
  /// only.  Returns the number written.  Events arrive ring-by-ring (NOT
  /// globally time-ordered — the consumer sorts, or tooling does).
  std::size_t copy_events_signal_safe(JournalEvent* out,
                                      std::size_t max) const;

 private:
  struct Slot {
    // One event, packed into four relaxed atomic words: w0 = ts_us,
    // w1 = request_id, w2 = attempt(32) | tid(16) | kind(8) | status(8),
    // w3 = arg.  `stamp` publishes: it release-stores seq+1 after the
    // field writes, so a reader that acquire-loads the expected stamp sees
    // complete fields (0 = slot never written).
    std::atomic<std::uint64_t> w0{0};
    std::atomic<std::uint64_t> w1{0};
    std::atomic<std::uint64_t> w2{0};
    std::atomic<std::uint64_t> w3{0};
    std::atomic<std::uint64_t> stamp{0};
  };
  struct Ring {
    Slot slots[kRingCapacity];
    /// Next sequence number; slot = seq % kRingCapacity.  Writers claim
    /// with fetch_add(acq_rel) — release publishes the slot stores,
    /// acquire orders a shared ring's claims.
    std::atomic<std::uint64_t> head{0};
  };

  Ring* ring_for_thread();
  static std::size_t read_ring(const Ring& ring, JournalEvent* out,
                               std::size_t max);

  /// Rings are allocated on first use by a thread hashing to the index
  /// and installed with a CAS; never freed before destruction.
  std::atomic<Ring*> rings_[kRings];
  std::atomic<std::uint64_t> recorded_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII thread-local request/attempt scope: emit sites deep in the solver
/// (fallback stages, checkpoint records — possibly far from any place the
/// id is passed explicitly) read the ambient scope instead of threading
/// ids through every signature.  Scopes nest; each restores its
/// predecessor.  The scope is per-thread: work handed to a thread pool
/// does not inherit it (those events carry request id 0).
class RequestScope {
 public:
  RequestScope(std::uint64_t request_id, std::uint32_t attempt);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// Ambient ids of the calling thread (0 outside any scope).
  static std::uint64_t current_request_id();
  static std::uint32_t current_attempt();

 private:
  std::uint64_t saved_request_id_;
  std::uint32_t saved_attempt_;
};

/// Allocates a process-unique request id for callers outside the service
/// (solve_with_retry journals under these so concurrent library users
/// stay distinguishable from service requests, which use their own dense
/// ids offset into a different range).
std::uint64_t next_library_request_id();

}  // namespace hgp::obs
