#include "runtime/coordinator.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "graph/fingerprint.hpp"
#include "io/snapshot.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "obs/event_journal.hpp"  // next_library_request_id under HGP_OBS=OFF
#include "obs/obs.hpp"
#include "util/prng.hpp"

extern char** environ;

namespace hgp {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Reaps `pid` if it has exited (or was already reaped elsewhere).
bool reap_if_exited(pid_t pid) {
  const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
  return r == pid || (r < 0 && errno == ECHILD);
}

std::string default_socket_dir() {
  const char* tmp = std::getenv("TMPDIR");
  return (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
}

}  // namespace

struct ShardCoordinator::Impl {
  // ------------------------------------------------------------------ types

  /// One tree's lease; its index in `leases` is the tree index.
  struct Lease {
    /// Fencing token.  Starts at 1 (Assign decode rejects epoch 0) and is
    /// bumped on every reassignment; a result echoing an older epoch came
    /// from a shard that was declared dead after this tree moved on.
    std::uint64_t epoch = 1;
    enum class State { kPending, kLeased, kDone } state = State::kPending;
    int owner = -1;  ///< shard id while leased
  };

  /// One connection; its index in `shards` is the shard id.
  struct Shard {
    net::FrameChannel channel;
    /// Hello sent, then Job sent, then idle and busy in turn; dead is final.
    enum class State { kHello, kJob, kIdle, kBusy, kDead } state =
        State::kHello;
    /// In the poll set.  A dead shard that loaded the Job stays in it until
    /// its socket closes or a frame fails to read, so a zombie's late
    /// frames are read and fenced, not left unread in a closed pipe.
    bool polled = true;
    Deadline handshake;  ///< budget for the Hello and the Job load
    Clock::time_point last_heard = Clock::now();
    int outstanding = -1;  ///< leased tree index, -1 when idle
  };

  // ----------------------------------------------------------------- fields

  const Graph& g;
  const Hierarchy& h;
  const SolverOptions opt;
  const CoordinatorOptions copt;

  std::vector<Shard> shards;
  std::vector<Lease> leases;
  std::size_t leases_done = 0;
  CoordinatorReport report;

  SolveCheckpoint local_checkpoint;
  SolveCheckpoint* checkpoint = nullptr;
  std::vector<net::Socket> adopted;
  std::vector<std::byte> job_payload;
  std::uint64_t fingerprint = 0;
  std::uint64_t rid = 0;
  Deadline deadline;
  Rng jitter;
  net::Listener listener;
  std::vector<pid_t> children;
  bool solved = false;

  Impl(const Graph& g_in, const Hierarchy& h_in, SolverOptions opt_in,
       CoordinatorOptions copt_in)
      : g(g_in),
        h(h_in),
        opt(std::move(opt_in)),
        copt(std::move(copt_in)),
        jitter(opt.seed ^ 0x5ea5'c0de'5ea5'c0deull) {}

  // ------------------------------------------------------- stage 1: the job

  /// Serializes the instance into the Job payload every shard receives:
  /// the graph and the hierarchy.  The forest is not shipped; each shard
  /// builds the tree it leases from the Job's seed.
  void build_job() {
    io::SnapshotWriter w;
    io::append_graph_sections(w, g);
    io::append_hierarchy_sections(w, h);

    net::JobMsg job;
    job.epsilon = opt.epsilon;
    job.units_override = opt.units_override;
    job.seed = opt.seed;
    job.num_trees = opt.num_trees;
    job.heartbeat_ms = copt.heartbeat_ms;
    job.snapshot_blob = w.serialize();
    job_payload = net::encode_job(job);
    leases.resize(static_cast<std::size_t>(opt.num_trees));
  }

  // --------------------------------------------------------- shard plumbing

  /// Adds a connected shard and sends its Hello.  The loop carries the
  /// handshake and the Job load on from there, each shard against its own
  /// handshake_timeout_ms, so a silent shard delays no other.
  void add_shard(net::Socket sock) {
    Shard& s = shards.emplace_back();
    s.channel = net::FrameChannel(std::move(sock));
    s.handshake = Deadline::after_ms(copt.handshake_timeout_ms);
    try {
      net::send_hello(s.channel, net::kRoleCoordinator, s.handshake);
    } catch (...) {
      declare_dead(static_cast<int>(shards.size()) - 1);
    }
  }

  /// Reads one whole frame from a shard whose socket polled ready and acts
  /// on it.  A frame stalled mid-read gets lease_ms.  A close, that stall,
  /// or a torn, malformed or unexpected frame (already classified by the
  /// net layer) kills the shard and takes it out of the poll set.
  void receive(int id) {
    Shard& s = shards[static_cast<std::size_t>(id)];
    try {
      if (std::optional<net::Frame> frame =
              s.channel.recv(Deadline::after_ms(copt.lease_ms))) {
        s.last_heard = Clock::now();
        dispatch(id, *frame);
        return;
      }
    } catch (...) {
      // Whatever went wrong, the net layer classified it; all the loop
      // does with it is declare the shard dead.
    }
    s.polled = false;
    if (s.state != Shard::State::kDead) declare_dead(id);
  }

  /// Acts on one frame by the shard's state: a HelloAck that checks out
  /// sends the Job, a JobAck naming this instance makes the shard idle,
  /// and after that come heartbeats and results.  Anything else throws.
  void dispatch(int id, const net::Frame& frame) {
    Shard& s = shards[static_cast<std::size_t>(id)];
    if (s.state == Shard::State::kHello) {
      net::check_hello_ack(frame);
      s.channel.send(net::kMsgJob, job_payload, s.handshake);
      s.state = Shard::State::kJob;
    } else if (s.state == Shard::State::kJob) {
      if (frame.type != net::kMsgJobAck) {
        throw SolveError(StatusCode::kDataLoss,
                         "expected JobAck, got frame type " +
                             std::to_string(frame.type));
      }
      const net::JobAckMsg ack = net::decode_job_ack(frame.payload);
      if (ack.graph_fingerprint != fingerprint ||
          ack.num_trees != opt.num_trees) {
        throw SolveError(StatusCode::kDataLoss,
                         "shard acked a different instance");
      }
      s.state = Shard::State::kIdle;
      ++report.shards_up;
      HGP_COUNTER_ADD("shard.up", 1);
      HGP_JOURNAL(kShardUp, rid, 0, id, 0);
    } else if (frame.type == net::kMsgHeartbeat) {
      if (!frame.payload.empty()) {
        throw SolveError(StatusCode::kDataLoss, "heartbeat carries a payload");
      }
      HGP_COUNTER_ADD("shard.heartbeats", 1);
    } else if (frame.type == net::kMsgTreeResult) {
      accept_result(id, net::decode_tree_result(frame.payload));
    } else {
      throw SolveError(StatusCode::kDataLoss,
                       "unexpected frame type " + std::to_string(frame.type) +
                           " from shard");
    }
  }

  /// Exactly-once admission of a shard's tree result.  Anything that is
  /// not the *currently leased* (tree, epoch, owner) triple is a zombie:
  /// the shard was declared dead and the tree reassigned (stale epoch), or
  /// the tree already completed (double delivery).  Fenced results are
  /// counted and dropped — never recorded.
  void accept_result(int id, net::TreeResultMsg res) {
    Shard& s = shards[static_cast<std::size_t>(id)];
    const bool in_range =
        res.tree_index >= 0 &&
        static_cast<std::size_t>(res.tree_index) < leases.size();
    Lease* l = in_range ? &leases[static_cast<std::size_t>(res.tree_index)]
                        : nullptr;
    const bool current = l != nullptr && l->state == Lease::State::kLeased &&
                         l->owner == id && l->epoch == res.epoch &&
                         s.state == Shard::State::kBusy;
    if (!current) {
      ++report.zombies_fenced;
      HGP_COUNTER_ADD("shard.zombies_fenced", 1);
      HGP_JOURNAL(kZombieFenced, rid, 0, res.tree_index, 0);
      return;
    }
    if (res.status != static_cast<std::uint8_t>(StatusCode::kOk)) {
      // The tree failed remotely; leaving it out of the checkpoint makes
      // the final solve_hgp re-attempt it in-process, which is exactly
      // what per-tree fault isolation does locally.
      HGP_COUNTER_ADD("shard.remote_tree_failures", 1);
    } else {
      // Wire results are untrusted until proven shaped like this instance,
      // by the same check the forest executor applies to recovered
      // checkpoints.
      CheckpointedTree ck;
      ck.placement.leaf_of = std::move(res.leaf_of);
      ck.cost = res.cost;
      ck.stats = res.stats;
      if (tree_result_fits(g, h, ck)) {
        checkpoint->record(res.tree_index, std::move(ck));
        ++report.trees_from_shards;
        HGP_COUNTER_ADD("shard.trees_from_shards", 1);
      } else {
        HGP_COUNTER_ADD("shard.malformed_tree_results", 1);
      }
    }
    l->state = Lease::State::kDone;
    l->owner = -1;
    ++leases_done;
    ++report.batches_completed;
    HGP_COUNTER_ADD("shard.batches_completed", 1);
    s.outstanding = -1;
    s.state = Shard::State::kIdle;
  }

  /// Marks the shard dead and re-queues its lease under a bumped epoch.  A
  /// shard that never loaded the Job holds no lease, so nothing it could
  /// still send needs fencing: it leaves the poll set.
  void declare_dead(int id) {
    Shard& s = shards[static_cast<std::size_t>(id)];
    if (s.state == Shard::State::kHello || s.state == Shard::State::kJob) {
      s.polled = false;
    }
    s.state = Shard::State::kDead;
    ++report.shards_lost;
    HGP_COUNTER_ADD("shard.lost", 1);
    HGP_JOURNAL(kShardLost, rid, 0, id, 0);
    if (s.outstanding >= 0) {
      Lease& l = leases[static_cast<std::size_t>(s.outstanding)];
      if (l.state == Lease::State::kLeased && l.owner == id) {
        ++l.epoch;
        l.state = Lease::State::kPending;
        l.owner = -1;
        ++report.batches_reassigned;
        HGP_COUNTER_ADD("shard.batches_reassigned", 1);
        HGP_JOURNAL(kBatchReassign, rid, 0, s.outstanding, 0);
      }
      s.outstanding = -1;
    }
  }

  // ---------------------------------------------------------- spawn-local

  pid_t spawn_worker() {
    std::vector<std::string> args;
    args.push_back(copt.shardd_path);
    args.push_back("--connect");
    args.push_back(listener.path());
    args.insert(args.end(), copt.shard_args.begin(), copt.shard_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, copt.shardd_path.c_str(), nullptr,
                                 nullptr, argv.data(), environ);
    if (rc != 0) {
      throw SolveError(StatusCode::kUnavailable,
                       "failed to spawn shard worker " + copt.shardd_path +
                           ": " + std::string(std::strerror(rc)));
    }
    children.push_back(pid);
    return pid;
  }

  /// Binds the listening socket and spawns the spawn-local workers.  Runs
  /// before the Job encode, so each worker's exec and connect overlap it;
  /// the kernel queues the connections until accept_workers.
  std::vector<pid_t> spawn_workers() {
    std::vector<pid_t> spawned;
    if (copt.shardd_path.empty() || copt.num_shards <= 0) return spawned;
    const std::string dir =
        copt.socket_dir.empty() ? default_socket_dir() : copt.socket_dir;
    const std::string path = dir + "/hgp-coord-" +
                             std::to_string(static_cast<long>(::getpid())) +
                             "-" + std::to_string(rid & 0xffffffu) + ".sock";
    listener = net::Listener::listen_unix(path);
    for (int i = 0; i < copt.num_shards; ++i) spawned.push_back(spawn_worker());
    return spawned;
  }

  /// Accepts one connection per worker in `spawned` before
  /// handshake_timeout_ms.  The accept runs in short slices with a reap
  /// before each, so a worker that exits without connecting costs a slice,
  /// not the whole budget.  It counts as a lost shard, as does a worker
  /// still silent at the deadline, and supervise() then applies the
  /// respawn budget and the in-process degrade.
  ///
  /// A worker connects before it exits, so an empty slice after a reap has
  /// drained every connection an exited worker made.  One that connects
  /// and dies before its accept is counted on both sides; the wait then
  /// ends one connection early and the late worker stays queued until a
  /// respawn accepts it or teardown closes the listener.
  void accept_workers(std::vector<pid_t> spawned) {
    constexpr double kSliceMs = 10;
    const Deadline until = Deadline::after_ms(copt.handshake_timeout_ms);
    const std::size_t want = spawned.size();
    std::size_t accepted = 0;
    std::size_t exited = 0;
    while (accepted < want) {
      exited += std::erase_if(spawned, [this](pid_t pid) {
        if (!reap_if_exited(pid)) return false;
        std::erase(children, pid);
        return true;
      });
      try {
        add_shard(listener.accept_connection(
            Deadline::after_ms(std::min(kSliceMs, until.remaining_ms()))));
        ++accepted;
      } catch (const SolveError& e) {
        if (e.code() != StatusCode::kDeadlineExceeded) throw;
        if (accepted + exited >= want || until.expired()) break;
      }
    }
    for (std::size_t i = accepted; i < want; ++i) {
      ++report.shards_lost;
      HGP_COUNTER_ADD("shard.lost", 1);
      HGP_JOURNAL(kShardLost, rid, 0, -1, 0);
    }
  }

  // ------------------------------------------------------------ supervision

  bool cancelled() const {
    return opt.cancel != nullptr && opt.cancel->cancelled();
  }

  /// The coordinator's one loop.  Each pass waits for any shard socket to
  /// turn readable, reads one frame from each that did, then expires
  /// leases and late handshakes, leases pending trees to idle shards and
  /// respawns within budget.  It stops when the work is done, the deadline
  /// passed, or no shard can make progress (the final in-process
  /// aggregation covers whatever is left).
  void supervise() {
    const double wait_ms = std::max(5.0, std::min(50.0, copt.lease_ms / 4));
    int respawn_attempt = 0;
    for (;;) {
      if (cancelled()) {
        throw SolveError(StatusCode::kCancelled,
                         "cancelled during sharded solve");
      }
      if (deadline.expired()) return;

      std::vector<const net::Socket*> polled;
      for (Shard& s : shards) {
        polled.push_back(s.polled ? &s.channel.socket() : nullptr);
      }
      const std::vector<bool> ready = net::poll_readable(polled, wait_ms);
      const Clock::time_point polled_at = Clock::now();
      for (std::size_t i = 0; i < ready.size(); ++i) {
        if (ready[i]) receive(static_cast<int>(i));
      }
      if (leases_done == leases.size()) return;

      // Deadline scan.  A shard still in its handshake past its budget is
      // lost.  A busy shard whose socket polled empty, last heard from
      // more than lease_ms before the poll, is dead and its tree goes back
      // in the queue under a fresh epoch: what it sent by then was read
      // above, so its silence is its own, never a late read here.
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const Shard& s = shards[i];
        const bool handshaking = s.state == Shard::State::kHello ||
                                 s.state == Shard::State::kJob;
        if (handshaking && s.handshake.expired()) {
          declare_dead(static_cast<int>(i));
          continue;
        }
        if (s.state != Shard::State::kBusy || ready[i]) continue;
        if (ms_between(s.last_heard, polled_at) <= copt.lease_ms) continue;
        ++report.lease_expiries;
        HGP_COUNTER_ADD("shard.lease_expiries", 1);
        HGP_JOURNAL(kLeaseExpire, rid, 0, s.outstanding, 0);
        declare_dead(static_cast<int>(i));
      }

      // Assignment: one outstanding tree per shard keeps reassignment
      // loss bounded to a single tree per failure.
      for (std::size_t i = 0; i < shards.size(); ++i) {
        Shard& s = shards[i];
        if (s.state != Shard::State::kIdle) continue;
        const auto next =
            std::find_if(leases.begin(), leases.end(), [](const Lease& l) {
              return l.state == Lease::State::kPending;
            });
        if (next == leases.end()) break;
        next->state = Lease::State::kLeased;
        next->owner = static_cast<int>(i);
        s.state = Shard::State::kBusy;
        s.outstanding = static_cast<int>(next - leases.begin());
        s.last_heard = Clock::now();  // a fresh lease starts a fresh clock
        ++report.batches_assigned;
        HGP_COUNTER_ADD("shard.batches_assigned", 1);
        try {
          s.channel.send(net::kMsgAssign,
                         net::encode_assign({next->epoch, s.outstanding}),
                         Deadline::after_ms(10000));
        } catch (...) {
          declare_dead(static_cast<int>(i));
        }
      }

      if (std::any_of(shards.begin(), shards.end(), [](const Shard& s) {
            return s.state != Shard::State::kDead;
          })) {
        continue;
      }
      if (!listener.valid() || report.respawns >= copt.respawn_limit) {
        return;  // degrade: finish in-process
      }
      // Replacement workers reuse the retry loop's backoff-with-jitter
      // schedule so a crash-looping binary cannot hot-spin the spawner.
      // The nap blocks the loop, but no shard is alive to be served.
      const double sleep_ms =
          backoff_for_retry(copt.reconnect, respawn_attempt++, jitter);
      const Deadline until = Deadline::after_ms(sleep_ms);
      while (!until.expired() && !cancelled() && !deadline.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<int>(std::max(1.0, std::min(20.0, until.remaining_ms())))));
      }
      if (cancelled() || deadline.expired()) continue;
      ++report.respawns;
      HGP_COUNTER_ADD("shard.respawns", 1);
      try {
        accept_workers({spawn_worker()});
      } catch (...) {
        // Spawn or accept failed; budget was consumed, loop decides again.
      }
    }
  }

  // --------------------------------------------------------------- teardown

  /// Idempotent: sends every shard Shutdown and closes its socket, closes
  /// the listener and reaps spawned children.  Runs on every exit path of
  /// solve(), including throws.
  void cleanup() noexcept {
    for (Shard& s : shards) {
      try {
        s.channel.send(net::kMsgShutdown, {}, Deadline::after_ms(500));
      } catch (...) {
        // Best-effort courtesy; the close below is what ends things.
      }
      s.channel.close();
    }
    listener.close();
    // Workers exit on Shutdown/EOF within about a millisecond: poll with a
    // doubling nap rather than a fixed sleep, and give them one shared
    // grace window before making sure nothing outlives the solve.
    const Deadline grace = Deadline::after_ms(2000);
    double nap_ms = 0.05;
    for (;;) {
      std::erase_if(children, reap_if_exited);
      if (children.empty()) break;
      if (grace.expired()) {
        for (const pid_t pid : children) ::kill(pid, SIGKILL);
        for (const pid_t pid : children) ::waitpid(pid, nullptr, 0);
        children.clear();
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(nap_ms));
      nap_ms = std::min(nap_ms * 2, 5.0);
    }
  }

  // ------------------------------------------------------------------ solve

  HgpResult solve() {
    if (solved) {
      throw SolveError(StatusCode::kInvalidInput,
                       "ShardCoordinator::solve() may run only once");
    }
    solved = true;
    // solve_hgp's own argument check, up front, so a bad request fails
    // before any process is spawned.
    validate_solve_args(g, opt.num_trees, opt.timeout_ms, opt.epsilon);
    if (opt.cutter != nullptr) {
      // Shards build their trees with the default cutter; a custom one
      // would make their trees differ from this solve's forest.
      throw SolveError(StatusCode::kInvalidInput,
                       "sharded solves use the default cutter");
    }
    if (copt.lease_ms <= 0) {
      throw SolveError(StatusCode::kInvalidInput, "lease_ms must be > 0");
    }
    // Every tree's DP would reject an instance whose rounded demand total
    // overflows the root capacity, and solve_hgp rejects it before it
    // builds a tree: such a solve leases nothing and spawns no worker.
    report.rounded_demand_overflow =
        !rounded_demand_overflow(g, h, opt.epsilon, opt.units_override)
             .empty();

    rid = obs::next_library_request_id();
    deadline = opt.timeout_ms > 0 ? Deadline::after_ms(opt.timeout_ms)
                                  : Deadline::never();
    checkpoint = opt.checkpoint != nullptr ? opt.checkpoint : &local_checkpoint;
    fingerprint = graph_fingerprint(g);
    checkpoint->bind(CheckpointKey{fingerprint, opt.seed, opt.num_trees,
                                   opt.epsilon, opt.units_override});
    checkpoint->set_request_context(rid, 0);

    // The phase timeline in the report: one clock read per phase.
    Clock::time_point mark = Clock::now();
    const auto lap = [&mark] {
      const Clock::time_point now = Clock::now();
      const double ms = ms_between(mark, now);
      mark = now;
      return ms;
    };

    if (!report.rounded_demand_overflow) {
      try {
        std::vector<pid_t> spawned = spawn_workers();
        report.connect_ms = lap();
        build_job();
        report.job_ms = lap();
        for (net::Socket& sock : adopted) add_shard(std::move(sock));
        adopted.clear();
        accept_workers(std::move(spawned));
        report.connect_ms += lap();
        supervise();
        report.trees_ms = lap();
      } catch (...) {
        cleanup();
        throw;
      }
      cleanup();
      report.teardown_ms = lap();
      report.degraded_inprocess =
          checkpoint->size() < static_cast<std::size_t>(opt.num_trees);
    }

    // Final aggregation IS solve_hgp, so the one forest executor: every
    // shard-delivered tree is served from the checkpoint without re-running
    // its DP, every missing tree is built and solved in-process, and the
    // arg-min, failure classification and fallback chain run unmodified —
    // which is the whole bit-identity argument.
    SolverOptions final_opt = opt;
    final_opt.checkpoint = checkpoint;
    if (opt.timeout_ms > 0) {
      final_opt.timeout_ms = std::max(deadline.remaining_ms(), 0.001);
    }
    return solve_hgp(g, h, final_opt);
  }
};

ShardCoordinator::ShardCoordinator(const Graph& g, const Hierarchy& h,
                                   SolverOptions opt, CoordinatorOptions copt)
    : impl_(std::make_unique<Impl>(g, h, std::move(opt), std::move(copt))) {}

ShardCoordinator::~ShardCoordinator() { impl_->cleanup(); }

void ShardCoordinator::adopt_shard(net::Socket socket) {
  impl_->adopted.push_back(std::move(socket));
}

HgpResult ShardCoordinator::solve() { return impl_->solve(); }

const CoordinatorReport& ShardCoordinator::report() const {
  return impl_->report;
}

HgpResult solve_hgp_sharded(const Graph& g, const Hierarchy& h,
                            const SolverOptions& opt,
                            const CoordinatorOptions& copt,
                            CoordinatorReport* report) {
  ShardCoordinator coordinator(g, h, opt, copt);
  try {
    HgpResult result = coordinator.solve();
    if (report != nullptr) *report = coordinator.report();
    return result;
  } catch (...) {
    if (report != nullptr) *report = coordinator.report();
    throw;
  }
}

}  // namespace hgp
