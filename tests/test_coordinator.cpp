// Coordinator supervision tests: lease expiry, crash reassignment, zombie
// fencing, all-shards-lost degradation and caller cancellation, all driven
// with REAL shard servers on in-process threads plus scripted misbehaving
// peers (src/runtime/coordinator.hpp, docs/RESILIENCE.md).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "decomp/cutter.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/event_journal.hpp"
#include "obs/obs.hpp"  // HGP_OBS_ENABLED
#include "runtime/checkpoint.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/shard_server.hpp"
#include "util/deadline.hpp"
#include "util/fault_injector.hpp"
#include "util/prng.hpp"
#include "util/sync.hpp"

namespace hgp {
namespace {

Graph workload(std::uint64_t seed, Vertex n = 20) {
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

SolverOptions base_options(std::uint64_t seed, int trees = 4) {
  SolverOptions opt;
  opt.num_trees = trees;
  opt.epsilon = 0.5;
  opt.seed = seed;
  return opt;
}

/// The coordinated result must be indistinguishable from the single-process
/// one at the bit level — costs compared as bit patterns, not with an
/// epsilon.
void expect_bit_identical(const HgpResult& got, const HgpResult& want) {
  EXPECT_EQ(std::memcmp(&got.cost, &want.cost, sizeof got.cost), 0)
      << got.cost << " vs " << want.cost;
  EXPECT_EQ(got.placement.leaf_of, want.placement.leaf_of);
  EXPECT_EQ(got.best_tree, want.best_tree);
  EXPECT_EQ(got.method, want.method);
  ASSERT_EQ(got.tree_costs.size(), want.tree_costs.size());
  for (std::size_t i = 0; i < got.tree_costs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.tree_costs[i], &want.tree_costs[i],
                          sizeof(double)),
              0)
        << "tree " << i;
  }
}

/// A real shard server running on an in-process thread; the coordinator
/// adopts the other end of the socket pair.
struct ShardThread {
  std::thread thread;

  ~ShardThread() {
    if (thread.joinable()) thread.join();
  }
};

net::Socket start_shard(std::deque<ShardThread>& pool,
                        ShardServerOptions opt = {}) {
  auto [mine, theirs] = net::socket_pair();
  ShardThread& sh = pool.emplace_back();
  sh.thread = std::thread([sock = std::move(theirs), opt]() mutable {
    net::FrameChannel ch(std::move(sock));
    run_shard_server(ch, opt);
  });
  return std::move(mine);
}

/// Opens once a faulty shard has taken its first lease.  An honest shard
/// beside it holds its first tree until then (held_by), so it cannot
/// finish every tree before the faulty shard is up; on a loaded host that
/// left the scripted fault unfired.
class LeaseGate {
 public:
  void open() {
    std::call_once(once_, [this] { promise_.set_value(); });
  }
  /// Bounded so a broken coordinator fails the test instead of hanging it.
  void wait() const { (void)future_.wait_for(std::chrono::seconds(30)); }

 private:
  std::once_flag once_;
  std::promise<void> promise_;
  std::shared_future<void> future_ = promise_.get_future().share();
};

/// Options for an honest shard that starts solving only once `gate` opens
/// (its heartbeats keep its own lease alive meanwhile).
ShardServerOptions held_by(const LeaseGate& gate) {
  ShardServerOptions opt;
  opt.on_tree_start = [&gate](int) { gate.wait(); };
  return opt;
}

/// A scripted peer that completes the handshake + job phase like a real
/// shard, then runs `script` with the channel — the building block for
/// crash / hang / zombie behaviours no honest shard exhibits.
net::Socket start_scripted_shard(
    std::deque<ShardThread>& pool, const Graph& g,
    std::function<void(net::FrameChannel&)> script) {
  auto [mine, theirs] = net::socket_pair();
  const std::uint64_t fp = graph_fingerprint(g);
  ShardThread& sh = pool.emplace_back();
  sh.thread = std::thread(
      [sock = std::move(theirs), fp, script = std::move(script)]() mutable {
        try {
          net::FrameChannel ch(std::move(sock));
          const Deadline d = Deadline::after_ms(20000);
          net::handshake_server(ch, d);
          auto job_frame = ch.recv(d);
          ASSERT_TRUE(job_frame.has_value());
          const net::JobMsg job = net::decode_job(job_frame->payload);
          net::JobAckMsg ack;
          ack.graph_fingerprint = fp;
          ack.num_trees = job.num_trees;
          ch.send(net::kMsgJobAck, net::encode_job_ack(ack), d);
          script(ch);
        } catch (...) {
          // A scripted peer dying early just looks like one more crash to
          // the coordinator, which is the behaviour under test anyway.
        }
      });
  return std::move(mine);
}

TEST(Coordinator, MatchesSingleProcessBitForBit) {
  const Graph g = workload(11);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(11));

  // Each shard holds its first tree until the other shard has one too.
  // On a loaded host one shard could otherwise solve all four trees
  // before the other finished its handshake, and never count as up.
  LeaseGate both_leased;  // outlive the shard threads, which pool joins
  std::atomic<int> trees_started{0};
  ShardServerOptions held;
  held.on_tree_start = [&](int) {
    if (trees_started.fetch_add(1) + 1 == 2) both_leased.open();
    both_leased.wait();
  };
  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(11), copt);
  coord.adopt_shard(start_shard(pool, held));
  coord.adopt_shard(start_shard(pool, held));
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().shards_up, 2);
  EXPECT_EQ(coord.report().shards_lost, 0);
  EXPECT_EQ(coord.report().zombies_fenced, 0);
  EXPECT_EQ(coord.report().trees_from_shards, 4);
  EXPECT_FALSE(coord.report().degraded_inprocess);
  EXPECT_EQ(coord.report().batches_completed, 4);
}

TEST(Coordinator, OneShardServesEachTreeAsItsOwnLease) {
  const Graph g = workload(12);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(12, 5));

  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(12, 5), copt);
  coord.adopt_shard(start_shard(pool));
  const HgpResult got = coord.solve();

  // 5 trees over one connection: 5 consecutive one-tree leases.
  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().batches_assigned, 5);
  EXPECT_EQ(coord.report().batches_completed, 5);
  EXPECT_EQ(coord.report().trees_from_shards, 5);
  EXPECT_FALSE(coord.report().degraded_inprocess);
}

TEST(Coordinator, CrashedShardIsDetectedAndWorkReassigned) {
  const Graph g = workload(13);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(13));

  LeaseGate gate;  // outlives the shard threads, which pool joins
  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(13), copt);
  // Shard 0 crashes the moment it receives work — socket gone, no goodbye.
  coord.adopt_shard(
      start_scripted_shard(pool, g, [&gate](net::FrameChannel& ch) {
        (void)ch.recv(Deadline::after_ms(20000));  // the Assign
        gate.open();
        ch.close();
      }));
  coord.adopt_shard(start_shard(pool, held_by(gate)));
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().shards_lost, 1);
  EXPECT_GE(coord.report().batches_reassigned, 1);
  EXPECT_EQ(coord.report().trees_from_shards, 4);
  EXPECT_FALSE(coord.report().degraded_inprocess);
}

TEST(Coordinator, HungShardLeaseExpires) {
  const Graph g = workload(14);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(14));

  LeaseGate gate;  // outlives the shard threads, which pool joins
  std::deque<ShardThread> pool;
  Mutex mu;
  CondVar cv;
  bool release = false;
  CoordinatorOptions copt;
  copt.lease_ms = 150;
  ShardCoordinator coord(g, hier(), base_options(14), copt);
  // Shard 0 accepts the tree, then goes silent (no heartbeats, no result,
  // socket held open) until the test releases it — a hang, not a crash.
  coord.adopt_shard(start_scripted_shard(pool, g, [&](net::FrameChannel& ch) {
    (void)ch.recv(Deadline::after_ms(20000));
    gate.open();
    MutexLock lock(mu);
    while (!release) cv.wait_for_ms(mu, 50);
  }));
  coord.adopt_shard(start_shard(pool, held_by(gate)));
  const HgpResult got = coord.solve();
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();

  expect_bit_identical(got, baseline);
  EXPECT_GE(coord.report().lease_expiries, 1);
  EXPECT_EQ(coord.report().shards_lost, 1);
  EXPECT_GE(coord.report().batches_reassigned, 1);
  EXPECT_EQ(coord.report().trees_from_shards, 4);
}

TEST(Coordinator, ZombieResultIsFencedExactlyOnce) {
  const Graph g = workload(15);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(15));
  obs::EventJournal::global().clear();

  std::deque<ShardThread> pool;
  Mutex mu;
  CondVar cv;
  bool gate_open = false;

  CoordinatorOptions copt;
  copt.lease_ms = 150;
  ShardCoordinator coord(g, hier(), base_options(15), copt);

  // Shard 0 (honest, gated): its first tree solve blocks until the test
  // opens the gate, which keeps the coordinated solve provably alive while
  // the zombie acts out.  Its heartbeat thread keeps beating throughout, so
  // ITS lease never expires.
  ShardServerOptions gated;
  gated.on_tree_start = [&](int) {
    MutexLock lock(mu);
    while (!gate_open) cv.wait_for_ms(mu, 20);
  };
  coord.adopt_shard(start_shard(pool, gated));

  // Shard 1 (zombie): takes a tree, goes silent past the lease so the
  // tree is reassigned under a bumped epoch, then "wakes up" and delivers
  // the result under the ORIGINAL epoch — which must be fenced, not
  // double-counted.
  coord.adopt_shard(start_scripted_shard(pool, g, [&](net::FrameChannel& ch) {
    auto assign_frame = ch.recv(Deadline::after_ms(20000));
    ASSERT_TRUE(assign_frame.has_value());
    const net::AssignMsg assign = net::decode_assign(assign_frame->payload);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    net::TreeResultMsg stale;
    stale.epoch = assign.epoch;  // stale by now: the lease expired long ago
    stale.tree_index = assign.tree_index;
    stale.status = static_cast<std::uint8_t>(StatusCode::kOk);
    stale.cost = 0.0;  // hostile: would win any arg-min if not fenced
    stale.leaf_of.assign(static_cast<std::size_t>(20), 0);
    ch.send(net::kMsgTreeResult, net::encode_tree_result(stale),
            Deadline::after_ms(20000));
    {
      MutexLock lock(mu);
      while (!gate_open) cv.wait_for_ms(mu, 20);
    }
  }));

  // Let the zombie's lease expire and its stale result land, then open the
  // gate so the honest shard finishes everything.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    MutexLock lock(mu);
    gate_open = true;
    cv.notify_all();
  });
  const HgpResult got = coord.solve();
  opener.join();

  expect_bit_identical(got, baseline);
  EXPECT_GE(coord.report().lease_expiries, 1);
  EXPECT_GE(coord.report().zombies_fenced, 1);
  EXPECT_GE(coord.report().batches_reassigned, 1);
  // Every tree was accounted exactly once despite the double delivery.
  EXPECT_EQ(coord.report().trees_from_shards, 4);
  EXPECT_EQ(coord.report().batches_completed, 4);

#if HGP_OBS_ENABLED
  // The journal records these events only when instrumentation is built.
  bool saw_fence = false, saw_lease = false, saw_reassign = false;
  for (const obs::JournalEvent& e : obs::EventJournal::global().snapshot()) {
    saw_fence |= e.kind == obs::EventKind::kZombieFenced;
    saw_lease |= e.kind == obs::EventKind::kLeaseExpire;
    saw_reassign |= e.kind == obs::EventKind::kBatchReassign;
  }
  EXPECT_TRUE(saw_fence);
  EXPECT_TRUE(saw_lease);
  EXPECT_TRUE(saw_reassign);
#endif
}

TEST(Coordinator, LaggingReaderDoesNotExpireABeatingShard) {
  // The shard beats every 5 ms, but while it holds its tree every read in
  // this process stalls 100 ms (the net.recv fault), so the coordinator
  // reads its beats far apart and they pile up unread past the 30 ms
  // lease.  A socket that polls ready is not silent, whatever the time
  // since the coordinator last read from it: the lease must hold.
  const Graph g = workload(29);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(29, 1));
  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  copt.lease_ms = 30;
  ShardCoordinator coord(g, hier(), base_options(29, 1), copt);
  ShardServerOptions sopt;
  sopt.heartbeat_ms = 5;
  sopt.on_tree_start = [](int) {
    FaultInjector::Fault stall;
    stall.action = FaultInjector::Action::kStall;
    stall.stall_ms = 100;
    const FaultScope reads("net.recv", 0, stall);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  };
  coord.adopt_shard(start_shard(pool, sopt));
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().lease_expiries, 0);
  EXPECT_EQ(coord.report().trees_from_shards, 1);
  EXPECT_FALSE(coord.report().degraded_inprocess);
}

TEST(Coordinator, SilentHandshakeDoesNotDelayOtherShards) {
  // Shard 0 reads its Hello and never answers.  Its handshake budget is
  // 20 s, but the honest shard beside it must serve every tree at once.
  const Graph g = workload(30);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(30));
  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  copt.handshake_timeout_ms = 20000;
  ShardCoordinator coord(g, hier(), base_options(30), copt);
  auto [mine, theirs] = net::socket_pair();
  pool.emplace_back().thread = std::thread([sock = std::move(theirs)]() mutable {
    net::FrameChannel ch(std::move(sock));
    try {
      (void)ch.recv(Deadline::after_ms(20000));  // the Hello
      (void)ch.recv(Deadline::after_ms(20000));  // held until teardown
    } catch (...) {
      // Teardown closing the socket ends the silence either way.
    }
  });
  coord.adopt_shard(std::move(mine));
  coord.adopt_shard(start_shard(pool));
  const auto start = std::chrono::steady_clock::now();
  const HgpResult got = coord.solve();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().shards_up, 1);
  EXPECT_EQ(coord.report().trees_from_shards, 4);
  EXPECT_FALSE(coord.report().degraded_inprocess);
  EXPECT_LT(elapsed_ms, 10000) << "waited on the silent handshake";
}

TEST(Coordinator, TornMidFrameShardIsDeclaredDead) {
  // Shard 0 answers its lease with the first half of a TreeResult frame
  // and then stalls with the socket open.  The stalled read gets lease_ms,
  // after which the shard is dead and its tree moves to the honest shard.
  const Graph g = workload(31);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(31));
  LeaseGate gate;  // outlives the shard threads, which pool joins
  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  copt.lease_ms = 200;
  ShardCoordinator coord(g, hier(), base_options(31), copt);
  coord.adopt_shard(
      start_scripted_shard(pool, g, [&gate](net::FrameChannel& ch) {
        auto assign_frame = ch.recv(Deadline::after_ms(20000));
        ASSERT_TRUE(assign_frame.has_value());
        const net::AssignMsg assign =
            net::decode_assign(assign_frame->payload);
        net::TreeResultMsg res;
        res.epoch = assign.epoch;
        res.tree_index = assign.tree_index;
        res.status = static_cast<std::uint8_t>(StatusCode::kOk);
        res.leaf_of.assign(static_cast<std::size_t>(20), 0);
        const std::vector<std::byte> wire = net::encode_frame(
            net::kMsgTreeResult, net::encode_tree_result(res));
        ch.socket().send_all(std::span(wire).first(wire.size() / 2),
                             Deadline::after_ms(20000));
        gate.open();
        (void)ch.recv(Deadline::after_ms(20000));  // held until teardown
      }));
  coord.adopt_shard(start_shard(pool, held_by(gate)));
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().shards_lost, 1);
  EXPECT_EQ(coord.report().batches_reassigned, 1);
  EXPECT_EQ(coord.report().zombies_fenced, 0);
  EXPECT_EQ(coord.report().trees_from_shards, 4);
  EXPECT_FALSE(coord.report().degraded_inprocess);
}

TEST(Coordinator, HeartbeatWithPayloadDeclaresShardDead) {
  const Graph g = workload(22);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(22));

  LeaseGate gate;  // outlives the shard threads, which pool joins
  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(22), copt);
  // Shard 0 takes a lease, then sends a heartbeat carrying one byte.  A
  // heartbeat is an empty ping, so the frame is malformed (kDataLoss) and
  // the shard is dead even though its socket stays open.
  coord.adopt_shard(
      start_scripted_shard(pool, g, [&gate](net::FrameChannel& ch) {
        (void)ch.recv(Deadline::after_ms(20000));  // the Assign
        const std::vector<std::byte> one_byte(1);
        ch.send(net::kMsgHeartbeat, one_byte, Deadline::after_ms(20000));
        gate.open();
        (void)ch.recv(Deadline::after_ms(20000));  // held until teardown
      }));
  coord.adopt_shard(start_shard(pool, held_by(gate)));
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().shards_lost, 1);
  EXPECT_EQ(coord.report().batches_reassigned, 1);
  EXPECT_EQ(coord.report().zombies_fenced, 0);
  EXPECT_EQ(coord.report().trees_from_shards, 4);
  EXPECT_FALSE(coord.report().degraded_inprocess);
}

TEST(Coordinator, AllShardsLostDegradesToInProcess) {
  const Graph g = workload(16);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(16));

  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(16), copt);
  // Every shard crashes on first contact with work.
  for (int i = 0; i < 2; ++i) {
    coord.adopt_shard(start_scripted_shard(pool, g, [](net::FrameChannel& ch) {
      (void)ch.recv(Deadline::after_ms(20000));
      ch.close();
    }));
  }
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().shards_lost, 2);
  EXPECT_TRUE(coord.report().degraded_inprocess);
  EXPECT_EQ(coord.report().trees_from_shards, 0);
}

TEST(Coordinator, NoShardsAtAllStillSolves) {
  const Graph g = workload(17);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(17));
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(17), copt);
  const HgpResult got = coord.solve();
  expect_bit_identical(got, baseline);
  EXPECT_TRUE(coord.report().degraded_inprocess);
}

TEST(Coordinator, MalformedRemoteResultIsRejectedNotTrusted) {
  const Graph g = workload(18);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(18));

  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), base_options(18), copt);
  // A "shard" that answers every assignment instantly with a wrongly-sized
  // placement and a winning cost: the shape check must throw it away and
  // the final in-process aggregation must re-solve those trees.
  coord.adopt_shard(start_scripted_shard(pool, g, [](net::FrameChannel& ch) {
    for (;;) {
      auto frame = ch.recv(Deadline::after_ms(20000));
      if (!frame.has_value() || frame->type != net::kMsgAssign) return;
      const net::AssignMsg assign = net::decode_assign(frame->payload);
      net::TreeResultMsg res;
      res.epoch = assign.epoch;
      res.tree_index = assign.tree_index;
      res.status = static_cast<std::uint8_t>(StatusCode::kOk);
      res.cost = 0.0;
      res.leaf_of = {0};  // wrong size for a 20-vertex instance
      ch.send(net::kMsgTreeResult, net::encode_tree_result(res),
              Deadline::after_ms(20000));
    }
  }));
  const HgpResult got = coord.solve();

  expect_bit_identical(got, baseline);
  EXPECT_EQ(coord.report().trees_from_shards, 0);
  EXPECT_TRUE(coord.report().degraded_inprocess);
}

TEST(Coordinator, CallerCancelThrowsCancelled) {
  const Graph g = workload(19);
  CancelToken cancel;
  cancel.request_cancel();
  SolverOptions opt = base_options(19);
  opt.cancel = &cancel;

  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), opt, copt);
  coord.adopt_shard(start_shard(pool));
  try {
    (void)coord.solve();
    FAIL() << "cancelled solve must throw";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST(Coordinator, InvalidOptionsRejectedUpFront) {
  const Graph g = workload(20);
  SolverOptions opt = base_options(20);
  opt.num_trees = 0;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), opt, copt);
  try {
    (void)coord.solve();
    FAIL() << "invalid options must throw";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
  }
}

TEST(Coordinator, SharedCheckpointKeepsShardTrees) {
  // A caller-supplied checkpoint accumulates the shard-delivered trees, so
  // a retrying service layer can reuse them like any other checkpoint.
  const Graph g = workload(21);
  SolveCheckpoint ck;
  SolverOptions opt = base_options(21);
  opt.checkpoint = &ck;

  std::deque<ShardThread> pool;
  CoordinatorOptions copt;
  ShardCoordinator coord(g, hier(), opt, copt);
  coord.adopt_shard(start_shard(pool));
  const HgpResult got = coord.solve();
  EXPECT_EQ(ck.size(), 4u);

  // A rerun with the same checkpoint serves every tree from it.
  const HgpResult resumed = solve_hgp(g, hier(), opt);
  expect_bit_identical(resumed, got);
  for (const TreeAttempt& a : resumed.attempts) {
    EXPECT_TRUE(a.from_checkpoint);
  }
}

// ------------------------------------------------------------ spawn-local
//
// The tests below spawn real hgp_shardd processes (HGP_SHARDD_PATH, set by
// tests/CMakeLists.txt) through the coordinator's own listener.

/// A fresh directory for the coordinator's socket, removed at scope exit.
struct ScratchDir {
  std::filesystem::path path;

  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "hgp-coord-test-XXXXXX")
            .string();
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    path = tmpl;
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }

  /// True when no socket file is left behind.
  bool no_socket_left() const {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (entry.path().extension() == ".sock") return false;
    }
    return true;
  }
};

CoordinatorOptions spawn_local(const ScratchDir& dir, int shards,
                               std::string shardd = HGP_SHARDD_PATH) {
  CoordinatorOptions copt;
  copt.num_shards = shards;
  copt.shardd_path = std::move(shardd);
  copt.socket_dir = dir.path.string();
  return copt;
}

/// Every spawned worker was reaped: this process has no child left.
void expect_no_child_left() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

TEST(Coordinator, SpawnLocalMatchesSingleProcess) {
  const Graph g = workload(22);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(22));

  const ScratchDir dir;
  CoordinatorReport rep;
  const auto start = std::chrono::steady_clock::now();
  const HgpResult got = solve_hgp_sharded(g, hier(), base_options(22),
                                          spawn_local(dir, 2), &rep);
  const double wall_ms = ms_between(start, std::chrono::steady_clock::now());

  expect_bit_identical(got, baseline);
  EXPECT_EQ(rep.trees_from_shards, 4);
  EXPECT_EQ(rep.shards_lost, 0);
  EXPECT_FALSE(rep.degraded_inprocess);
  expect_no_child_left();
  EXPECT_TRUE(dir.no_socket_left());
  // The phase timeline fits in the wall time.
  for (const double ms :
       {rep.job_ms, rep.connect_ms, rep.trees_ms, rep.teardown_ms}) {
    EXPECT_GE(ms, 0.0);
  }
  EXPECT_LE(rep.job_ms + rep.connect_ms + rep.trees_ms + rep.teardown_ms,
            wall_ms);
}

TEST(Coordinator, SpawnLocalBuildsNoTreeOnTheCoordinator) {
  // The workers build the trees they lease, and the final aggregation
  // finds every tree in the checkpoint, so this process builds nothing.
  const Graph g = workload(26);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(26));
  ForestCache::global().clear();  // no forest to find, only to build

  const auto trees_built = [] {
    return obs::MetricsRegistry::global().counter_value("decomp.trees_built");
  };
  const std::uint64_t built_before = trees_built();
  const ScratchDir dir;
  CoordinatorReport rep;
  const HgpResult got = solve_hgp_sharded(g, hier(), base_options(26),
                                          spawn_local(dir, 2), &rep);

  expect_bit_identical(got, baseline);
  EXPECT_EQ(rep.trees_from_shards, 4);
  EXPECT_FALSE(rep.degraded_inprocess);
  EXPECT_TRUE(got.telemetry.forest_cache_hit);  // built nothing
  EXPECT_EQ(ForestCache::global().size(), 0u);
  if (HGP_OBS_ENABLED) {
    EXPECT_EQ(trees_built(), built_before);
  }
  expect_no_child_left();
}

TEST(Coordinator, SpawnLocalRemoteTreeFailureBuildsOnlyThatTree) {
  // Every worker fails tree 2, so the shards deliver 3 of 4 trees and the
  // final aggregation builds and solves only tree 2 in process.
  const Graph g = workload(28);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(28));
  ForestCache::global().clear();

  const ScratchDir dir;
  const std::filesystem::path worker = dir.path / "tree2-fails.sh";
  std::ofstream(worker) << "#!/bin/sh\nexec '" << HGP_SHARDD_PATH
                        << "' --fault shardd.tree,2,throw \"$@\"\n";
  std::filesystem::permissions(worker, std::filesystem::perms::owner_all);
  const auto trees_built = [] {
    return obs::MetricsRegistry::global().counter_value("decomp.trees_built");
  };
  const std::uint64_t built_before = trees_built();
  CoordinatorReport rep;
  const HgpResult got = solve_hgp_sharded(
      g, hier(), base_options(28), spawn_local(dir, 2, worker.string()), &rep);

  expect_bit_identical(got, baseline);
  EXPECT_EQ(rep.trees_from_shards, 3);
  EXPECT_TRUE(rep.degraded_inprocess);
  EXPECT_EQ(got.telemetry.checkpoint_trees, 3);
  EXPECT_FALSE(got.telemetry.forest_cache_hit);
  if (HGP_OBS_ENABLED) {
    EXPECT_EQ(trees_built(), built_before + 1);
  }
  expect_no_child_left();
}

TEST(Coordinator, CustomCutterRejectedBeforeAnySpawn) {
  // Shards build with the default cutter, so a custom one cannot be
  // honoured; it is refused before a worker process exists.
  const Graph g = workload(27);
  const RandomCutter cutter;
  SolverOptions opt = base_options(27);
  opt.cutter = &cutter;

  const ScratchDir dir;
  const std::filesystem::path marker = dir.path / "spawned";
  const std::filesystem::path worker = dir.path / "marking-worker.sh";
  std::ofstream(worker) << "#!/bin/sh\ntouch '" << marker.string()
                        << "'\nexit 1\n";
  std::filesystem::permissions(worker, std::filesystem::perms::owner_all);
  try {
    (void)solve_hgp_sharded(g, hier(), opt, spawn_local(dir, 2, worker));
    FAIL() << "a custom cutter must be rejected";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
  }
  expect_no_child_left();
  EXPECT_FALSE(std::filesystem::exists(marker));
  EXPECT_TRUE(dir.no_socket_left());
}

TEST(Coordinator, RoundedDemandOverflowSpawnsNoWorker) {
  // 20 tasks of 0.25 against a root capacity of 4: the rounded total
  // overflows whatever the trees, so every tree's DP would reject the
  // instance.  No worker is spawned and no tree is built; the answer is
  // the in-process solve_hgp's, fallback placement included.
  Graph g = workload(30);
  gen::set_uniform_demands(g, 0.25);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(30));
  ASSERT_EQ(baseline.status.code, StatusCode::kInfeasible);

  const ScratchDir dir;
  const std::filesystem::path marker = dir.path / "spawned";
  const std::filesystem::path worker = dir.path / "marking-worker.sh";
  std::ofstream(worker) << "#!/bin/sh\ntouch '" << marker.string()
                        << "'\nexit 1\n";
  std::filesystem::permissions(worker, std::filesystem::perms::owner_all);
  const auto trees_built = [] {
    return obs::MetricsRegistry::global().counter_value("decomp.trees_built");
  };
  const std::uint64_t built_before = trees_built();
  CoordinatorReport rep;
  const HgpResult got = solve_hgp_sharded(
      g, hier(), base_options(30), spawn_local(dir, 2, worker.string()), &rep);

  expect_bit_identical(got, baseline);
  EXPECT_EQ(got.status.code, StatusCode::kInfeasible);
  EXPECT_EQ(got.status.message, baseline.status.message);
  EXPECT_EQ(rep.shards_up, 0);
  EXPECT_EQ(rep.trees_from_shards, 0);
  EXPECT_EQ(trees_built(), built_before);
  expect_no_child_left();
  EXPECT_FALSE(std::filesystem::exists(marker));
  EXPECT_TRUE(dir.no_socket_left());
}

TEST(Coordinator, SpawnLocalCancelBeforeForestReapsWorkers) {
  const Graph g = workload(24);
  CancelToken cancel;
  cancel.request_cancel();
  SolverOptions opt = base_options(24);
  opt.cancel = &cancel;

  const ScratchDir dir;
  try {
    (void)solve_hgp_sharded(g, hier(), opt, spawn_local(dir, 2));
    FAIL() << "cancelled solve must throw";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
  expect_no_child_left();
  EXPECT_TRUE(dir.no_socket_left());
}

TEST(Coordinator, SpawnLocalDeadWorkerDegrades) {
  // Every worker, the respawned one included, exits before it connects.
  // Each counts as a lost shard as soon as it is reaped, so the solve
  // degrades to in-process well inside the accept budget.
  const Graph g = workload(25);
  const HgpResult baseline = solve_hgp(g, hier(), base_options(25));

  const ScratchDir dir;
  const std::filesystem::path dead = dir.path / "dead-worker.sh";
  std::ofstream(dead) << "#!/bin/sh\nexit 1\n";
  std::filesystem::permissions(dead, std::filesystem::perms::owner_all);
  CoordinatorOptions copt = spawn_local(dir, 2, dead.string());
  copt.handshake_timeout_ms = 5000;
  copt.respawn_limit = 1;

  CoordinatorReport rep;
  const auto start = std::chrono::steady_clock::now();
  const HgpResult got =
      solve_hgp_sharded(g, hier(), base_options(25), copt, &rep);
  const double wall_ms = ms_between(start, std::chrono::steady_clock::now());

  expect_bit_identical(got, baseline);
  EXPECT_LT(wall_ms, copt.handshake_timeout_ms);
  EXPECT_EQ(rep.shards_up, 0);
  EXPECT_EQ(rep.shards_lost, 3);  // two spawned, one respawned
  EXPECT_EQ(rep.respawns, 1);
  EXPECT_EQ(rep.trees_from_shards, 0);
  EXPECT_TRUE(rep.degraded_inprocess);
  expect_no_child_left();
  EXPECT_TRUE(dir.no_socket_left());
}

}  // namespace
}  // namespace hgp
