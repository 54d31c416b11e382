// Differential correctness gate for the sharded solver: across 100+ seeded
// instances — clean runs AND runs with mid-solve shard kills, hangs and
// zombie replies that force lease expiry + reassignment — the coordinated
// solve must be BIT-IDENTICAL to the single-process solve_hgp: cost bits,
// placement, winning tree, per-tree cost bits, and per-tree DP
// feasible-state counts (compared through the two checkpoints).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "net/channel.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/shard_server.hpp"
#include "util/prng.hpp"

namespace hgp {
namespace {

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

/// Opens once the faulty shard of a schedule has taken its first lease.
/// The honest shard beside it holds its first tree until then, so it
/// cannot finish every tree before the faulty shard is up (which, on a
/// loaded host, left the scheduled fault unfired).
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

/// Completes handshake + job, then runs `script` (see test_coordinator.cpp).
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
          auto job = ch.recv(d);
          if (!job.has_value()) return;
          net::JobAckMsg ack;
          ack.graph_fingerprint = fp;
          ack.num_trees = net::decode_job(job->payload).num_trees;
          ch.send(net::kMsgJobAck, net::encode_job_ack(ack), d);
          script(ch);
        } catch (...) {
        }
      });
  return std::move(mine);
}

/// The fault the instance's shard fleet exhibits; rotated per seed so the
/// 100-instance sweep covers every recovery path many times over.
enum class Schedule {
  kClean,        // honest shards only
  kCrash,        // one shard dies the moment it is assigned work
  kHang,         // one shard accepts a tree then goes silent past the lease
  kZombie,       // one shard replies AFTER its lease expired (stale epoch)
  kAllLost,      // every shard crashes -> in-process degradation
};

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kClean: return "clean";
    case Schedule::kCrash: return "crash";
    case Schedule::kHang: return "hang";
    case Schedule::kZombie: return "zombie";
    case Schedule::kAllLost: return "all-lost";
  }
  return "?";
}

// Each faulty shard below opens `gate` once it holds its lease.
net::Socket crash_on_assign(std::deque<ShardThread>& pool, const Graph& g,
                            LeaseGate& gate) {
  return start_scripted_shard(pool, g, [&gate](net::FrameChannel& ch) {
    (void)ch.recv(Deadline::after_ms(20000));
    gate.open();
    ch.close();
  });
}

net::Socket hang_on_assign(std::deque<ShardThread>& pool, const Graph& g,
                           LeaseGate& gate) {
  return start_scripted_shard(pool, g, [&gate](net::FrameChannel& ch) {
    auto frame = ch.recv(Deadline::after_ms(20000));
    gate.open();
    if (!frame.has_value()) return;
    // Hold the socket open, silent, until the coordinator tears it down
    // (lease expiry -> cleanup shuts the channel and recv unblocks).
    (void)ch.recv(Deadline::after_ms(60000));
  });
}

net::Socket zombie_on_assign(std::deque<ShardThread>& pool, const Graph& g,
                             LeaseGate& gate) {
  const std::size_t n = g.vertex_count();
  return start_scripted_shard(pool, g, [n, &gate](net::FrameChannel& ch) {
    auto frame = ch.recv(Deadline::after_ms(20000));
    gate.open();
    if (!frame.has_value() || frame->type != net::kMsgAssign) return;
    const net::AssignMsg assign = net::decode_assign(frame->payload);
    // Outlive the 120ms lease, then deliver a hostile zero-cost result
    // under the original epoch.  The fence must discard it.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    net::TreeResultMsg stale;
    stale.epoch = assign.epoch;
    stale.tree_index = assign.tree_index;
    stale.status = static_cast<std::uint8_t>(StatusCode::kOk);
    stale.cost = 0.0;
    stale.leaf_of.assign(n, 0);
    try {
      ch.send(net::kMsgTreeResult, net::encode_tree_result(stale),
              Deadline::after_ms(5000));
    } catch (...) {
      // The coordinator may already have shut the socket; either way the
      // stale result never lands as accepted work.
    }
  });
}

struct Instance {
  std::uint64_t seed;
  Vertex n;
  int trees;
  double epsilon;
  Schedule schedule;
};

void run_instance(const Instance& in) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << in.seed << " n=" << in.n << " trees=" << in.trees
               << " eps=" << in.epsilon << " schedule="
               << schedule_name(in.schedule));

  Rng rng(in.seed);
  Graph g = gen::planted_partition(in.n, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / static_cast<double>(in.n));
  static const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});

  SolveCheckpoint base_ck;
  SolverOptions opt;
  opt.num_trees = in.trees;
  opt.epsilon = in.epsilon;
  opt.seed = in.seed;
  opt.checkpoint = &base_ck;
  const HgpResult baseline = solve_hgp(g, h, opt);

  SolveCheckpoint shard_ck;
  SolverOptions sopt = opt;
  sopt.checkpoint = &shard_ck;
  CoordinatorOptions copt;
  copt.lease_ms =
      (in.schedule == Schedule::kHang || in.schedule == Schedule::kZombie)
          ? 120
          : 2000;

  LeaseGate gate;  // outlives the shard threads, which pool joins
  std::deque<ShardThread> pool;
  ShardCoordinator coord(g, h, sopt, copt);
  switch (in.schedule) {
    case Schedule::kClean:
      coord.adopt_shard(start_shard(pool));
      coord.adopt_shard(start_shard(pool));
      coord.adopt_shard(start_shard(pool));
      break;
    case Schedule::kCrash:
      coord.adopt_shard(crash_on_assign(pool, g, gate));
      coord.adopt_shard(start_shard(pool, held_by(gate)));
      break;
    case Schedule::kHang:
      coord.adopt_shard(hang_on_assign(pool, g, gate));
      coord.adopt_shard(start_shard(pool, held_by(gate)));
      break;
    case Schedule::kZombie:
      coord.adopt_shard(zombie_on_assign(pool, g, gate));
      coord.adopt_shard(start_shard(pool, held_by(gate)));
      break;
    case Schedule::kAllLost:
      coord.adopt_shard(crash_on_assign(pool, g, gate));
      coord.adopt_shard(crash_on_assign(pool, g, gate));
      break;
  }
  const HgpResult got = coord.solve();

  // --- bit-level identity ---------------------------------------------
  ASSERT_EQ(std::memcmp(&got.cost, &baseline.cost, sizeof got.cost), 0)
      << got.cost << " vs " << baseline.cost;
  ASSERT_EQ(got.placement.leaf_of, baseline.placement.leaf_of);
  ASSERT_EQ(got.best_tree, baseline.best_tree);
  ASSERT_EQ(got.method, baseline.method);
  ASSERT_EQ(got.tree_costs.size(), baseline.tree_costs.size());
  for (std::size_t i = 0; i < got.tree_costs.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.tree_costs[i], &baseline.tree_costs[i],
                          sizeof(double)),
              0)
        << "tree " << i;
  }

  // --- per-tree DP work identity (via the two checkpoints) ------------
  // Remote trees ran the very same solve_forest_tree, so even the DP's
  // internal counting must agree, not just the answer.
  ASSERT_EQ(shard_ck.size(), base_ck.size());
  for (int ti = 0; ti < in.trees; ++ti) {
    CheckpointedTree a, b;
    ASSERT_TRUE(base_ck.lookup(ti, &a)) << "tree " << ti;
    ASSERT_TRUE(shard_ck.lookup(ti, &b)) << "tree " << ti;
    EXPECT_EQ(a.stats.feasible_states, b.stats.feasible_states)
        << "tree " << ti;
    EXPECT_EQ(a.stats.signature_count, b.stats.signature_count)
        << "tree " << ti;
    EXPECT_EQ(std::memcmp(&a.cost, &b.cost, sizeof(double)), 0)
        << "tree " << ti;
    EXPECT_EQ(a.placement.leaf_of, b.placement.leaf_of) << "tree " << ti;
  }

  // --- recovery actually happened where scheduled ---------------------
  const CoordinatorReport& rep = coord.report();
  switch (in.schedule) {
    case Schedule::kClean:
      EXPECT_EQ(rep.shards_lost, 0);
      EXPECT_EQ(rep.trees_from_shards, in.trees);
      break;
    case Schedule::kCrash:
      EXPECT_GE(rep.shards_lost, 1);
      EXPECT_GE(rep.batches_reassigned, 1);
      break;
    case Schedule::kHang:
      EXPECT_GE(rep.lease_expiries, 1);
      EXPECT_GE(rep.batches_reassigned, 1);
      break;
    case Schedule::kZombie:
      EXPECT_GE(rep.lease_expiries, 1);
      break;
    case Schedule::kAllLost:
      EXPECT_EQ(rep.shards_lost, 2);
      EXPECT_TRUE(rep.degraded_inprocess);
      break;
  }
}

// 105 instances: 21 per schedule, sizes 16..30 vertices, 3..5 trees, two
// epsilons.  Fault schedules rotate so kills/hangs/zombies each hit 21
// distinct seeded instances — well past the "≥ 100 instances including
// reassignment-forcing runs" acceptance bar when the suite is green.
constexpr Schedule kRotation[5] = {Schedule::kClean, Schedule::kCrash,
                                   Schedule::kHang, Schedule::kZombie,
                                   Schedule::kAllLost};

TEST(ShardDifferential, HundredInstancesWithFaultsBitIdentical) {
  for (int i = 0; i < 105; ++i) {
    Instance in;
    in.seed = 1000 + static_cast<std::uint64_t>(i) * 17;
    in.n = static_cast<Vertex>(16 + (i % 8) * 2);
    in.trees = 3 + (i % 3);
    in.epsilon = (i % 2 == 0) ? 0.5 : 0.75;
    in.schedule = kRotation[i % 5];
    run_instance(in);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hgp
