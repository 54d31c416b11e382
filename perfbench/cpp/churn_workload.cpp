// churn_service: the service and incremental layers, writes beside reads.
//
// A SolverService with 2 workers serves 3 incremental sessions.  One
// client thread keeps one request in flight per session (3 in flight on 2
// workers, so requests really queue).  Each session repeats a fixed cycle:
// 4 resolves of a seeded mixed churn batch, then 1 full submit of the
// session's catalogue graph, whose forest stays in the forest cache.
//
// A run repeats one pass — a cold set-up, then a fixed number of requests
// per session — so every pass does identical work.
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "decomp/patch.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "perfbench.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/service.hpp"
#include "span_trace.hpp"

namespace perfbench {
namespace {

constexpr int kSessions = 3;
constexpr int kCycle = 5;  ///< 4 resolves, then 1 catalogue submit
constexpr std::size_t kWorkers = 2;

hgp::Hierarchy churn_hierarchy() {
  return hgp::Hierarchy::uniform(1, 24, {2, 0});
}

hgp::Graph session_graph(std::uint64_t seed, std::uint64_t stream, int s,
                         bool smoke) {
  hgp::Rng rng(derive(seed, stream, static_cast<std::uint64_t>(s)));
  hgp::gen::StreamDagOptions o;
  o.sources = 8;
  o.sinks = 8;
  o.stages = smoke ? 4 : 16;
  o.stage_width = smoke ? 12 : 49;  // n = 800 (64 smoke)
  o.demand_lo = 0.005;
  o.demand_hi = 0.015;
  return hgp::gen::stream_dag(o, rng);
}

/// E12's mixed churn profile: the full mutation mix, structural churn
/// included, with demands drawn like the base graph's.
hgp::gen::ChurnOptions mixed_churn() {
  hgp::gen::ChurnOptions c;
  c.ops = 6;
  c.demand_lo = 0.005;
  c.demand_hi = 0.015;
  c.min_live = 16;
  return c;
}

hgp::IncrementalOptions session_options(std::uint64_t seed, int s) {
  hgp::IncrementalOptions o;
  o.num_trees = 2;
  o.units_override = 3;
  o.seed = derive(seed, 22, static_cast<std::uint64_t>(s));
  return o;
}

hgp::SolverOptions catalogue_options(std::uint64_t seed, int s) {
  hgp::SolverOptions o;
  o.num_trees = 2;
  o.units_override = 3;
  o.seed = derive(seed, 23, static_cast<std::uint64_t>(s));
  return o;
}

/// Appends session s's next non-empty churn batch to `log`; `batch` counts
/// the draws, so the sequence is a pure function of (seed, s, graph).
void draw_batch(hgp::MutationLog& log, std::uint64_t seed, int s,
                std::uint64_t& batch) {
  while (log.empty()) {
    hgp::Rng rng(derive(seed, 30 + static_cast<std::uint64_t>(s), batch++));
    hgp::gen::churn(log, mixed_churn(), rng);
  }
}

struct Session {
  std::shared_ptr<hgp::IncrementalSession> session;
  std::shared_ptr<const hgp::Graph> base;
  hgp::Graph catalogue;
  int position = 0;          ///< requests submitted
  std::uint64_t batch = 0;   ///< churn draws
  std::shared_ptr<hgp::ServiceRequest> inflight;
  bool inflight_resolve = false;
  double submitted_at = 0;
  FirstRound head;           ///< this session's requests of the pass
  std::vector<std::uint64_t> digests;  ///< of the pass, in order
};

struct Completion {
  int session;
  bool resolve;
  double start_ms, end_ms;
  Outcome o;
};

class ChurnService {
 public:
  ChurnService(const RunConfig& cfg, const hgp::Hierarchy& h)
      : cfg_(cfg), h_(h) {}

  /// Cold set-up: empty forest cache, new service, 3 sessions (each runs
  /// its base forest build + solve), catalogue graphs, and one catalogue
  /// submit per session to warm the cache.
  void setup() {
    sessions_.clear();
    service_.reset();
    hgp::ForestCache::global().clear();
    hgp::ServiceOptions so;
    so.workers = kWorkers;
    service_ = std::make_unique<hgp::SolverService>(so);
    for (int s = 0; s < kSessions; ++s) {
      Session ss;
      ss.base = std::make_shared<const hgp::Graph>(
          session_graph(cfg_.seed, 20, s, cfg_.smoke));
      ss.catalogue = session_graph(cfg_.seed, 21, s, cfg_.smoke);
      ss.session = service_->open_incremental(ss.base, h_,
                                              session_options(cfg_.seed, s));
      sessions_.push_back(std::move(ss));
    }
    for (int s = 0; s < kSessions; ++s) {
      const auto req = service_->submit(sessions_[s].catalogue, h_,
                                        catalogue_options(cfg_.seed, s));
      if (!req->wait().ok()) throw std::runtime_error("warm-up submit failed");
    }
  }

  /// One pass of the closed loop: keeps one request in flight per session
  /// until every session has completed `per_pass` requests.  Returns the
  /// wall seconds from the first submit to the last result.
  double run(int per_pass, RunResult& rr, std::vector<Completion>& done) {
    const double start = now_ms();
    for (int s = 0; s < kSessions; ++s) submit_next(s);
    int open = kSessions;
    double last = start;
    while (open > 0) {
      bool progressed = false;
      for (int s = 0; s < kSessions; ++s) {
        Session& ss = sessions_[static_cast<std::size_t>(s)];
        if (ss.inflight == nullptr || !ss.inflight->done()) continue;
        progressed = true;
        last = now_ms();
        Completion c{s, ss.inflight_resolve, ss.submitted_at, last,
                     complete(ss, last)};
        ++rr.attempted;
        rr.gate(c.resolve || c.o.cache_hit,
                "catalogue submit missed the forest cache");
        if (c.o.failed) {
          ++rr.failed;
          rr.gate(false, "session " + std::to_string(s) + " request " +
                             std::to_string(ss.position - 1) + ": " +
                             c.o.error);
        }
        ss.head.add(c.o);
        ss.digests.push_back(c.o.digest);
        done.push_back(std::move(c));
        if (ss.position < per_pass) {
          submit_next(s);
        } else {
          --open;
        }
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return (last - start) / 1e3;
  }

  FirstRound pass_totals() const {
    FirstRound fp;
    for (const Session& ss : sessions_) fp.merge(ss.head);
    return fp;
  }

  const std::vector<Session>& sessions() const { return sessions_; }
  hgp::SolverService& service() { return *service_; }

 private:
  void submit_next(int s) {
    Session& ss = sessions_[static_cast<std::size_t>(s)];
    ss.inflight_resolve = ss.position % kCycle < kCycle - 1;
    if (ss.inflight_resolve) {
      const auto log = ss.session->begin_batch();
      draw_batch(*log, cfg_.seed, s, ss.batch);
      ss.submitted_at = now_ms();
      ss.inflight = service_->submit_resolve(ss.session, log);
    } else {
      ss.submitted_at = now_ms();
      ss.inflight = service_->submit(ss.catalogue, h_,
                                     catalogue_options(cfg_.seed, s));
    }
    ++ss.position;
  }

  Outcome complete(Session& ss, double at) {
    Outcome o;
    o.wall_ms = at - ss.submitted_at;
    const hgp::RetrySolveReport& rep = ss.inflight->wait();
    if (!rep.ok() || !rep.has_result) {
      o.failed = true;
      o.error = rep.status.to_string();
    } else if (ss.inflight_resolve) {
      // The client is this session's only writer and the request is done,
      // so the committed snapshot is the graph this result belongs to.
      summarize(*ss.session->graph(), h_, rep.result, o);
    } else {
      summarize(ss.catalogue, h_, rep.result, o);
    }
    ss.inflight.reset();
    return o;
  }

  const RunConfig& cfg_;
  const hgp::Hierarchy& h_;
  std::unique_ptr<hgp::SolverService> service_;
  std::vector<Session> sessions_;
};

/// The traced replay of one pass, outside the service: per
/// session a directly held IncrementalSolver replays the same batches.
/// Spans: the forest patch (decomp.patch, a replay of what resolve does
/// first) and the resolve itself (runtime.resolve).  Gates: each replayed
/// result equals the service's, and each resolve equals solve_on_forest
/// on the same patched forest (the E12 invariant).
void replay_pass(const RunConfig& cfg, const hgp::Hierarchy& h,
                 const ChurnService& svc, int per_pass, SpanTrace& tr,
                 std::uint64_t first_id, RunResult& rr) {
  std::uint64_t id = first_id;
  std::uint64_t tree_nodes = 0;
  std::vector<double> calls;
  for (int s = 0; s < kSessions; ++s) {
    const Session& ss = svc.sessions()[static_cast<std::size_t>(s)];
    hgp::IncrementalSolver solver(ss.base, h, session_options(cfg.seed, s));
    std::uint64_t batch = 0;
    for (int k = 0; k < per_pass; ++k, ++id) {
      const bool resolve = k % kCycle < kCycle - 1;
      std::shared_ptr<hgp::MutationLog> log;
      if (resolve) {
        log = solver.begin_batch();
        draw_batch(*log, cfg.seed, s, batch);
      }
      hgp::HgpResult r;
      std::size_t patched_nodes = 0;
      {
        const SpanTrace::Scope req(tr, "request", id);
        if (resolve) {
          {
            const SpanTrace::Scope p(tr, "decomp.patch", id, req.index());
            const hgp::MutationLog::Materialized mat = log->materialize();
            const hgp::ForestPatch patch =
                hgp::patch_forest(solver.forest(), *log, mat);
            for (const hgp::DecompTree& t : patch.forest) {
              patched_nodes += static_cast<std::size_t>(t.tree().node_count());
            }
          }
          const SpanTrace::Scope c(tr, "runtime.resolve", id, req.index());
          r = solver.resolve(*log);
        } else {
          const SpanTrace::Scope c(tr, "runtime.solve", id, req.index());
          r = hgp::solve_hgp(ss.catalogue, h, catalogue_options(cfg.seed, s));
        }
      }
      // The call's span is the last child recorded before the request closed.
      calls.push_back(tr.spans().back().dur_ms());
      const std::uint64_t digest = result_digest(r);
      rr.gate(k < static_cast<int>(ss.digests.size()) &&
                  ss.digests[static_cast<std::size_t>(k)] == digest,
              "direct replay differs from the service result (session " +
                  std::to_string(s) + ", request " + std::to_string(k) + ")");
      if (!resolve) continue;
      std::size_t nodes = 0;
      for (const hgp::DecompTree& t : solver.forest()) {
        nodes += static_cast<std::size_t>(t.tree().node_count());
      }
      tree_nodes += nodes;
      rr.gate(nodes == patched_nodes,
              "replayed forest patch differs from the resolve's");
      hgp::ForestSolveOptions fo;
      fo.units_override = solver.units();
      fo.seed = session_options(cfg.seed, s).seed;
      const hgp::HgpResult scratch =
          hgp::solve_on_forest(*solver.graph(), h, solver.forest(), fo);
      rr.gate(result_digest(scratch) == digest,
              "resolve differs from solve_on_forest on the patched forest "
              "(session " + std::to_string(s) + ", request " +
                  std::to_string(k) + ")");
    }
  }
  rr.metric("decomp.patch_ms", median(tr.durations("decomp.patch")), "ms");
  rr.metric("runtime.resolve_ms", median(tr.durations("runtime.resolve")),
            "ms");
  rr.metric("decomp.tree_nodes", static_cast<double>(tree_nodes), "count");
  rr.metric("trace.coverage", median(tr.coverage("request")), "ratio");
  rr.metric("obs.trace_overhead",
            median(tr.durations("request")) / median(calls) - 1.0, "ratio");
}

}  // namespace

RunResult run_churn_service(const RunConfig& cfg) {
  RunResult rr;
  const hgp::Hierarchy h = churn_hierarchy();
  const int per_pass = cfg.smoke ? kCycle : 20 * kCycle;
  const double seconds = cfg.smoke ? 0 : cfg.seconds;

  for (int s = 0; s < kSessions; ++s) {
    for (std::uint64_t stream : {20, 21}) {
      const hgp::Graph g = session_graph(cfg.seed, stream, s, cfg.smoke);
      rr.schedule_fingerprint =
          mix(rr.schedule_fingerprint, hgp::graph_fingerprint(g));
      if (cfg.print_schedule) {
        std::printf("session %d %s n=%d m=%d graph=%016llx\n", s,
                    stream == 20 ? "base" : "catalogue", g.vertex_count(),
                    g.edge_count(),
                    static_cast<unsigned long long>(hgp::graph_fingerprint(g)));
      }
    }
  }
  if (cfg.print_schedule) return rr;

  ChurnService svc(cfg, h);
  FirstRound fp;
  std::vector<std::uint64_t> digests;
  std::vector<Completion> done;
  std::vector<double> setup_s, walls, queue_ms;
  double timed_s = 0;
  std::int64_t rejected = 0;
  // A traced run spends half its time in the service passes and the rest
  // replaying one pass outside-in.
  const double budget_ms = (cfg.trace ? seconds / 2 : seconds) * 1e3;
  const double start = now_ms();
  for (int pass = 0; pass == 0 || now_ms() - start < budget_ms; ++pass) {
    setup_s.push_back(seconds_of([&] { svc.setup(); }));
    std::vector<Completion> pass_done;
    timed_s += svc.run(per_pass, rr, pass_done);
    for (const Completion& c : pass_done) {
      walls.push_back(c.o.wall_ms);
      queue_ms.push_back(c.o.wall_ms - c.o.solve_ms);
    }
    std::vector<std::uint64_t> pass_digests;
    for (const Session& ss : svc.sessions()) {
      rr.gate(static_cast<int>(ss.digests.size()) == per_pass,
              "a session did not complete its pass");
      pass_digests.insert(pass_digests.end(), ss.digests.begin(),
                          ss.digests.end());
    }
    if (pass == 0) {
      fp = svc.pass_totals();
      digests = pass_digests;
    } else {
      rr.gate(pass_digests == digests,
              "pass " + std::to_string(pass) + " did not repeat bit for bit");
    }
    rejected += static_cast<std::int64_t>(svc.service().stats().rejected());
    done.insert(done.end(), pass_done.begin(), pass_done.end());
  }
  rr.diag("service.rejected", static_cast<double>(rejected), "count");
  rr.gate(rejected == 0, "the service rejected a request");
  rr.diag("requests_per_session_pass", static_cast<double>(per_pass), "count");
  rr.diag("passes", static_cast<double>(setup_s.size()), "count");

  if (!cfg.trace) {
    add_latency(rr, walls, timed_s);
    add_quality(rr, fp, setup_s);
    return rr;
  }

  // Service requests in the trace: one span per request, split at the
  // point where the solve's own telemetry says its solve began.
  SpanTrace tr;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const Completion& c = done[i];
    const double t0 = tr.steady_to_us(c.start_ms);
    const double t1 = tr.steady_to_us(c.end_ms);
    const double split = t1 - c.o.solve_ms * 1e3;
    const int root = tr.add("service.request", i, SpanTrace::kNoParent, t0, t1);
    tr.add("runtime.queue", i, root, t0, split);
    tr.add(c.resolve ? "service.resolve" : "service.solve", i, root, split, t1);
  }
  rr.metric("runtime.queue_ms", median(queue_ms), "ms");
  replay_pass(cfg, h, svc, per_pass, tr, done.size(), rr);
  finish_trace(rr, cfg, fp, tr);
  return rr;
}

}  // namespace perfbench
