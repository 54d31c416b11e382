// hgp_shardd — shard worker process for the sharded solver.
//
//   hgp_shardd --connect PATH
//              [--heartbeat-ms MS] [--idle-timeout-ms MS]
//              [--fault SITE,INDEX,ACTION[,MS[,PROB[,SEED]]]] ...
//
// Connects to the coordinator (src/runtime/coordinator.hpp), then hands
// the connection to run_shard_server: handshake, Job load from the
// embedded snapshot blob, then one tree per lease (Assign → build the
// tree → solve → TreeResult) until Shutdown.
// Every tree is built with the forest's own per-index seed and solved
// through solve_forest_tree, so every result is bit-identical to the
// coordinator's in-process path.
//
// --fault arms the process-local FaultInjector before serving — the
// distributed chaos storm drives worker crashes, hangs and torn frames
// through this flag with seeded probabilistic schedules.  Actions:
//   throw | stall | infeasible | torn-frame | short-write | refuse | kill
// `kill` raises SIGKILL at the site (only meaningful at shardd.kill,
// polled before each tree solve) — the worker dies mid-solve with no
// goodbye, exactly like a crashed machine.
//
// Exit codes follow hgp_solve's mapping (docs/RESILIENCE.md), plus
//   0 clean Shutdown from the coordinator
//   10 coordinator unavailable (refused connect, vanished peer)
#include <signal.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "runtime/shard_server.hpp"
#include "util/fault_injector.hpp"
#include "util/status.hpp"

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitUnavailable = 10;

int exit_code_for(hgp::StatusCode code) {
  switch (code) {
    case hgp::StatusCode::kOk: return 0;
    case hgp::StatusCode::kInvalidInput: return 3;
    case hgp::StatusCode::kInfeasible: return 4;
    case hgp::StatusCode::kDeadlineExceeded: return 5;
    case hgp::StatusCode::kCancelled: return 6;
    case hgp::StatusCode::kInternal: return 1;
    case hgp::StatusCode::kResourceExhausted: return 7;
    case hgp::StatusCode::kDataLoss: return 9;
    case hgp::StatusCode::kUnavailable: return kExitUnavailable;
  }
  return 1;
}

void print_usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s --connect PATH\n"
      "          [--heartbeat-ms MS] [--idle-timeout-ms MS]\n"
      "          [--fault SITE,INDEX,ACTION[,MS[,PROB[,SEED]]]] ...\n"
      "\n"
      "  --connect PATH       coordinator's unix-domain socket\n"
      "  --heartbeat-ms MS    override the coordinator-requested cadence\n"
      "  --idle-timeout-ms MS exit 10 when the coordinator goes silent\n"
      "                       this long (default: wait forever)\n"
      "  --fault SPEC         arm a FaultInjector entry; ACTION is one of\n"
      "                       throw|stall|infeasible|torn-frame|short-write|\n"
      "                       refuse|kill; INDEX -1 = every occurrence;\n"
      "                       MS = stall duration, PROB/SEED make the entry\n"
      "                       a seeded probabilistic schedule\n",
      argv0);
}

[[noreturn]] void usage_error(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "hgp_shardd: %s\n", what.c_str());
  print_usage(stderr, argv0);
  std::exit(kExitUsage);
}

double parse_double(const char* argv0, const char* flag,
                    const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0 ||
      !std::isfinite(parsed)) {
    usage_error(argv0, std::string("invalid number '") + value + "' for " +
                           flag);
  }
  return parsed;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

hgp::FaultInjector::Action parse_action(const char* argv0,
                                        const std::string& name) {
  using Action = hgp::FaultInjector::Action;
  if (name == "throw") return Action::kThrow;
  if (name == "stall") return Action::kStall;
  if (name == "infeasible") return Action::kInfeasible;
  if (name == "torn-frame") return Action::kNetTornFrame;
  if (name == "short-write") return Action::kIoShortWrite;
  if (name == "refuse") return Action::kNetConnectRefused;
  if (name == "kill") return Action::kKillProcess;
  usage_error(argv0, "unknown fault action '" + name + "'");
}

/// SITE,INDEX,ACTION[,MS[,PROB[,SEED]]] → armed FaultInjector entry.
void arm_fault(const char* argv0, const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ',');
  if (parts.size() < 3 || parts.size() > 6) {
    usage_error(argv0, "malformed --fault spec '" + spec + "'");
  }
  const int index = static_cast<int>(
      parse_double(argv0, "--fault index", parts[1]));
  hgp::FaultInjector::Fault fault;
  fault.action = parse_action(argv0, parts[2]);
  if (parts.size() > 3) {
    fault.stall_ms = parse_double(argv0, "--fault stall-ms", parts[3]);
  }
  if (parts.size() > 4) {
    fault.probability = parse_double(argv0, "--fault probability", parts[4]);
  }
  if (parts.size() > 5) {
    fault.seed = static_cast<std::uint64_t>(
        parse_double(argv0, "--fault seed", parts[5]));
  }
  hgp::FaultInjector::instance().arm(parts[0], index, fault);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hgp;
  std::string unix_path;
  ShardServerOptions opt;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        usage_error(argv[0], std::string("missing value for ") + flag);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (!std::strcmp(argv[i], "--connect")) {
      unix_path = need("--connect");
    } else if (!std::strcmp(argv[i], "--heartbeat-ms")) {
      opt.heartbeat_ms =
          parse_double(argv[0], "--heartbeat-ms", need("--heartbeat-ms"));
    } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
      opt.idle_timeout_ms = parse_double(argv[0], "--idle-timeout-ms",
                                         need("--idle-timeout-ms"));
    } else if (!std::strcmp(argv[i], "--fault")) {
      arm_fault(argv[0], need("--fault"));
    } else {
      usage_error(argv[0], std::string("unknown argument '") + argv[i] + "'");
    }
  }
  if (unix_path.empty()) usage_error(argv[0], "--connect is required");

  // The chaos storm's crash schedule: a kKillProcess armed at shardd.kill
  // takes the whole process down right before tree `index`'s solve — from
  // the coordinator's side, a machine that died mid-lease.
  opt.on_tree_start = [](int tree_index) {
    if (FaultInjector::instance().poll_io("shardd.kill", tree_index) ==
        FaultInjector::Action::kKillProcess) {
      ::raise(SIGKILL);
    }
  };

  try {
    net::FrameChannel channel(
        net::connect_unix(unix_path, Deadline::after_ms(10000)));
    const Status exit_status = run_shard_server(channel, opt);
    if (!exit_status.ok()) {
      std::fprintf(stderr, "hgp_shardd: %s\n", exit_status.to_string().c_str());
    }
    return exit_code_for(exit_status.code);
  } catch (const SolveError& e) {
    std::fprintf(stderr, "hgp_shardd: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hgp_shardd: %s\n", e.what());
    return 1;
  }
}
