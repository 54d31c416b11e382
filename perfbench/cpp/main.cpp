// perfbench — the repository benchmark's measuring process.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out-dir DIR] [--shardd PATH] [--print-schedule]
//
// Runs one workload in this process and prints one JSON object on the
// last line of stdout: the correctness verdict, request counts, the
// metrics of the mode (end-to-end with --trace 0; with --trace 1 the
// per-layer metrics this workload reaches), diagnostics, and the schedule / work fingerprints.
// perfbench/run.py builds this binary, runs it once per workload and turns
// that line into the benchmark's result.  Exit status: 0 when every
// correctness gate passed, 1 when one failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/json_escape.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += hgp::obs::json_escaped(s);
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "deep_dp|wide_decomp|churn_service|sharded [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR] "
               "[--shardd PATH] [--print-schedule]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--print-schedule") {
      cfg.print_schedule = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value or unknown flag " + a).c_str());
    } else if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--shardd") {
      cfg.shardd = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!(cfg.seconds >= 0)) return usage("--seconds must be >= 0");

  RunResult rr;
  try {
    if (cfg.workload == "deep_dp") {
      rr = perfbench::run_deep_dp(cfg);
    } else if (cfg.workload == "wide_decomp") {
      rr = perfbench::run_wide_decomp(cfg);
    } else if (cfg.workload == "churn_service") {
      rr = perfbench::run_churn_service(cfg);
    } else if (cfg.workload == "sharded") {
      rr = perfbench::run_sharded(cfg);
    } else {
      return usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    rr.failures.push_back(std::string("workload aborted: ") + e.what());
    if (rr.attempted == 0) rr.attempted = 1;
    rr.failed = rr.attempted;
  }
  if (cfg.print_schedule) {
    std::printf("schedule %s\n", hex(rr.schedule_fingerprint).c_str());
    return 0;
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < rr.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + json_string(rr.failures[i]);
  }
  failures += "]";
  const bool correct = rr.failures.empty();
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"failures\": %s, "
      "\"metrics\": %s, \"diagnostics\": %s, "
      "\"schedule_fingerprint\": \"%s\", \"work_fingerprint\": \"%s\", "
      "\"trace_file\": %s, \"compiler\": %s, \"build_type\": %s}\n",
      json_string(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
      correct ? "true" : "false", static_cast<long long>(rr.attempted),
      static_cast<long long>(rr.failed), failures.c_str(),
      json_metrics(rr.metrics).c_str(), json_metrics(rr.diagnostics).c_str(),
      hex(rr.schedule_fingerprint).c_str(),
      hex(rr.work_fingerprint).c_str(), json_string(rr.trace_file).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str());
  return correct ? 0 : 1;
}
