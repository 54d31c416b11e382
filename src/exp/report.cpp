#include "exp/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "obs/json_escape.hpp"

namespace hgp::exp {

// This translation unit IS the console report sink for the bench/example
// binaries — stdout here is its contract, so the no-stdout lint rule is
// suppressed line by line rather than rerouted.

void print_header(const std::string& id, const std::string& title,
                  const std::string& claim) {
  std::printf("\n== %s: %s\n", id.c_str(), title.c_str());  // hgp-lint: allow(no-stdout)
  std::printf("   claim: %s\n\n", claim.c_str());  // hgp-lint: allow(no-stdout)
}

bool check(const std::string& what, bool ok) {
  std::printf("   [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());  // hgp-lint: allow(no-stdout)
  return ok;
}

std::string machine_fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t start =
          line.find_first_not_of(" \t", line.find(':') + 1);
      if (start != std::string::npos) cpu = line.substr(start);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = __VERSION__;  // names clang itself
#else
  const std::string compiler = std::string("g++ ") + __VERSION__;
#endif
  std::ostringstream os;
  os << "{\"cpu\": \"" << obs::json_escaped(cpu)
     << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"compiler\": \"" << obs::json_escaped(compiler)
     << "\", \"build_type\": \"" << obs::json_escaped(HGP_BUILD_TYPE)
     << "\"}";
  return os.str();
}

void maybe_write_csv(const CsvWriter& csv, const std::string& name) {
  if (std::getenv("HGP_BENCH_CSV") == nullptr) return;
  const std::string path = name + ".csv";
  csv.write_file(path);
  std::printf("   wrote %s\n", path.c_str());  // hgp-lint: allow(no-stdout)
}

}  // namespace hgp::exp
