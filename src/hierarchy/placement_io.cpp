#include "hierarchy/placement_io.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "util/check.hpp"

namespace hgp::io {

void write_placement(const Placement& p, std::ostream& out) {
  out << "# hgp placement: " << p.leaf_of.size() << " tasks\n";
  for (std::size_t v = 0; v < p.leaf_of.size(); ++v) {
    out << v << ' ' << p.leaf_of[v] << '\n';
  }
}

void write_placement_file(const Placement& p, const std::string& path) {
  std::ofstream out(path);
  HGP_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write_placement(p, out);
  HGP_CHECK_MSG(out.good(), "write failed: " << path);
}

Placement read_placement(std::istream& in) {
  std::vector<std::pair<long long, long long>> rows;
  long long max_task = -1;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    long long task = 0, leaf = 0;
    HGP_CHECK_MSG(static_cast<bool>(row >> task >> leaf),
                  "placement input: malformed line: " << line);
    HGP_CHECK_MSG(task >= 0 && leaf >= 0,
                  "placement input: negative id: " << line);
    rows.emplace_back(task, leaf);
    max_task = std::max(max_task, task);
  }
  Placement p;
  p.leaf_of.assign(static_cast<std::size_t>(max_task + 1), -1);
  for (const auto& [task, leaf] : rows) {
    HGP_CHECK_MSG(p.leaf_of[static_cast<std::size_t>(task)] == -1,
                  "placement input: task " << task << " assigned twice");
    p.leaf_of[static_cast<std::size_t>(task)] = leaf;
  }
  for (std::size_t v = 0; v < p.leaf_of.size(); ++v) {
    HGP_CHECK_MSG(p.leaf_of[v] >= 0,
                  "placement input: task " << v << " missing");
  }
  return p;
}

}  // namespace hgp::io
