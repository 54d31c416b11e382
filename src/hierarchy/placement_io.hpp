// Placement serialization: persist task → leaf assignments so solved
// placements can be applied by external pinning tools (taskset, cgroup
// writers, k8s annotations) or reloaded for refinement.
#pragma once

#include <iosfwd>
#include <string>

#include "hierarchy/placement.hpp"

namespace hgp::io {

/// Writes "task leaf" lines plus a header comment with the task count.
void write_placement(const Placement& p, std::ostream& out);
void write_placement_file(const Placement& p, const std::string& path);

/// Reads the format back; validates ids are non-negative and the tasks are
/// exactly 0..n-1 (each assigned once).
Placement read_placement(std::istream& in);

}  // namespace hgp::io
