// Experiment report helpers: headers, check lines and CSV sidecar output.
#pragma once

#include <string>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace hgp::exp {

/// Prints the experiment banner ("== E5: ...") and the claim under test.
void print_header(const std::string& id, const std::string& title,
                  const std::string& claim);

/// Prints a PASS/FAIL line for a measured bound; returns `ok`.
bool check(const std::string& what, bool ok);

/// The machine/build fingerprint of a BENCH_JSON record, as a JSON object:
/// CPU model, hardware threads, compiler and CMake build type.
std::string machine_fingerprint_json();

/// Writes `csv` next to the binary as <name>.csv when HGP_BENCH_CSV is set
/// (so plotting is opt-in and CI stays clean).
void maybe_write_csv(const CsvWriter& csv, const std::string& name);

}  // namespace hgp::exp
