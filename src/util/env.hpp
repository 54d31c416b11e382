// Environment-variable runtime knobs (HGP_FOREST_CACHE).
//
// Parsing is deliberately forgiving: an unrecognized value falls back to
// the default rather than failing a production solve over a typo'd
// environment.
#pragma once

#include <cstdlib>

namespace hgp {

/// Non-negative integer knob; unset, empty, or unparsable yields
/// `default_value`.
inline long env_int(const char* name, long default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < 0) return default_value;
  return v;
}

}  // namespace hgp
