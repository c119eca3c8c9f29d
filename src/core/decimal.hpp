// The strict decimal grammar shared by the cache index and entry files and
// by the daemon's request and admin grammars.
#pragma once

#include <cstdint>
#include <string_view>

namespace addm::core {

/// Parses a non-negative decimal of at most 20 digits (no sign, whitespace
/// or suffix) that fits in 64 bits.  Returns false, leaving `out` unchanged,
/// on anything else.
inline bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

}  // namespace addm::core
