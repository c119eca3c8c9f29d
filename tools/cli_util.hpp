// Shared argument-parsing and report-writing helpers for the addm
// command-line tools.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/explore_option_table.hpp"
#include "seq/trace.hpp"

namespace addm::tools {

/// Strict non-negative integer: digits only (no sign, no whitespace, no
/// trailing junk). Returns false on overflow or malformed input.
inline bool parse_size(const char* s, std::size_t& out) {
  if (!s || !std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// "WxH" with positive dimensions, e.g. "8x8".
inline bool parse_geometry(const char* s, seq::ArrayGeometry& g) {
  const char* x = std::strchr(s, 'x');
  if (!x) return false;
  const std::string w(s, x);
  std::size_t wv = 0, hv = 0;
  if (!parse_size(w.c_str(), wv) || !parse_size(x + 1, hv)) return false;
  if (wv == 0 || hv == 0) return false;
  g.width = wv;
  g.height = hv;
  return true;
}

/// Upper bound on --threads: far above any real machine, low enough that a
/// typo cannot ask the thread pool for billions of workers.
inline constexpr std::size_t kMaxThreads = 1024;

/// Byte size: digits with an optional binary-suffix k/m/g (case-insensitive),
/// e.g. "16384", "16k", "2M".  Returns false on overflow, a bare suffix, or
/// any other malformed input.
inline bool parse_bytes(const char* s, std::uint64_t& out) {
  if (!s || !std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s) return false;
  std::uint64_t scale = 1;
  if (*end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': scale = 1ull << 10; break;
      case 'm': scale = 1ull << 20; break;
      case 'g': scale = 1ull << 30; break;
      default: return false;
    }
    if (end[1] != '\0') return false;
  }
  if (v > UINT64_MAX / scale) return false;
  out = static_cast<std::uint64_t>(v) * scale;
  return true;
}

/// Slurps a file in binary mode.  Returns false when the file cannot be
/// opened or the read fails partway.
inline bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) return false;
  out = os.str();
  return true;
}

/// Writes `report` to `out_path`, or to stdout when it is empty.  On
/// failure prints the diagnostic ("cannot open F for writing", "error
/// writing report to F" or "... to stdout") and returns false; the tools
/// then exit 1.
inline bool write_report(const char* argv0, const std::string& out_path,
                         std::string_view report) {
  if (out_path.empty()) {
    std::cout << report;
    std::cout.flush();
    if (std::cout) return true;
    std::cerr << argv0 << ": error writing report to stdout\n";
    return false;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << argv0 << ": cannot open " << out_path << " for writing\n";
    return false;
  }
  out << report;
  out.flush();
  if (out) return true;
  std::cerr << argv0 << ": error writing report to " << out_path << "\n";
  return false;
}

/// Upper bound on the --shard count: generous for any real fleet, and low
/// enough that len*count cannot overflow std::size_t in ShardSpec::range.
inline constexpr std::size_t kMaxShards = 4096;

/// "I/N" shard spec with 0 <= I < N and 1 <= N <= kMaxShards, e.g. "0/3".
/// Shard I of N owns the contiguous block [I*len/N, (I+1)*len/N) of the
/// input trace list, so concatenating the per-shard reports in shard order
/// reproduces the unsharded report byte-for-byte (see docs/cache-format.md).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// The half-open range this shard owns out of `n` items.
  std::pair<std::size_t, std::size_t> range(std::size_t n) const {
    return {n * index / count, n * (index + 1) / count};
  }
};

inline bool parse_shard(const char* s, ShardSpec& out) {
  const char* slash = std::strchr(s, '/');
  if (!slash) return false;
  const std::string i(s, slash);
  std::size_t iv = 0, nv = 0;
  if (!parse_size(i.c_str(), iv) || !parse_size(slash + 1, nv)) return false;
  if (nv == 0 || nv > kMaxShards || iv >= nv) return false;
  out.index = iv;
  out.count = nv;
  return true;
}

/// --help lines for the exploration-option table (core/explore_option_table),
/// in the tools' two-column layout: descriptions start at column 23, on the
/// next line when the flag and placeholder do not fit before it.
inline std::string explore_options_usage() {
  constexpr std::size_t kColumn = 23;
  std::string out;
  for (const core::ExploreOptionSpec& o : core::explore_option_table()) {
    std::string flag = "  --" + o.key;
    if (!o.placeholder.empty()) flag += " " + o.placeholder;
    out += flag;
    if (flag.size() >= kColumn) out += '\n';
    out.append(flag.size() < kColumn ? kColumn - flag.size() : kColumn, ' ');
    for (char c : o.help) {
      out += c;
      if (c == '\n') out.append(kColumn, ' ');
    }
    out += '\n';
  }
  return out;
}

/// When argv[i] is `--KEY` for a row of the exploration-option table,
/// consumes it and its value (if the key takes one), validates and applies
/// them to `opt` through the table, and returns {KEY, VALUE}; nullopt for
/// any other argument.  A missing or rejected value exits 2 with a
/// diagnostic, the same verdict the daemon gives that key and value.
inline std::optional<std::pair<std::string, std::string>> take_explore_option(
    int argc, char** argv, int& i, core::ExploreOptions& opt) {
  const std::string_view arg = argv[i];
  if (arg.substr(0, 2) != "--") return std::nullopt;
  const core::ExploreOptionSpec* o = core::find_explore_option(arg.substr(2));
  if (!o) return std::nullopt;
  std::string value;
  if (!o->placeholder.empty() && i + 1 < argc) value = argv[++i];
  std::string why;
  if (!core::apply_explore_option(opt, o->key, value, why)) {
    std::cerr << argv[0] << ": --" << why << "\n";
    std::exit(2);
  }
  return std::pair{o->key, std::move(value)};
}

}  // namespace addm::tools
