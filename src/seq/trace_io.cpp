#include "seq/trace_io.hpp"

#include <cctype>
#include <climits>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace addm::seq {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("trace parse error at line " + std::to_string(line) + ": " +
                              what);
}

bool is_ws(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

void skip_ws(std::string_view s, std::size_t& pos) {
  while (pos < s.size() && is_ws(s[pos])) ++pos;
}

// Next whitespace-delimited token, or empty at end of line (mirrors
// `istringstream >> std::string`).
std::string_view next_token(std::string_view s, std::size_t& pos) {
  skip_ws(s, pos);
  const std::size_t start = pos;
  while (pos < s.size() && !is_ws(s[pos])) ++pos;
  return s.substr(start, pos - start);
}

// Emulates `istream >> std::size_t`: optional sign, base-10 digits,
// negative values wrap modulo 2^64, out-of-range digits fail the
// extraction.  The geometry directive's accepted grammar (and its error
// messages for inputs like "geometry 4x4") is defined by that extraction.
std::optional<std::size_t> extract_size(std::string_view s, std::size_t& pos) {
  skip_ws(s, pos);
  bool negative = false;
  if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
    negative = s[pos] == '-';
    ++pos;
  }
  unsigned long long v = 0;
  bool any = false, overflow = false;
  while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
    any = true;
    const unsigned d = static_cast<unsigned>(s[pos] - '0');
    if (v > (ULLONG_MAX - d) / 10) overflow = true;
    v = v * 10 + d;
    ++pos;
  }
  if (!any || overflow) return std::nullopt;
  if (negative) v = 0ULL - v;
  return static_cast<std::size_t>(v);
}

/// The trace-format line grammar, one line at a time, in a single pass
/// with no per-line stream objects.  Stateful: remembers the geometry/name
/// directives seen so far.
class TraceLineParser {
 public:
  /// Parses one line (no trailing '\n'), appending any addresses to `out`.
  /// Throws std::invalid_argument with the historical line-numbered
  /// messages on malformed input.
  void line(std::string_view text, std::size_t line_no,
            std::vector<std::uint32_t>& out);

  /// End-of-input validation (missing geometry / no addresses), given
  /// whether any address was produced.
  void finish(bool any_addresses) const;

  const ArrayGeometry& geometry() const { return geom_; }
  const std::string& name() const { return name_; }

 private:
  ArrayGeometry geom_{};
  bool have_geometry_ = false;
  bool have_name_ = false;
  std::string name_;
};

void TraceLineParser::line(std::string_view text, std::size_t line_no,
                           std::vector<std::uint32_t>& out) {
  if (const auto hash = text.find('#'); hash != std::string_view::npos)
    text = text.substr(0, hash);

  std::size_t pos = 0;
  const std::string_view first = next_token(text, pos);
  if (first.empty()) return;  // blank / comment-only line

  if (first == "geometry") {
    if (have_geometry_) fail(line_no, "duplicate geometry");
    const auto w = extract_size(text, pos);
    const auto h = w ? extract_size(text, pos) : std::nullopt;
    if (!w || !h || *w == 0 || *h == 0)
      fail(line_no, "expected 'geometry <width> <height>' with positive sizes");
    const std::string_view extra = next_token(text, pos);
    if (!extra.empty()) fail(line_no, "trailing token '" + std::string(extra) + "'");
    geom_ = {*w, *h};
    have_geometry_ = true;
    return;
  }
  if (first == "name") {
    if (have_name_) fail(line_no, "duplicate name");
    const std::string_view value = next_token(text, pos);
    if (value.empty()) fail(line_no, "expected 'name <identifier>'");
    const std::string_view extra = next_token(text, pos);
    if (!extra.empty()) fail(line_no, "trailing token '" + std::string(extra) + "'");
    name_ = std::string(value);
    have_name_ = true;
    return;
  }

  // Otherwise the whole line is addresses (first is the first of them).
  if (!have_geometry_) fail(line_no, "addresses before the geometry directive");
  pos = 0;
  for (;;) {
    const std::string_view tok = next_token(text, pos);
    if (tok.empty()) break;
    // A sign would wrap through unsigned conversion and surface as a
    // misleading "outside the array" error; an address token must be bare
    // digits (and fit in unsigned long, matching the historical std::stoul
    // behavior).
    bool digits = std::isdigit(static_cast<unsigned char>(tok[0])) != 0;
    unsigned long v = 0;
    bool overflow = false;
    for (std::size_t i = 0; digits && i < tok.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(tok[i]))) {
        digits = false;
        break;
      }
      const unsigned d = static_cast<unsigned>(tok[i] - '0');
      if (v > (ULONG_MAX - d) / 10) overflow = true;
      v = v * 10 + d;
    }
    if (!digits || overflow) fail(line_no, "not an address: '" + std::string(tok) + "'");
    if (v >= geom_.size())
      fail(line_no, "address " + std::string(tok) + " outside the " +
                        std::to_string(geom_.width) + "x" + std::to_string(geom_.height) +
                        " array");
    out.push_back(static_cast<std::uint32_t>(v));
  }
}

void TraceLineParser::finish(bool any_addresses) const {
  if (!have_geometry_) throw std::invalid_argument("trace parse error: missing geometry");
  if (!any_addresses) throw std::invalid_argument("trace parse error: no addresses");
}

[[noreturn]] void import_fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("lackey import error at line " + std::to_string(line) +
                              ": " + what);
}

bool is_hex(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

AddressTrace read_trace(std::istream& in) {
  TraceLineParser parser;
  std::vector<std::uint32_t> addrs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) parser.line(line, ++line_no, addrs);
  parser.finish(!addrs.empty());
  return AddressTrace(parser.geometry(), std::move(addrs), parser.name());
}

AddressTrace read_trace_string(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

void write_trace(std::ostream& out, const AddressTrace& trace) {
  out << "# addm address trace (" << trace.length() << " accesses)\n";
  out << "geometry " << trace.geometry().width << " " << trace.geometry().height << "\n";
  if (!trace.name().empty()) out << "name " << trace.name() << "\n";
  const auto& a = trace.linear();
  for (std::size_t i = 0; i < a.size(); ++i)
    out << a[i] << (((i + 1) % 16 == 0 || i + 1 == a.size()) ? "\n" : " ");
}

std::string write_trace_string(const AddressTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

AddressTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

void write_trace_file(const std::string& path, const AddressTrace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
  write_trace(out, trace);
  out.flush();
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

AddressTrace import_lackey(std::istream& in, const LackeyImportOptions& opt) {
  if (opt.geometry.width == 0 || opt.geometry.height == 0)
    throw std::invalid_argument("lackey import: geometry must be positive");
  if (opt.word_bytes == 0)
    throw std::invalid_argument("lackey import: word size must be positive");
  if (opt.kinds.empty() ||
      opt.kinds.find_first_not_of("ILSM") != std::string::npos)
    throw std::invalid_argument(
        "lackey import: kinds must be a non-empty subset of \"ILSM\"");

  std::vector<std::uint32_t> addrs;
  std::uint64_t base = opt.base;
  bool have_base = !opt.auto_base;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view text = line;
    std::size_t pos = 0;
    skip_ws(text, pos);
    if (pos >= text.size()) continue;                               // blank
    if (text.substr(pos, 2) == "==") continue;                      // valgrind chatter
    const char marker = text[pos];
    if (marker != 'I' && marker != 'L' && marker != 'S' && marker != 'M')
      import_fail(line_no,
                  "unrecognized line '" + std::string(text.substr(pos)) + "'");
    ++pos;
    skip_ws(text, pos);
    const std::size_t addr_start = pos;
    if (text.substr(pos, 2) == "0x" || text.substr(pos, 2) == "0X") pos += 2;
    std::uint64_t addr = 0;
    bool any = false, overflow = false;
    while (pos < text.size() && is_hex(text[pos])) {
      any = true;
      if (addr >> 60) overflow = true;
      addr = addr * 16 +
             static_cast<std::uint64_t>(
                 std::isdigit(static_cast<unsigned char>(text[pos]))
                     ? text[pos] - '0'
                     : std::tolower(static_cast<unsigned char>(text[pos])) - 'a' + 10);
      ++pos;
    }
    const std::string addr_text(text.substr(addr_start, pos - addr_start));
    if (!any || overflow)
      import_fail(line_no, "expected hex address after '" + std::string(1, marker) + "'");
    if (pos >= text.size() || text[pos] != ',')
      import_fail(line_no, "expected ',<size>' after address " + addr_text);
    ++pos;
    bool size_digits = false;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
      size_digits = true;
      ++pos;
    }
    if (!size_digits)
      import_fail(line_no, "expected ',<size>' after address " + addr_text);
    skip_ws(text, pos);
    if (pos < text.size())
      import_fail(line_no, "trailing token '" + std::string(text.substr(pos)) + "'");

    if (opt.kinds.find(marker) == std::string::npos) continue;
    if (!have_base) {
      base = addr;
      have_base = true;
    }
    if (addr < base)
      import_fail(line_no, "address " + addr_text + " below the base address (use --base)");
    const std::uint64_t word = (addr - base) / opt.word_bytes;
    if (word >= opt.geometry.size())
      import_fail(line_no, "address " + addr_text + " maps to word " +
                               std::to_string(word) + " outside the " +
                               std::to_string(opt.geometry.width) + "x" +
                               std::to_string(opt.geometry.height) + " array");
    addrs.push_back(static_cast<std::uint32_t>(word));
  }
  if (addrs.empty())
    throw std::invalid_argument("lackey import error: no matching accesses");
  return AddressTrace(opt.geometry, std::move(addrs), opt.name);
}

AddressTrace import_lackey_file(const std::string& path,
                                const LackeyImportOptions& opt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open lackey log: " + path);
  return import_lackey(in, opt);
}

}  // namespace addm::seq
