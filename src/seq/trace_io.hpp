// Text serialization for address traces, and import of recorded memory logs.
//
// Format (line oriented, '#' starts a comment):
//
//   # optional comments
//   geometry <width> <height>
//   name <identifier>          (optional)
//   <addr> <addr> ...          (any number of lines of linear addresses)
//
// Each directive may appear at most once and takes exactly its operands.
// Used by the sradgen tool and for exchanging traces with external
// profilers/simulators.  import_lackey converts valgrind/lackey-style
// recorded memory logs into the same AddressTrace (tools/addm_trace_import
// wraps it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "seq/trace.hpp"

namespace addm::seq {

/// Parses a trace; throws std::invalid_argument with a line-numbered message
/// on malformed input.
AddressTrace read_trace(std::istream& in);
AddressTrace read_trace_string(const std::string& text);

/// Writes the trace in the format above (16 addresses per line).
void write_trace(std::ostream& out, const AddressTrace& trace);
std::string write_trace_string(const AddressTrace& trace);

/// File convenience wrappers. Throw std::runtime_error when the file cannot
/// be opened (message includes the path); parse errors propagate as
/// std::invalid_argument from read_trace.
AddressTrace read_trace_file(const std::string& path);
void write_trace_file(const std::string& path, const AddressTrace& trace);

/// Import options for valgrind/lackey-style memory logs.
struct LackeyImportOptions {
  ArrayGeometry geometry;      ///< required: target array shape
  std::string kinds = "LSM";   ///< which markers to keep (subset of "ILSM")
  bool auto_base = true;       ///< base = first selected access's address
  std::uint64_t base = 0;      ///< explicit base when !auto_base
  std::uint32_t word_bytes = 4;  ///< bytes per array word
  std::string name;            ///< trace name for the result
};

/// Parses a lackey-style log: lines of the form
///
///   I  0023c10,3        (instruction fetch)
///    L 04025cb0,8       (load)     S .. (store)     M .. (modify)
///
/// with hex addresses ("0x" prefix optional).  Blank lines and `==pid==`
/// chatter are skipped; anything else malformed throws std::invalid_argument
/// with a line-numbered "lackey import error".  Selected accesses map to
/// linear = (addr - base) / word_bytes, which must land inside
/// opt.geometry; sub-word accesses fold onto their containing word.
/// Throws if no access matches opt.kinds.
AddressTrace import_lackey(std::istream& in, const LackeyImportOptions& opt);
AddressTrace import_lackey_file(const std::string& path,
                                const LackeyImportOptions& opt);

}  // namespace addm::seq
