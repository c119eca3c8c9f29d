#include "core/cntag.hpp"

#include <stdexcept>
#include <utility>

#include "logic/minimize.hpp"
#include "logic/sop_map.hpp"

namespace addm::core {

using logic::TruthTable;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

namespace {

void check_trace(const seq::AddressTrace& trace) {
  if (trace.empty()) throw std::invalid_argument("build_cntag: empty trace");
  if (trace.length() > (std::size_t{1} << 22))
    throw std::invalid_argument("build_cntag: trace too long for table synthesis");
}

/// Minimizes bit `bit` of `values[idx]` as a function of the `n` index bits.
logic::Cover minimize_table_bit(int n, const std::vector<std::uint32_t>& values, int bit,
                                const logic::MinimizeOptions& minimize) {
  TruthTable onset(n);
  TruthTable care(n);
  for (std::size_t i = 0; i < values.size(); ++i) {
    care.set(i, true);
    if ((values[i] >> bit) & 1) onset.set(i, true);
  }
  return logic::minimize(onset, onset | ~care, minimize);
}

/// Maps one address bit's cover over the index bits.
NetId map_table_bit(NetlistBuilder& b, std::span<const NetId> index_bits,
                    const logic::Cover& cover, bool flat) {
  const bool saved = b.sharing();
  b.set_sharing(!flat);
  const NetId out = logic::map_cover(b, cover, index_bits);
  b.set_sharing(saved);
  return out;
}

}  // namespace

CntAgCovers cntag_covers(const seq::AddressTrace& trace,
                         const logic::MinimizeOptions& minimize) {
  check_trace(trace);
  const int n = synth::bits_for(trace.length());
  const auto rows = trace.rows();
  const auto cols = trace.cols();
  CntAgCovers covers;
  for (int k = 0; k < synth::bits_for(trace.geometry().height); ++k)
    covers.row.push_back(minimize_table_bit(n, rows, k, minimize));
  for (int k = 0; k < synth::bits_for(trace.geometry().width); ++k)
    covers.col.push_back(minimize_table_bit(n, cols, k, minimize));
  return covers;
}

CntAgPorts build_cntag(NetlistBuilder& b, const seq::AddressTrace& trace,
                       const CntAgCovers& covers, NetId next, NetId reset,
                       const CntAgOptions& opt) {
  check_trace(trace);
  const std::size_t length = trace.length();
  if (covers.row.size() != static_cast<std::size_t>(synth::bits_for(trace.geometry().height)) ||
      covers.col.size() != static_cast<std::size_t>(synth::bits_for(trace.geometry().width)))
    throw std::invalid_argument("build_cntag: covers do not match the trace geometry");

  CntAgPorts ports;

  // Sequence-position counter.
  synth::CounterSpec spec;
  spec.bits = synth::bits_for(length);
  spec.modulo = length;
  spec.carry = opt.carry;
  spec.cascade_digit_bits = opt.counter_digit_bits;
  ports.index = synth::build_counter(b, spec, next, reset).q;

  // Index -> (row, col) transform, one minimized function per address bit.
  for (const logic::Cover& cover : covers.row)
    ports.row_addr.push_back(map_table_bit(b, ports.index, cover, opt.flat_transform));
  for (const logic::Cover& cover : covers.col)
    ports.col_addr.push_back(map_table_bit(b, ports.index, cover, opt.flat_transform));

  if (opt.include_decoders) {
    ports.rs = synth::build_decoder(b, ports.row_addr, trace.geometry().height,
                                    netlist::kConst1, opt.decoder_style);
    ports.cs = synth::build_decoder(b, ports.col_addr, trace.geometry().width,
                                    netlist::kConst1, opt.decoder_style);
  }
  return ports;
}

Netlist elaborate_cntag(const seq::AddressTrace& trace, const CntAgOptions& opt,
                        const CntAgCovers& covers, CntAgPorts* ports_out) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  CntAgPorts ports = build_cntag(b, trace, covers, next, reset, opt);
  b.output_bus("ra", ports.row_addr);
  b.output_bus("ca", ports.col_addr);
  if (opt.include_decoders) {
    b.output_bus("rs", ports.rs);
    b.output_bus("cs", ports.cs);
  }
  if (ports_out) *ports_out = std::move(ports);
  return nl;
}

Netlist elaborate_cntag(const seq::AddressTrace& trace, const CntAgOptions& opt,
                        CntAgPorts* ports_out) {
  return elaborate_cntag(trace, opt, cntag_covers(trace, opt.minimize), ports_out);
}

}  // namespace addm::core
