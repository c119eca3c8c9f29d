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

/// Synthesizes `values[idx]` bit `bit` as a function of the index bits.
NetId synth_table_bit(NetlistBuilder& b, std::span<const NetId> index_bits,
                      const std::vector<std::uint32_t>& values, int bit, bool flat,
                      const logic::MinimizeOptions& minimize) {
  const int n = static_cast<int>(index_bits.size());
  TruthTable onset(n);
  TruthTable care(n);
  for (std::size_t i = 0; i < values.size(); ++i) {
    care.set(i, true);
    if ((values[i] >> bit) & 1) onset.set(i, true);
  }
  const auto cover = logic::minimize(onset, onset | ~care, minimize);
  const bool saved = b.sharing();
  b.set_sharing(!flat);
  const NetId out = logic::map_cover(b, cover, index_bits);
  b.set_sharing(saved);
  return out;
}

}  // namespace

CntAgPorts build_cntag(NetlistBuilder& b, const seq::AddressTrace& trace, NetId next,
                       NetId reset, const CntAgOptions& opt) {
  if (trace.empty()) throw std::invalid_argument("build_cntag: empty trace");
  const std::size_t length = trace.length();
  if (length > (std::size_t{1} << 22))
    throw std::invalid_argument("build_cntag: trace too long for table synthesis");

  CntAgPorts ports;

  // Sequence-position counter.
  synth::CounterSpec spec;
  spec.bits = synth::bits_for(length);
  spec.modulo = length;
  spec.carry = opt.carry;
  spec.cascade_digit_bits = opt.counter_digit_bits;
  ports.index = synth::build_counter(b, spec, next, reset).q;

  // Index -> (row, col) transform, one minimized function per address bit.
  const auto rows = trace.rows();
  const auto cols = trace.cols();
  const int row_bits = synth::bits_for(trace.geometry().height);
  const int col_bits = synth::bits_for(trace.geometry().width);
  for (int k = 0; k < row_bits; ++k)
    ports.row_addr.push_back(
        synth_table_bit(b, ports.index, rows, k, opt.flat_transform, opt.minimize));
  for (int k = 0; k < col_bits; ++k)
    ports.col_addr.push_back(
        synth_table_bit(b, ports.index, cols, k, opt.flat_transform, opt.minimize));

  if (opt.include_decoders) {
    ports.rs = synth::build_decoder(b, ports.row_addr, trace.geometry().height,
                                    netlist::kConst1, opt.decoder_style);
    ports.cs = synth::build_decoder(b, ports.col_addr, trace.geometry().width,
                                    netlist::kConst1, opt.decoder_style);
  }
  return ports;
}

Netlist elaborate_cntag(const seq::AddressTrace& trace, const CntAgOptions& opt,
                        CntAgPorts* ports_out) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  CntAgPorts ports = build_cntag(b, trace, next, reset, opt);
  b.output_bus("ra", ports.row_addr);
  b.output_bus("ca", ports.col_addr);
  if (opt.include_decoders) {
    b.output_bus("rs", ports.rs);
    b.output_bus("cs", ports.cs);
  }
  if (ports_out) *ports_out = std::move(ports);
  return nl;
}

}  // namespace addm::core
