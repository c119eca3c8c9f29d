// Measurement pipeline shared by every experiment: elaborate -> repair
// fanout with buffer trees -> static timing + area. This mirrors what the
// paper's synthesis runs report (post-synthesis critical path and cell area).
#pragma once

#include "core/srag_config.hpp"
#include "core/srag_elab.hpp"
#include "netlist/netlist.hpp"
#include "seq/trace.hpp"
#include "tech/buffering.hpp"
#include "tech/library.hpp"
#include "tech/sta.hpp"

namespace addm::core {

struct GeneratorMetrics {
  double area_units = 0.0;
  double delay_ns = 0.0;        ///< critical path (the paper's "delay")
  double clk_to_out_ns = 0.0;   ///< register-to-select-line component
  double reg_to_reg_ns = 0.0;   ///< internal control-loop component
  std::size_t cells = 0;
  std::size_t flipflops = 0;
  std::size_t buffers_added = 0;
};

/// Buffers `nl` in place, then runs STA and area analysis.
GeneratorMetrics measure_netlist(netlist::Netlist& nl, const tech::Library& lib,
                                 int max_fanout = tech::kDefaultMaxFanout);

/// Maps both dimensions of `trace` and elaborates the two-hot SRAG pair.
/// Throws std::invalid_argument (with the mapper diagnostic) if either
/// dimension is unmappable.
struct Srag2dBuild {
  SragConfig row;
  SragConfig col;
  netlist::Netlist netlist;
  SragPorts row_ports;
  SragPorts col_ports;
};
Srag2dBuild build_srag_2d_for_trace(const seq::AddressTrace& trace);

}  // namespace addm::core
