// Gate-level elaboration of the SRAG architecture (Figure 5) and of the
// complete two-dimensional generator (row SRAG + column SRAG sharing `next`
// and `reset`, the two-hot arrangement of Section 4).
//
// Structure per dimension:
//  * DivCnt: modulo-dC counter + comparator; enable = next & (DivCnt==dC-1).
//    Omitted when dC==1 (enable = next), matching what a synthesis flow
//    would strip.
//  * PassCnt: modulo-pC counter + comparator; pass = (PassCnt==pC-1).
//    Omitted when there is a single shift register (no multiplexors needed,
//    as the paper notes).
//  * Shift registers with enable/reset flip-flops; the token-start flip-flop
//    (register 0, position 0) resets to 1, all others to 0. Register heads
//    are fed through 2:1 muxes steered by `pass`.
// Outputs: one select line per address; lines never visited are tied to 0.
#pragma once

#include <string>
#include <vector>

#include "core/srag_config.hpp"
#include "netlist/builder.hpp"

namespace addm::core {

struct SragPorts {
  std::vector<netlist::NetId> select;          ///< select[k] drives line k
  netlist::NetId enable = netlist::kInvalidNet;  ///< internal enable (for tests)
  netlist::NetId pass = netlist::kInvalidNet;    ///< internal pass (for tests)
  /// Asserted during the enabled shift that completes one full traversal of
  /// the token cycle (token about to re-enter registers[0][0]). Used by the
  /// shared-control composition (core/shared_control.hpp).
  netlist::NetId cycle_complete = netlist::kInvalidNet;
  /// Flip-flop outputs, LSB first: the DivCnt bits (empty when DivCnt is
  /// omitted or the caller provides the enable), the PassCnt bits (empty
  /// when PassCnt is omitted), and token[i][j], the flip-flop driving line
  /// registers[i][j].  Their values are SragModel's div_counter(),
  /// pass_counter() and token position (core/explorer.cpp's replay recipe).
  std::vector<netlist::NetId> div_q;
  std::vector<netlist::NetId> pass_q;
  std::vector<std::vector<netlist::NetId>> token;
};

/// Appends one SRAG dimension to `b`, driven by existing nets `next`/`reset`.
/// Select lines are NOT registered as primary outputs; callers decide.
SragPorts build_srag(netlist::NetlistBuilder& b, const SragConfig& cfg,
                     netlist::NetId next, netlist::NetId reset);

/// Variant with a caller-provided shift enable: the DivCnt stage is skipped
/// entirely and `enable` gates the shifts directly. This is the hook the
/// shared-control composition uses to drive the row dimension from column
/// events instead of a private divider.
SragPorts build_srag_with_enable(netlist::NetlistBuilder& b, const SragConfig& cfg,
                                 netlist::NetId enable, netlist::NetId reset);

/// Builds a standalone one-dimensional SRAG netlist with primary inputs
/// "next"/"reset" and output bus "sel[...]".
netlist::Netlist elaborate_srag(const SragConfig& cfg);

/// Builds the full two-dimensional generator: inputs "next"/"reset", output
/// buses "rs[...]" (row selects) and "cs[...]" (column selects).  The row
/// and column ports go to `row_ports`/`col_ports` when given.
netlist::Netlist elaborate_srag_2d(const SragConfig& row_cfg, const SragConfig& col_cfg,
                                   SragPorts* row_ports = nullptr,
                                   SragPorts* col_ports = nullptr);

}  // namespace addm::core
