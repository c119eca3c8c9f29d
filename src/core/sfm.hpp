// SFM: Aloqeely's Sequential FIFO Memory pointer logic (Figure 6) — the
// prior-art design SRAG improves on. A one-dimensional memory with the
// address decoder replaced by two one-hot ("one-hot encoded", in contrast to
// SRAG's two-hot) single-bit shift registers: a tail pointer selecting the
// write cell and a head pointer selecting the read cell.
#pragma once

#include "netlist/builder.hpp"

namespace addm::core {

struct SfmPorts {
  std::vector<netlist::NetId> write_select;  ///< one-hot, tail pointer
  std::vector<netlist::NetId> read_select;   ///< one-hot, head pointer
};

/// Appends SFM pointer logic for `cells` memory cells. `next_write` advances
/// the tail pointer, `next_read` the head pointer; `reset` returns both to
/// cell 0.
SfmPorts build_sfm(netlist::NetlistBuilder& b, std::size_t cells,
                   netlist::NetId next_write, netlist::NetId next_read,
                   netlist::NetId reset);

/// Standalone netlist with inputs "next_write"/"next_read"/"reset" and output
/// buses "wsel[...]"/"rsel[...]".  The ports go to `ports` when given; the
/// select lines are the pointer flip-flops themselves.
netlist::Netlist elaborate_sfm(std::size_t cells, SfmPorts* ports = nullptr);

}  // namespace addm::core
