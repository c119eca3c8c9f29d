#include "core/sfm.hpp"

#include <stdexcept>
#include <utility>

#include "synth/shift.hpp"

namespace addm::core {

using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

SfmPorts build_sfm(NetlistBuilder& b, std::size_t cells, NetId next_write, NetId next_read,
                   NetId reset) {
  if (cells == 0) throw std::invalid_argument("build_sfm: zero cells");
  SfmPorts ports;
  ports.write_select = synth::build_token_ring(b, cells, next_write, reset);
  ports.read_select = synth::build_token_ring(b, cells, next_read, reset);
  return ports;
}

Netlist elaborate_sfm(std::size_t cells, SfmPorts* ports_out) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId nw = b.input("next_write");
  const NetId nr = b.input("next_read");
  const NetId rst = b.input("reset");
  SfmPorts ports = build_sfm(b, cells, nw, nr, rst);
  b.output_bus("wsel", ports.write_select);
  b.output_bus("rsel", ports.read_select);
  if (ports_out) *ports_out = std::move(ports);
  return nl;
}

}  // namespace addm::core
