#include "core/srag_elab.hpp"

#include <utility>

#include "synth/counter.hpp"

namespace addm::core {

using netlist::CellType;
using netlist::kConst0;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

namespace {
SragPorts build_srag_body(NetlistBuilder& b, const SragConfig& cfg, NetId enable,
                          NetId reset);
}  // namespace

SragPorts build_srag(NetlistBuilder& b, const SragConfig& cfg, NetId next, NetId reset) {
  cfg.check();

  // DivCnt + enable derivation.
  NetId enable;
  std::vector<NetId> div_q;
  if (cfg.div_count == 1) {
    enable = next;
  } else {
    synth::CounterSpec spec;
    spec.bits = synth::bits_for(cfg.div_count);
    spec.modulo = cfg.div_count;
    const auto div = synth::build_counter(b, spec, next, reset);
    enable = b.and2(next, div.wrap);  // wrap == (DivCnt == dC-1)
    div_q = div.q;
  }
  SragPorts ports = build_srag_body(b, cfg, enable, reset);
  ports.div_q = std::move(div_q);
  return ports;
}

SragPorts build_srag_with_enable(NetlistBuilder& b, const SragConfig& cfg, NetId enable,
                                 NetId reset) {
  cfg.check();
  return build_srag_body(b, cfg, enable, reset);
}

namespace {
SragPorts build_srag_body(NetlistBuilder& b, const SragConfig& cfg, NetId enable,
                          NetId reset) {
  auto& nl = b.netlist();
  SragPorts ports;
  ports.enable = enable;

  // PassCnt + pass derivation (only needed with >= 2 registers).
  const std::size_t n_regs = cfg.num_registers();
  if (n_regs == 1 || cfg.pass_count == 1) {
    ports.pass = netlist::kConst1;
  } else {
    synth::CounterSpec spec;
    spec.bits = synth::bits_for(cfg.pass_count);
    spec.modulo = cfg.pass_count;
    const auto pass_cnt = synth::build_counter(b, spec, ports.enable, reset);
    ports.pass = pass_cnt.wrap;
    ports.pass_q = pass_cnt.q;
  }

  // Shift registers. Flip-flop nets are created up front so register heads
  // can reference the previous register's tail.
  std::vector<std::vector<NetId>> q(n_regs);
  for (std::size_t i = 0; i < n_regs; ++i) {
    q[i].resize(cfg.registers[i].size());
    for (auto& net : q[i]) net = nl.new_net();
  }
  for (std::size_t i = 0; i < n_regs; ++i) {
    const std::size_t len = q[i].size();
    for (std::size_t j = 0; j < len; ++j) {
      NetId d;
      if (j > 0) {
        d = q[i][j - 1];
      } else {
        const NetId own_tail = q[i][len - 1];
        const NetId prev_tail = q[(i + n_regs - 1) % n_regs].back();
        d = b.mux2(ports.pass, own_tail, prev_tail);  // pass=1 -> take previous
      }
      const CellType ff = (i == 0 && j == 0) ? CellType::DffES : CellType::DffER;
      nl.add_cell(ff, {d, ports.enable, reset}, q[i][j]);
    }
  }

  // Select-line mapping; unvisited lines tie to 0.
  ports.select.assign(cfg.num_select_lines, kConst0);
  for (std::size_t i = 0; i < n_regs; ++i)
    for (std::size_t j = 0; j < q[i].size(); ++j)
      ports.select[cfg.registers[i][j]] = q[i][j];

  // Cycle-completion event: the enabled shift on which the token leaves the
  // tail of the last register for registers[0][0] (pass asserted there).
  ports.cycle_complete = b.and2(ports.enable, b.and2(ports.pass, q[n_regs - 1].back()));
  ports.token = std::move(q);
  return ports;
}
}  // namespace

Netlist elaborate_srag(const SragConfig& cfg) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  const SragPorts ports = build_srag(b, cfg, next, reset);
  b.output_bus("sel", ports.select);
  return nl;
}

Netlist elaborate_srag_2d(const SragConfig& row_cfg, const SragConfig& col_cfg,
                          SragPorts* row_ports, SragPorts* col_ports) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  SragPorts row = build_srag(b, row_cfg, next, reset);
  SragPorts col = build_srag(b, col_cfg, next, reset);
  b.output_bus("rs", row.select);
  b.output_bus("cs", col.select);
  if (row_ports) *row_ports = std::move(row);
  if (col_ports) *col_ports = std::move(col);
  return nl;
}

}  // namespace addm::core
