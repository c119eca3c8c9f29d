#include "core/multicounter.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "seq/analysis.hpp"
#include "synth/counter.hpp"

namespace addm::core {

using netlist::CellType;
using netlist::kConst0;
using netlist::kConst1;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

std::size_t MultiSragConfig::num_flipflops() const {
  std::size_t n = 0;
  for (const auto& r : registers) n += r.size();
  return n;
}

void MultiSragConfig::check() const {
  if (registers.empty()) throw std::invalid_argument("MultiSragConfig: no registers");
  if (pass_counts.size() != registers.size())
    throw std::invalid_argument("MultiSragConfig: pass_counts size mismatch");
  if (div_count < 1) throw std::invalid_argument("MultiSragConfig: div_count < 1");
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t i = 0; i < registers.size(); ++i) {
    if (registers[i].empty()) throw std::invalid_argument("MultiSragConfig: empty register");
    if (pass_counts[i] < 1 || pass_counts[i] % registers[i].size() != 0)
      throw std::invalid_argument(
          "MultiSragConfig: pass count must be a positive multiple of register length");
    for (std::uint32_t line : registers[i]) {
      if (line >= num_select_lines)
        throw std::invalid_argument("MultiSragConfig: select line out of range");
      if (!seen.insert(line).second)
        throw std::invalid_argument("MultiSragConfig: select line mapped twice");
    }
  }
}

MultiSragModel::MultiSragModel(MultiSragConfig config) : config_(std::move(config)) {
  config_.check();
}

void MultiSragModel::pulse() {
  if (++div_ < config_.div_count) return;
  div_ = 0;

  // The register-local pass counter counts enabled shifts since the token
  // entered this register.
  const bool pass = (pass_ == config_.pass_counts[reg_] - 1);
  pass_ = (pass_ + 1) % config_.pass_counts[reg_];

  const std::size_t len = config_.registers[reg_].size();
  if (pos_ + 1 < len) {
    ++pos_;
  } else {
    pos_ = 0;
    if (pass) {
      reg_ = (reg_ + 1) % config_.num_registers();
      pass_ = 0;  // the next register's counter starts fresh
    }
  }
}

void MultiSragModel::reset() {
  reg_ = pos_ = 0;
  div_ = pass_ = 0;
}

std::vector<std::uint32_t> MultiSragModel::generate(std::size_t n) {
  reset();
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(current());
    pulse();
  }
  return out;
}

MultiMapResult map_sequence_multicounter(std::span<const std::uint32_t> seq,
                                         std::uint32_t num_select_lines) {
  MultiMapResult res;
  // Reuse the Section-5 front end: D/R/U/O/Z and the initial grouping are
  // identical; the uniform-PassCnt requirement (and the single-counter
  // mapper's group-splitting repair) do not apply here.
  SequenceAnalysis base = analyze_sequence(seq);
  res.params = base.params;
  res.detail = base.detail;
  if (base.failure) {
    res.failure = base.failure;
    return res;
  }

  MultiSragConfig cfg;
  cfg.registers = res.params.S;
  cfg.div_count = res.params.dC;
  cfg.pass_counts = res.params.P;
  std::uint32_t max_addr = 0;
  for (std::uint32_t a : seq) max_addr = std::max(max_addr, a);
  cfg.num_select_lines = num_select_lines == 0 ? max_addr + 1 : num_select_lines;

  MultiSragModel model(cfg);
  const auto replay = model.generate(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (replay[i] != seq[i]) {
      res.failure = MapFailure::GroupingFailed;
      res.detail = "multi-counter replay diverges at access " + std::to_string(i) +
                   ": expected " + std::to_string(seq[i]) + ", got " +
                   std::to_string(replay[i]);
      return res;
    }
  }
  res.failure.reset();
  res.config = std::move(cfg);
  return res;
}

MultiSragPorts build_multi_srag(NetlistBuilder& b, const MultiSragConfig& cfg, NetId next,
                                NetId reset) {
  cfg.check();
  auto& nl = b.netlist();
  MultiSragPorts ports;

  if (cfg.div_count == 1) {
    ports.enable = next;
  } else {
    synth::CounterSpec spec;
    spec.bits = synth::bits_for(cfg.div_count);
    spec.modulo = cfg.div_count;
    const auto div = synth::build_counter(b, spec, next, reset);
    ports.enable = b.and2(next, div.wrap);
    ports.div_q = div.q;
  }

  const std::size_t n_regs = cfg.num_registers();
  std::vector<std::vector<NetId>> q(n_regs);
  for (std::size_t i = 0; i < n_regs; ++i) {
    q[i].resize(cfg.registers[i].size());
    for (auto& net : q[i]) net = nl.new_net();
  }

  // Per-register pass signal. A register whose pass count equals its length
  // passes the token on every traversal and needs no counter at all — the
  // "no counters necessary" simplification the paper mentions.
  std::vector<NetId> pass(n_regs, kConst1);
  ports.pass_q.resize(n_regs);
  for (std::size_t i = 0; i < n_regs; ++i) {
    if (n_regs == 1) break;  // token never leaves a single register
    if (cfg.pass_counts[i] == cfg.registers[i].size()) continue;  // pass == 1
    const NetId token_here = b.or_tree(q[i]);
    synth::CounterSpec spec;
    spec.bits = synth::bits_for(cfg.pass_counts[i]);
    spec.modulo = cfg.pass_counts[i];
    const auto cnt = synth::build_counter(b, spec, b.and2(ports.enable, token_here), reset);
    pass[i] = cnt.wrap;
    ports.pass_q[i] = cnt.q;
  }

  for (std::size_t i = 0; i < n_regs; ++i) {
    const std::size_t len = q[i].size();
    for (std::size_t j = 0; j < len; ++j) {
      NetId d;
      if (j > 0) {
        d = q[i][j - 1];
      } else {
        // Unlike the single-counter SRAG (one global `pass` steering every
        // boundary mux), each boundary is steered by its own upstream pass:
        // the head takes the previous register's tail when THAT register
        // passes, recirculates its own tail otherwise — and must drop it when
        // its own pass fires, or the token would be duplicated.
        const std::size_t prev = (i + n_regs - 1) % n_regs;
        const NetId from_prev = b.and2(pass[prev], q[prev].back());
        const NetId recirc = b.and2(b.inv(pass[i]), q[i][len - 1]);
        d = b.or2(from_prev, recirc);
      }
      const CellType ff = (i == 0 && j == 0) ? CellType::DffES : CellType::DffER;
      nl.add_cell(ff, {d, ports.enable, reset}, q[i][j]);
    }
  }

  ports.select.assign(cfg.num_select_lines, kConst0);
  for (std::size_t i = 0; i < n_regs; ++i)
    for (std::size_t j = 0; j < q[i].size(); ++j)
      ports.select[cfg.registers[i][j]] = q[i][j];
  ports.token = std::move(q);
  return ports;
}

Netlist elaborate_multi_srag(const MultiSragConfig& cfg) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  const MultiSragPorts ports = build_multi_srag(b, cfg, next, reset);
  b.output_bus("sel", ports.select);
  return nl;
}

}  // namespace addm::core
