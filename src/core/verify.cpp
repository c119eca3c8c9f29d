#include "core/verify.hpp"

#include <sstream>

#include "sim/word_simulator.hpp"

namespace addm::core {

namespace {

using sim::WordSimulator;

/// Nets of "<prefix>[0..width)"; empty if the bus does not exist.
std::vector<netlist::NetId> output_bus_nets(const netlist::Netlist& nl,
                                            const std::string& prefix) {
  std::vector<netlist::NetId> nets;
  for (int i = 0;; ++i) {
    const auto net = nl.find_output(prefix + "[" + std::to_string(i) + "]");
    if (!net) break;
    nets.push_back(*net);
  }
  return nets;
}

/// All 64 lanes carry the same stimulus, so a correct one-hot bus shows the
/// expected line at kAllLanes and every other line at 0.  Anything else is
/// either a functional divergence or a lane-coherence violation.
std::optional<std::string> check_one_hot(const WordSimulator& ws,
                                         const std::vector<netlist::NetId>& nets,
                                         const std::string& bus, std::size_t expected,
                                         std::size_t cycle) {
  if (expected >= nets.size()) {
    std::ostringstream os;
    os << "cycle " << cycle << ": expected " << bus << "[" << expected
       << "] but the bus has only " << nets.size() << " lines";
    return os.str();
  }
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::uint64_t want = i == expected ? WordSimulator::kAllLanes : 0;
    const std::uint64_t got = ws.word(nets[i]);
    if (got == want) continue;
    std::ostringstream os;
    os << "cycle " << cycle << ": " << bus << "[" << i << "] lanes 0x" << std::hex
       << got << std::dec << ", expected " << (want ? "all ones" : "all zeros")
       << " (hot line should be " << expected << ")";
    return os.str();
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> verify_reference_against_trace(
    const ReferenceCircuit& rc, const seq::AddressTrace& trace) {
  WordSimulator ws(rc.netlist);

  const auto row_nets = output_bus_nets(rc.netlist, rc.row_bus);
  if (row_nets.empty()) return "reference netlist has no output bus " + rc.row_bus;
  std::vector<netlist::NetId> col_nets;
  if (!rc.col_bus.empty()) {
    col_nets = output_bus_nets(rc.netlist, rc.col_bus);
    if (col_nets.empty()) return "reference netlist has no output bus " + rc.col_bus;
  }

  // One reset cycle with the replay inputs deasserted, then hold `drive`.
  ws.set_all("reset", true);
  for (const auto& [name, value] : rc.drive) {
    (void)value;
    ws.set_all(name, false);
  }
  ws.step();
  ws.set_all("reset", false);
  for (const auto& [name, value] : rc.drive) ws.set_all(name, value);

  for (std::size_t k = 0; k < trace.length(); ++k) {
    const std::uint32_t a = trace.linear()[k];
    if (col_nets.empty()) {
      if (auto err = check_one_hot(ws, row_nets, rc.row_bus, a, k)) return err;
    } else {
      if (auto err = check_one_hot(ws, row_nets, rc.row_bus, trace.row_of(a), k))
        return err;
      if (auto err = check_one_hot(ws, col_nets, rc.col_bus, trace.col_of(a), k))
        return err;
    }
    ws.step();
  }
  return std::nullopt;
}

std::string verify_verdict(const ReferenceCircuit& rc, const seq::AddressTrace& trace) {
  if (auto err = verify_reference_against_trace(rc, trace))
    return " [verify FAILED: " + *err + "]";
  return " [verified: " + std::to_string(trace.length()) + " cycles x " +
         std::to_string(WordSimulator::kLanes) + " lanes]";
}

}  // namespace addm::core
