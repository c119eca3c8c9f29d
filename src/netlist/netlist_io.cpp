#include "netlist/netlist_io.hpp"

#include <sstream>
#include <stdexcept>

namespace addm::netlist {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("netlist parse error at line " + std::to_string(line) +
                              ": " + what);
}

CellType type_from_name(const std::string& name, std::size_t line) {
  for (int t = 0; t < kNumCellTypes; ++t) {
    const auto ct = static_cast<CellType>(t);
    if (cell_name(ct) == name) return ct;
  }
  fail(line, "unknown cell type '" + name + "'");
}

}  // namespace

void write_netlist(std::ostream& out, const Netlist& nl) {
  out << "netlist v1\n";
  out << "nets " << nl.num_nets() << "\n";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    out << "input " << nl.inputs()[i] << " " << nl.input_name(i) << "\n";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    out << "output " << nl.outputs()[i] << " " << nl.output_name(i) << "\n";
  for (const Cell& c : nl.cells()) {
    out << "cell " << cell_name(c.type);
    if (c.drive != 1) out << " x" << static_cast<int>(c.drive);
    out << " -> " << c.output;
    for (NetId in : c.inputs) out << " " << in;
    out << "\n";
  }
}

std::string write_netlist_string(const Netlist& nl) {
  std::ostringstream os;
  write_netlist(os, nl);
  return os.str();
}

Netlist read_netlist(std::istream& in) {
  Netlist nl;
  std::size_t declared_nets = 0;
  bool have_header = false, have_nets = false;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;

    if (tok == "netlist") {
      std::string version;
      if (!(ls >> version) || version != "v1") fail(line_no, "unsupported version");
      have_header = true;
      continue;
    }
    if (!have_header) fail(line_no, "missing 'netlist v1' header");

    if (tok == "nets") {
      if (!(ls >> declared_nets) || declared_nets < 2) fail(line_no, "bad net count");
      while (nl.num_nets() < declared_nets) nl.new_net();
      have_nets = true;
      continue;
    }
    if (!have_nets) fail(line_no, "missing 'nets' declaration");

    if (tok == "input" || tok == "output") {
      NetId net;
      std::string name;
      if (!(ls >> net >> name)) fail(line_no, "expected '<net> <name>'");
      if (net >= declared_nets) fail(line_no, "net out of range");
      if (tok == "input") {
        try {
          nl.bind_input(name, net);
        } catch (const std::exception& e) {
          fail(line_no, e.what());
        }
      } else {
        nl.add_output(name, net);
      }
      continue;
    }
    if (tok == "cell") {
      std::string type_name;
      if (!(ls >> type_name)) fail(line_no, "missing cell type");
      const CellType type = type_from_name(type_name, line_no);
      std::string next_tok;
      if (!(ls >> next_tok)) fail(line_no, "truncated cell line");
      int drive = 1;
      if (next_tok.size() == 2 && next_tok[0] == 'x') {
        drive = next_tok[1] - '0';
        if (!(ls >> next_tok)) fail(line_no, "truncated cell line");
      }
      if (next_tok != "->") fail(line_no, "expected '->'");
      NetId out_net;
      if (!(ls >> out_net)) fail(line_no, "missing output net");
      NetId inputs[CellInputs::kCapacity] = {};
      std::size_t num_inputs = 0;
      NetId in_net;
      while (ls >> in_net) {
        if (in_net >= declared_nets) fail(line_no, "input net out of range");
        if (num_inputs == CellInputs::kCapacity)
          fail(line_no, "more than " + std::to_string(CellInputs::kCapacity) + " cell inputs");
        inputs[num_inputs++] = in_net;
      }
      if (out_net >= declared_nets) fail(line_no, "output net out of range");
      try {
        const std::size_t idx =
            nl.add_cell(type, std::span<const NetId>(inputs, num_inputs), out_net);
        if (drive != 1) nl.set_cell_drive(idx, drive);
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
      continue;
    }
    fail(line_no, "unknown directive '" + tok + "'");
  }
  if (!have_header) throw std::invalid_argument("netlist parse error: empty input");
  return nl;
}

Netlist read_netlist_string(const std::string& text) {
  std::istringstream in(text);
  return read_netlist(in);
}

}  // namespace addm::netlist
