// Tests for netlist text serialization: exact round trips (including drive
// strengths and net-id preservation), simulation equivalence after a round
// trip, and parser diagnostics.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/srag_elab.hpp"
#include "core/srag_mapper.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist_io.hpp"
#include "seq/workloads.hpp"
#include "sim/simulator.hpp"

namespace addm::netlist {
namespace {

Netlist small_design() {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId r = b.input("rst");
  const NetId x = b.xor2(a, c);
  const NetId q = b.dff_r(x, r);
  b.output("y", b.mux2(a, x, q));
  nl.set_cell_drive(0, 4);  // exercise drive round-trip
  return nl;
}

TEST(NetlistIo, RoundTripPreservesStructure) {
  const Netlist original = small_design();
  const std::string text = write_netlist_string(original);
  const Netlist parsed = read_netlist_string(text);

  EXPECT_EQ(parsed.num_nets(), original.num_nets());
  ASSERT_EQ(parsed.cells().size(), original.cells().size());
  for (std::size_t i = 0; i < original.cells().size(); ++i) {
    EXPECT_EQ(parsed.cell(i).type, original.cell(i).type) << i;
    EXPECT_EQ(parsed.cell(i).inputs, original.cell(i).inputs) << i;
    EXPECT_EQ(parsed.cell(i).output, original.cell(i).output) << i;
    EXPECT_EQ(parsed.cell(i).drive, original.cell(i).drive) << i;
  }
  EXPECT_EQ(parsed.find_input("a"), original.find_input("a"));
  EXPECT_EQ(parsed.find_output("y"), original.find_output("y"));
  EXPECT_TRUE(parsed.validate().empty());
  // Serialization is canonical: a second trip is byte-identical.
  EXPECT_EQ(write_netlist_string(parsed), text);
}

TEST(NetlistIo, RoundTripSimulatesIdentically) {
  const Netlist original = small_design();
  const Netlist parsed = read_netlist_string(write_netlist_string(original));
  sim::Simulator s0(original), s1(parsed);
  for (int v = 0; v < 8; ++v) {
    for (auto* s : {&s0, &s1}) {
      s->set("a", v & 1);
      s->set("c", v & 2);
      s->set("rst", v & 4);
      s->step();
    }
    EXPECT_EQ(s0.get("y"), s1.get("y")) << v;
  }
}

TEST(NetlistIo, RoundTripElaboratedSrag) {
  const auto rm = core::map_sequence(seq::incremental({8, 8}).rows(), 8);
  ASSERT_TRUE(rm.ok());
  const Netlist original = core::elaborate_srag(*rm.config);
  const Netlist parsed = read_netlist_string(write_netlist_string(original));
  EXPECT_EQ(parsed.cells().size(), original.cells().size());
  EXPECT_TRUE(parsed.validate().empty());
}

TEST(NetlistIo, ParserDiagnostics) {
  EXPECT_THROW(read_netlist_string(""), std::invalid_argument);
  EXPECT_THROW(read_netlist_string("netlist v2\n"), std::invalid_argument);
  EXPECT_THROW(read_netlist_string("nets 4\n"), std::invalid_argument);  // no header
  EXPECT_THROW(read_netlist_string("netlist v1\ninput 2 a\n"),
               std::invalid_argument);  // nets missing
  EXPECT_THROW(read_netlist_string("netlist v1\nnets 4\ncell BOGUS -> 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(read_netlist_string("netlist v1\nnets 4\ncell INV -> 9 2\n"),
               std::invalid_argument);  // net out of range
  EXPECT_THROW(read_netlist_string("netlist v1\nnets 4\ncell INV -> 2 3 3\n"),
               std::invalid_argument);  // arity
  try {
    read_netlist_string("netlist v1\nnets 4\nwhatever\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  // More inputs than any cell holds: a file is outside input, so the
  // reader names the line instead of overrunning the cell.
  for (const char* inputs : {"2 2 2 2", "2 3 2 3 2 3 2 3"}) {
    try {
      read_netlist_string("netlist v1\nnets 4\ninput 2 a\ncell DFFER -> 3 " +
                          std::string(inputs) + "\n");
      FAIL() << inputs;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    }
  }
}

TEST(NetlistIo, CommentsAndBlanksIgnored) {
  const Netlist parsed = read_netlist_string(
      "# a comment\n"
      "netlist v1\n"
      "nets 4   # constants + two more\n"
      "\n"
      "input 2 a\n"
      "cell INV -> 3 2\n"
      "output 3 y\n");
  EXPECT_EQ(parsed.cells().size(), 1u);
  EXPECT_TRUE(parsed.validate().empty());
}

TEST(NetlistIo, BindInputValidation) {
  Netlist nl;
  EXPECT_THROW(nl.bind_input("x", kConst0), std::invalid_argument);
  const NetId n = nl.new_net();
  nl.bind_input("x", n);
  EXPECT_THROW(nl.bind_input("again", n), std::invalid_argument);  // already driven
}

}  // namespace
}  // namespace addm::netlist
