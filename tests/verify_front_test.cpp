// Tests for the --verify-front exploration stage (core/verify.hpp): Pareto
// points get deterministic verification verdicts appended to their notes,
// non-front points are untouched, failures are reported (not thrown), and
// the options fingerprint stays pinned for the default options.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "core/fingerprint.hpp"
#include "core/verify.hpp"
#include "netlist/builder.hpp"
#include "seq/workloads.hpp"
#include "sim/simulator.hpp"

namespace addm::core {
namespace {

TEST(VerifyFront, AnnotatesOnlyParetoPoints) {
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  ExploreOptions off;
  ExploreOptions on;
  on.verify_front = true;

  const auto base = explore_generators(trace, off);
  const auto verified = explore_generators(trace, on);
  ASSERT_EQ(base.size(), verified.size());

  const auto front = pareto_front(base);
  ASSERT_FALSE(front.empty());
  const std::set<std::size_t> on_front(front.begin(), front.end());
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (on_front.count(i)) {
      EXPECT_EQ(verified[i].note.rfind(base[i].note, 0), 0u)
          << verified[i].architecture << ": verdict must append, not rewrite";
      EXPECT_NE(verified[i].note.find("[verified:"), std::string::npos)
          << verified[i].architecture << ": " << verified[i].note;
      EXPECT_EQ(verified[i].note.find("FAILED"), std::string::npos)
          << verified[i].architecture << ": " << verified[i].note;
    } else {
      EXPECT_EQ(verified[i].note, base[i].note) << verified[i].architecture;
    }
  }
}

TEST(VerifyFront, EveryRegistryEntryHasAReference) {
  for (const GeneratorEntry& e : generator_registry())
    EXPECT_TRUE(static_cast<bool>(e.reference)) << e.name;
}

TEST(VerifyFront, ReportsMismatchWithCycleDiagnostics) {
  // A "generator" whose select lines are stuck at line 0: correct for the
  // first access of a raster trace, wrong as soon as the address moves.
  ReferenceCircuit rc;
  netlist::NetlistBuilder b(rc.netlist);
  b.input("reset");
  b.input("next");
  const std::vector<netlist::NetId> stuck = {netlist::kConst1, netlist::kConst0,
                                             netlist::kConst0, netlist::kConst0};
  b.output_bus("rs", stuck);
  b.output_bus("cs", stuck);

  const auto trace = seq::block_raster({4, 4}, 2, 2);
  const auto err = verify_reference_against_trace(rc, trace);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos) << *err;

  // A missing bus is its own diagnostic, not a crash.
  ReferenceCircuit no_bus = rc;
  no_bus.row_bus = "zz";
  const auto err2 = verify_reference_against_trace(no_bus, trace);
  ASSERT_TRUE(err2.has_value());
  EXPECT_NE(err2->find("no output bus"), std::string::npos) << *err2;
}

/// `nl` rebuilt cell by cell, with cell `target` turned into a `type` gate.
netlist::Netlist with_cell_type(const netlist::Netlist& nl, std::size_t target,
                                netlist::CellType type) {
  netlist::Netlist m;
  while (m.num_nets() < nl.num_nets()) m.new_net();
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    m.bind_input(nl.input_name(i), nl.inputs()[i]);
  for (std::size_t i = 0; i < nl.cells().size(); ++i) {
    const netlist::Cell& c = nl.cell(i);
    m.add_cell(i == target ? type : c.type, c.inputs, c.output);
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    m.add_output(nl.output_name(i), nl.outputs()[i]);
  return m;
}

/// The gate of the same arity that computes the complementary or dual
/// function; nullopt for cells that are not gates.
std::optional<netlist::CellType> swapped_gate(netlist::CellType t) {
  using netlist::CellType;
  switch (t) {
    case CellType::Inv:   return CellType::Buf;
    case CellType::Buf:   return CellType::Inv;
    case CellType::Nand2: return CellType::Nor2;
    case CellType::Nor2:  return CellType::Nand2;
    case CellType::And2:  return CellType::Or2;
    case CellType::Or2:   return CellType::And2;
    case CellType::Xor2:  return CellType::Xnor2;
    case CellType::Xnor2: return CellType::Xor2;
    default:              return std::nullopt;
  }
}

/// First cycle at which a scalar replay of `rc` under the verify protocol
/// (one reset cycle, then one cycle per access with `drive` held) shows a
/// wrong hot line; nullopt when every cycle matches the trace.
std::optional<std::size_t> scalar_first_wrong_cycle(const ReferenceCircuit& rc,
                                                    const seq::AddressTrace& trace) {
  sim::Simulator s(rc.netlist);
  s.set("reset", true);
  for (const auto& [name, value] : rc.drive) s.set(name, false);
  s.step();
  s.set("reset", false);
  for (const auto& [name, value] : rc.drive) s.set(name, value);
  for (std::size_t k = 0; k < trace.length(); ++k) {
    const std::uint32_t a = trace.linear()[k];
    const bool ok = rc.col_bus.empty()
                        ? s.hot_index(rc.row_bus) == a
                        : s.hot_index(rc.row_bus) == trace.row_of(a) &&
                              s.hot_index(rc.col_bus) == trace.col_of(a);
    if (!ok) return k;
    s.step();
  }
  return std::nullopt;
}

TEST(VerifyFront, GateMutantsOfRealReferencesFailAtTheScalarCycle) {
  // Every single-gate type swap of two sequential registry references: the
  // word-parallel verify must fail exactly when a scalar replay of the same
  // mutant shows a wrong hot line, and name that replay's first wrong cycle.
  // A stale pre-edge value in the word simulator would move that cycle or
  // hide the failure.
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  for (const char* arch : {"CntAG-flat", "SRAG"}) {
    SCOPED_TRACE(arch);
    const GeneratorEntry* entry = nullptr;
    for (const GeneratorEntry& e : generator_registry())
      if (e.name == arch) entry = &e;
    ASSERT_NE(entry, nullptr);
    const auto rc = entry->reference(trace, {});
    ASSERT_TRUE(rc.has_value());
    ASSERT_EQ(verify_reference_against_trace(*rc, trace), std::nullopt);

    std::size_t exposed = 0, late = 0;
    for (std::size_t i = 0; i < rc->netlist.cells().size(); ++i) {
      const auto swapped = swapped_gate(rc->netlist.cell(i).type);
      if (!swapped) continue;
      SCOPED_TRACE("cell " + std::to_string(i));
      ReferenceCircuit mutant = *rc;
      mutant.netlist = with_cell_type(rc->netlist, i, *swapped);
      ASSERT_TRUE(mutant.netlist.validate().empty());

      const auto wrong = scalar_first_wrong_cycle(mutant, trace);
      const auto err = verify_reference_against_trace(mutant, trace);
      if (!wrong) {
        EXPECT_EQ(err, std::nullopt) << *err;
        continue;
      }
      ++exposed;
      if (*wrong >= 2) ++late;
      ASSERT_TRUE(err.has_value()) << "scalar replay fails at cycle " << *wrong;
      EXPECT_EQ(err->rfind("cycle " + std::to_string(*wrong) + ":", 0), 0u) << *err;
    }
    EXPECT_GT(exposed, 0u);
    EXPECT_GT(late, 0u);
  }
}

TEST(VerifyFront, SweptAndBufferedCandidatesStillReplayTheTrace) {
  // measure_netlist sweeps dead cells and inserts buffer trees in place,
  // and --verify-front replays the build from before both.  So neither step
  // may change what a candidate computes: every feasible build of every
  // registry entry, measured at the tightest and at the default fan-out,
  // must still replay its trace.
  const auto traces = seq::scaled_suite({8, 8}, 3);
  for (int fanout : {2, 12}) {
    SCOPED_TRACE("max_fanout " + std::to_string(fanout));
    ExploreOptions opt;
    opt.max_fanout = fanout;
    std::size_t measured = 0, buffers = 0;
    for (const seq::AddressTrace& trace : traces) {
      for (const GeneratorEntry& e : generator_registry()) {
        if (!e.applicable(trace, opt)) continue;
        CandidateBuild b = e.build(trace, opt);
        if (!b.circuit) continue;
        buffers += measure_netlist(b.circuit->netlist, opt.library, fanout).buffers_added;
        EXPECT_EQ(verify_reference_against_trace(*b.circuit, trace), std::nullopt)
            << e.name << " on " << trace.name();
        ++measured;
      }
    }
    EXPECT_GT(measured, traces.size());
    EXPECT_GT(buffers, 0u);
  }
}

TEST(VerifyFront, FingerprintPinnedWhenDisabledDistinctWhenEnabled) {
  const ExploreOptions def;
  ExploreOptions off;
  off.verify_front = false;
  ExploreOptions on;
  on.verify_front = true;
  EXPECT_EQ(options_fingerprint(def), options_fingerprint(off));
  EXPECT_NE(options_fingerprint(def), options_fingerprint(on));
}

TEST(VerifyFront, BatchReportDeterministicAcrossThreads) {
  const auto traces = seq::scaled_suite({8, 8}, 1);

  BatchOptions serial;
  serial.threads = 1;
  serial.explore.verify_front = true;
  BatchOptions threaded;
  threaded.threads = 4;
  threaded.explore.arch_threads = 2;
  threaded.explore.verify_front = true;

  BatchExplorer a(serial);
  BatchExplorer b(threaded);
  const std::string ra = batch_report_csv(a.run(traces));
  const std::string rb = batch_report_csv(b.run(traces));
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra.find("[verified:"), std::string::npos);
  EXPECT_EQ(ra.find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace addm::core
