// Tests for the --verify-front exploration stage (core/verify.hpp): Pareto
// points get deterministic verification verdicts appended to their notes,
// non-front points are untouched, failures are reported (not thrown) at the
// access a scalar replay from reset first gets wrong, whatever the replay
// recipe says, every registry recipe matches a scalar replay, and the
// options fingerprint stays pinned for the default options.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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

/// The cell of the same arity that computes the complementary or dual
/// function — for a flip-flop, the one with the other reset value; nullopt
/// for the other flip-flops.
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
    case CellType::DffER: return CellType::DffES;
    case CellType::DffES: return CellType::DffER;
    default:              return std::nullopt;
  }
}

/// `s` after the verify protocol's reset cycle, at access 0: "reset" and
/// the deasserted `drive` inputs for one cycle, then `drive` applied.
void start_scalar_replay(sim::Simulator& s, const ReferenceCircuit& rc) {
  s.set("reset", true);
  for (const auto& [name, value] : rc.drive) s.set(name, false);
  s.step();
  s.set("reset", false);
  for (const auto& [name, value] : rc.drive) s.set(name, value);
}

/// First cycle at which a scalar replay of `rc` under the verify protocol
/// (one reset cycle, then one cycle per access with `drive` held) shows a
/// wrong hot line; nullopt when every cycle matches the trace.
std::optional<std::size_t> scalar_first_wrong_cycle(const ReferenceCircuit& rc,
                                                    const seq::AddressTrace& trace) {
  sim::Simulator s(rc.netlist);
  start_scalar_replay(s, rc);
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

const GeneratorEntry& registry_entry(const std::string& name) {
  for (const GeneratorEntry& e : generator_registry())
    if (e.name == name) return e;
  throw std::invalid_argument("no registry entry " + name);
}

using StateAt = std::function<std::vector<std::uint64_t>(std::span<const std::size_t>)>;

/// A recipe that answers each access with the state of the next one (the
/// last access with its own): wrong in every lane whose state moves, so
/// the segment chain breaks after lane 0.
StateAt shifted_by_one(StateAt state_at, std::size_t length) {
  return [state_at = std::move(state_at), length](std::span<const std::size_t> accesses) {
    std::vector<std::size_t> next(accesses.begin(), accesses.end());
    for (std::size_t& a : next) a = std::min(a + 1, length - 1);
    return state_at(next);
  };
}

TEST(VerifyFront, RecipesMatchAScalarReplayAtEveryAccess) {
  // Every feasible build of every registry entry: `state` names each
  // flip-flop exactly once, and state_at gives the flip-flop values a
  // scalar replay from reset shows at every access.
  std::size_t builds = 0;
  for (const seq::AddressTrace& trace : seq::scaled_suite({8, 8}, 4)) {
    for (const GeneratorEntry& e : generator_registry()) {
      if (!e.applicable(trace, {})) continue;
      const auto rc = e.reference(trace, {});
      if (!rc) continue;
      SCOPED_TRACE(e.name + " on " + trace.name());
      ++builds;
      std::multiset<netlist::NetId> ffs;
      for (const netlist::Cell& c : rc->netlist.cells())
        if (netlist::is_sequential(c.type)) ffs.insert(c.output);
      ASSERT_EQ(std::multiset<netlist::NetId>(rc->state.begin(), rc->state.end()), ffs);
      ASSERT_TRUE(static_cast<bool>(rc->state_at));

      sim::Simulator s(rc->netlist);
      start_scalar_replay(s, *rc);
      for (std::size_t from = 0; from < trace.length(); from += 64) {
        std::vector<std::size_t> accesses;
        std::vector<std::uint64_t> want(rc->state.size(), 0);
        for (std::size_t k = from; k < std::min(from + 64, trace.length()); ++k) {
          for (std::size_t f = 0; f < rc->state.size(); ++f)
            if (s.value(rc->state[f])) want[f] |= std::uint64_t{1} << (k - from);
          accesses.push_back(k);
          s.step();
        }
        ASSERT_EQ(rc->state_at(accesses), want) << "accesses from " << from;
      }
    }
  }
  EXPECT_EQ(builds, 273u);
}

TEST(VerifyFront, GateMutantsOfRealReferencesFailAtTheScalarCycle) {
  // Every single-gate type swap and every DffER/DffES swap (a wrong reset
  // value) of every registry reference: the word-parallel verify must fail
  // exactly when a scalar replay of the same mutant shows a wrong hot line,
  // and name that replay's first wrong cycle.  Each mutant keeps the real
  // circuit's recipe, so its lanes start from states the mutant may never
  // reach, and is verified once more with a recipe shifted by one access.
  // A stale pre-edge value in the word simulator, or a lane trusted past a
  // broken chain, would move that cycle or hide the failure.  Every entry
  // but the SFM (whose mutants all go wrong at access 0) must also have a
  // mutant that first goes wrong at access 2 or later, in a poked lane.
  const auto raster = seq::block_raster({8, 8}, 4, 4);
  const auto fifo = seq::incremental({8, 8});  // the SFM replays FIFOs only
  for (const GeneratorEntry& e : generator_registry()) {
    SCOPED_TRACE(e.name);
    const seq::AddressTrace& trace = e.name == "SFM" ? fifo : raster;
    const auto rc = e.reference(trace, {});
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
      ReferenceCircuit shifted = mutant;
      shifted.state_at = shifted_by_one(rc->state_at, trace.length());

      const auto wrong = scalar_first_wrong_cycle(mutant, trace);
      for (const ReferenceCircuit* m : {&mutant, &shifted}) {
        const auto err = verify_reference_against_trace(*m, trace);
        if (!wrong) {
          EXPECT_EQ(err, std::nullopt) << *err;
          continue;
        }
        ASSERT_TRUE(err.has_value()) << "scalar replay fails at cycle " << *wrong;
        EXPECT_EQ(err->rfind("cycle " + std::to_string(*wrong) + ":", 0), 0u) << *err;
      }
      if (!wrong) continue;
      ++exposed;
      if (*wrong >= 2) ++late;
    }
    EXPECT_GT(exposed, 0u);
    if (e.name != "SFM") {
      EXPECT_GT(late, 0u);
    }
  }
}

TEST(VerifyFront, SegmentBoundariesVerify) {
  // One segment (1 access), one access per lane (63, 64), two or three
  // per lane with a shorter last segment for 65 and 127, and a prime length
  // above 4,096: every registry build replays.  (The CntAG counter needs
  // two states, so the CntAG entries report a single access infeasible,
  // and the FSMs stop at max_fsm_states.)
  const seq::ArrayGeometry shapes[] = {{1, 1},  {9, 7},  {8, 8},    {13, 5},
                                       {127, 1}, {43, 3}, {4099, 1}};
  for (const seq::ArrayGeometry& g : shapes) {
    const auto trace = seq::incremental(g);
    SCOPED_TRACE(std::to_string(trace.length()) + " accesses");
    for (const GeneratorEntry& e : generator_registry()) {
      if (trace.length() == 1 && e.name.rfind("CntAG", 0) == 0) {
        BuildContext ctx;
        const CandidateBuild b = e.build(trace, {}, ctx);
        EXPECT_FALSE(b.circuit.has_value()) << e.name;
        EXPECT_FALSE(b.note.empty()) << e.name;
        continue;
      }
      const auto rc = e.reference(trace, {});
      if (!rc) {
        EXPECT_GT(trace.length(), ExploreOptions{}.max_fsm_states) << e.name;
        continue;
      }
      EXPECT_EQ(verify_reference_against_trace(*rc, trace), std::nullopt) << e.name;
    }
  }
}

TEST(VerifyFront, FailureInTheLastSegmentIsNamedAtItsAccess) {
  // Row 63 is first addressed by the last of 4,099 accesses, which the last
  // of 64 segments checks (accesses 4,095..4,098).  With rs[63] stuck at 0
  // a replay from reset first goes wrong there.
  std::vector<std::uint32_t> linear(4099);
  for (std::size_t k = 0; k + 1 < linear.size(); ++k)
    linear[k] = static_cast<std::uint32_t>(k % 4000);
  linear.back() = 4095;
  const seq::AddressTrace trace({64, 64}, linear, "late-row");
  const auto rc = registry_entry("CntAG-flat").reference(trace, {});
  ASSERT_TRUE(rc.has_value());
  ASSERT_EQ(verify_reference_against_trace(*rc, trace), std::nullopt);

  ReferenceCircuit stuck = *rc;
  for (std::size_t i = 0; i < stuck.netlist.outputs().size(); ++i)
    if (stuck.netlist.output_name(i) == "rs[63]")
      stuck.netlist.set_output_net(i, netlist::kConst0);
  ASSERT_EQ(scalar_first_wrong_cycle(stuck, trace), std::optional<std::size_t>(4098));
  ReferenceCircuit shifted = stuck;
  shifted.state_at = shifted_by_one(rc->state_at, trace.length());
  for (const ReferenceCircuit* m : {&stuck, &shifted}) {
    const auto err = verify_reference_against_trace(*m, trace);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->rfind("cycle 4098: rs[63] is 0", 0), 0u) << *err;
  }
}

TEST(VerifyFront, RecipesThatMissOrRepeatAFlipFlopAreIgnored) {
  // A recipe that leaves a flip-flop out cannot vouch for the lanes it
  // pokes.  Here the one left out is the last column token flip-flop, so a
  // lane poked when the token sits there would start without a token and
  // fail.  Such circuits replay as one segment from reset, and verify.
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  const auto rc = registry_entry("SRAG").reference(trace, {});
  ASSERT_TRUE(rc.has_value());
  ReferenceCircuit partial = *rc;
  partial.state.pop_back();
  partial.state_at = [state_at = rc->state_at](std::span<const std::size_t> accesses) {
    std::vector<std::uint64_t> words = state_at(accesses);
    words.pop_back();
    return words;
  };
  ReferenceCircuit repeated = *rc;
  repeated.state.back() = repeated.state.front();
  for (const ReferenceCircuit* m : {&partial, &repeated})
    EXPECT_EQ(verify_reference_against_trace(*m, trace), std::nullopt);
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
      BuildContext ctx;
      for (const GeneratorEntry& e : generator_registry()) {
        if (!e.applicable(trace, opt)) continue;
        CandidateBuild b = e.build(trace, opt, ctx);
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
