// Equivalence and unit tests for the levelized 64-lane word simulator: on
// randomized netlists (every cell type, flip-flop feedback included) each
// lane of sim::WordSimulator must be bit-identical to a scalar
// sim::Simulator driven with that lane's stimulus — every net and toggle
// count after every cycle — both with one stimulus replicated across all
// lanes and with 64 distinct per-lane streams, while inputs are held for
// random run lengths and changed through every input entry point.  Plus
// levelizer structure tests and a generator-netlist replay.  Lanes poked
// through set_state must evolve like scalars started from the poked state.
//
// PRNGs are seeded, so failures reproduce deterministically.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/cntag.hpp"
#include "netlist/builder.hpp"
#include "netlist/levelize.hpp"
#include "seq/workloads.hpp"
#include "sim/simulator.hpp"
#include "sim/word_simulator.hpp"

namespace addm::sim {
namespace {

using netlist::CellType;
using netlist::kConst0;
using netlist::kConst1;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

/// A random netlist over every cell type: primary inputs, pre-created
/// flip-flop state nets (so combinational logic can read state feedback),
/// a layer of random combinational cells (acyclic by construction: cells
/// only read already-created nets), then the flip-flops themselves reading
/// arbitrary nets.  Returns the netlist and its input nets.
struct RandomCircuit {
  Netlist nl;
  std::vector<NetId> inputs;
};

RandomCircuit random_circuit(std::mt19937& rng, std::size_t num_cells) {
  RandomCircuit c;
  NetlistBuilder b(c.nl);
  b.set_sharing(false);

  std::uniform_int_distribution<int> in_dist(3, 6);
  std::uniform_int_distribution<int> ff_dist(2, 5);
  c.inputs = b.input_bus("in", in_dist(rng));

  std::vector<NetId> ffq(static_cast<std::size_t>(ff_dist(rng)));
  for (NetId& q : ffq) q = c.nl.new_net();

  std::vector<NetId> pool = {kConst0, kConst1};
  pool.insert(pool.end(), c.inputs.begin(), c.inputs.end());
  pool.insert(pool.end(), ffq.begin(), ffq.end());

  auto pick = [&]() { return pool[rng() % pool.size()]; };
  auto random_inputs = [&](CellType t) {
    std::vector<NetId> ins(netlist::traits(t).num_inputs);
    for (NetId& n : ins) n = pick();
    return netlist::CellInputs(ins);
  };

  const CellType comb_types[] = {CellType::Inv,  CellType::Buf,  CellType::Nand2,
                                 CellType::Nor2, CellType::And2, CellType::Or2,
                                 CellType::Xor2, CellType::Xnor2, CellType::Mux2};
  for (std::size_t i = 0; i < num_cells; ++i) {
    const CellType t = comb_types[rng() % std::size(comb_types)];
    const NetId out = c.nl.new_net();
    c.nl.add_cell(t, random_inputs(t), out);
    pool.push_back(out);
  }

  const CellType seq_types[] = {CellType::Dff,  CellType::DffR,  CellType::DffS,
                                CellType::DffE, CellType::DffER, CellType::DffES};
  for (std::size_t k = 0; k < ffq.size(); ++k) {
    const CellType t = seq_types[rng() % std::size(seq_types)];
    c.nl.add_cell(t, random_inputs(t), ffq[k]);
  }

  // A few named outputs so bus helpers have something to address.
  for (int i = 0; i < 4; ++i)
    c.nl.add_output("out[" + std::to_string(i) + "]", pick());
  return c;
}

/// Changes the inputs of `w` through one randomly chosen entry point
/// (set_input, set, set_all, set_bus, set_bus_lane) and mirrors the change
/// into the scalar simulators: with one scalar every lane gets its stimulus,
/// with kLanes scalars lanes[l] follows lane l.
void drive_random_change(std::mt19937& rng, const RandomCircuit& c, WordSimulator& w,
                         std::vector<Simulator>& lanes) {
  const bool replicated = lanes.size() == 1;
  auto lane_word = [&]() -> std::uint64_t {
    if (replicated) return rng() & 1 ? WordSimulator::kAllLanes : 0;
    return (std::uint64_t{rng()} << 32) | rng();
  };
  const std::size_t width = c.inputs.size();
  const std::string name = "in[" + std::to_string(rng() % width) + "]";
  const std::uint64_t bus_value = rng() % (std::uint64_t{1} << width);
  switch (rng() % 5) {
    case 0:
      for (NetId in : c.inputs) {
        const std::uint64_t word = lane_word();
        w.set_input(in, word);
        for (std::size_t l = 0; l < lanes.size(); ++l) lanes[l].set_input(in, (word >> l) & 1);
      }
      break;
    case 1: {
      const std::uint64_t word = lane_word();
      w.set(name, word);
      for (std::size_t l = 0; l < lanes.size(); ++l) lanes[l].set(name, (word >> l) & 1);
      break;
    }
    case 2: {
      const bool v = rng() & 1;
      w.set_all(name, v);
      for (Simulator& s : lanes) s.set(name, v);
      break;
    }
    case 3:
      w.set_bus("in", bus_value);
      for (Simulator& s : lanes) s.set_bus("in", bus_value);
      break;
    default: {
      // One lane; with replicated stimulus every lane, one call at a time.
      const std::size_t lane = rng() % WordSimulator::kLanes;
      for (std::size_t l = 0; l < WordSimulator::kLanes; ++l)
        if (replicated || l == lane) w.set_bus_lane("in", l, bus_value);
      lanes[replicated ? 0 : lane].set_bus("in", bus_value);
      break;
    }
  }
}

/// Steps `w` and its scalar mirrors for `cycles` cycles, holding the inputs
/// for random run lengths between random changes, and compares every net
/// and every toggle count after every cycle.
void run_against_scalar(std::mt19937& rng, const RandomCircuit& c, WordSimulator& w,
                        std::vector<Simulator>& lanes, int cycles) {
  const bool replicated = lanes.size() == 1;
  int hold = 0;
  for (int step = 0; step < cycles; ++step) {
    if (hold-- == 0) {
      drive_random_change(rng, c, w, lanes);
      hold = static_cast<int>(rng() % 6);
    }
    w.step();
    for (Simulator& s : lanes) s.step();
    for (NetId n = 0; n < c.nl.num_nets(); ++n) {
      std::uint64_t want = 0, toggles = 0;
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        want |= std::uint64_t{lanes[l].value(n)} << l;
        toggles += lanes[l].toggles()[n];
      }
      if (replicated) {
        want = want ? WordSimulator::kAllLanes : 0;
        toggles *= WordSimulator::kLanes;
      }
      ASSERT_EQ(w.word(n), want) << "net " << n << " step " << step;
      ASSERT_EQ(w.toggles()[n], toggles) << "net " << n << " step " << step;
    }
  }
}

TEST(WordSimulator, MatchesScalarWithReplicatedStimulus) {
  std::mt19937 rng(0x5eedau);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 40 + rng() % 80);
    ASSERT_TRUE(c.nl.validate().empty());

    std::vector<Simulator> scalar(1, Simulator(c.nl));
    WordSimulator w(c.nl);
    scalar[0].enable_toggle_counting();
    w.enable_toggle_counting();
    ASSERT_NO_FATAL_FAILURE(run_against_scalar(rng, c, w, scalar, 48));
  }
}

TEST(WordSimulator, MatchesScalarWithDistinctPerLaneStimuli) {
  std::mt19937 rng(0xface5u);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 30 + rng() % 50);
    ASSERT_TRUE(c.nl.validate().empty());

    std::vector<Simulator> lanes;
    lanes.reserve(WordSimulator::kLanes);
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l) lanes.emplace_back(c.nl);
    WordSimulator w(c.nl);
    for (Simulator& s : lanes) s.enable_toggle_counting();
    w.enable_toggle_counting();
    ASSERT_NO_FATAL_FAILURE(run_against_scalar(rng, c, w, lanes, 24));
  }
}

/// The flip-flop output nets of `nl`, in cell order.
std::vector<NetId> flipflop_nets(const Netlist& nl) {
  std::vector<NetId> ffs;
  for (const netlist::Cell& cell : nl.cells())
    if (netlist::is_sequential(cell.type)) ffs.push_back(cell.output);
  return ffs;
}

TEST(WordSimulator, PokedLanesEvolveLikeScalarsFromThePokedState) {
  // 64 scalar runs with distinct stimuli reach 64 states; set_state copies
  // them into a fresh simulator, rotated across lanes and in two masked
  // calls (even lanes, then odd).  From there every lane must match the
  // scalar whose state it took, driven on with the same stimulus, on every
  // net and toggle count after every cycle.
  std::mt19937 rng(0x90c3du);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 30 + rng() % 50);
    ASSERT_TRUE(c.nl.validate().empty());
    std::vector<Simulator> lanes;
    lanes.reserve(WordSimulator::kLanes);
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l) lanes.emplace_back(c.nl);
    WordSimulator warm(c.nl);
    for (Simulator& s : lanes) s.enable_toggle_counting();
    warm.enable_toggle_counting();
    ASSERT_NO_FATAL_FAILURE(run_against_scalar(rng, c, warm, lanes, 1 + rng() % 16));

    const std::size_t shift = 1 + rng() % (WordSimulator::kLanes - 1);
    std::vector<Simulator> taken;
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l)
      taken.push_back(lanes[(l + shift) % WordSimulator::kLanes]);
    auto word_of = [&](NetId n) {
      std::uint64_t w = 0;
      for (std::size_t l = 0; l < taken.size(); ++l) w |= std::uint64_t{taken[l].value(n)} << l;
      return w;
    };
    const std::vector<NetId> ffs = flipflop_nets(c.nl);
    std::vector<std::uint64_t> state;
    for (NetId q : ffs) state.push_back(word_of(q));

    WordSimulator w(c.nl);
    w.run(3);  // lanes hold some other state before the poke
    const std::uint64_t even = 0x5555555555555555u;
    w.set_state(ffs, state, even);
    w.set_state(ffs, state, ~even);
    for (NetId in : c.inputs) w.set_input(in, word_of(in));
    w.eval();
    for (NetId n = 0; n < c.nl.num_nets(); ++n) ASSERT_EQ(w.word(n), word_of(n)) << "net " << n;

    for (Simulator& s : taken) s.enable_toggle_counting();
    w.enable_toggle_counting();
    ASSERT_NO_FATAL_FAILURE(run_against_scalar(rng, c, w, taken, 24));
  }
}

TEST(WordSimulator, SetStateRejectsNetsThatAreNotFlipFlops) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId d = b.input("d");
  const NetId q = b.dff(d);
  const NetId y = b.inv(q);
  nl.add_output("y", y);
  WordSimulator w(nl);
  const std::uint64_t ones = WordSimulator::kAllLanes;
  EXPECT_THROW(w.set_state(std::vector<NetId>{q, d}, std::vector<std::uint64_t>{ones, ones}),
               std::invalid_argument);  // a primary input
  EXPECT_THROW(w.set_state(std::vector<NetId>{q, y}, std::vector<std::uint64_t>{ones, ones}),
               std::invalid_argument);  // a gate output
  EXPECT_THROW(w.set_state(std::vector<NetId>{q}, std::vector<std::uint64_t>{ones, ones}),
               std::invalid_argument);  // one word too many
  w.eval();
  EXPECT_EQ(w.word(q), 0u);  // a rejected call pokes nothing
  w.set_state(std::vector<NetId>{q}, std::vector<std::uint64_t>{ones}, 0xf0);
  w.eval();
  EXPECT_EQ(w.word(q), 0xf0u);
  EXPECT_EQ(w.word(y), ~std::uint64_t{0xf0});
}

TEST(WordSimulator, ReplaysGeneratorNetlistInEveryLane) {
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  netlist::Netlist nl = core::elaborate_cntag(trace, {});
  WordSimulator w(nl);
  w.set_all("reset", true);
  w.set_all("next", false);
  w.step();
  w.set_all("reset", false);
  w.set_all("next", true);
  for (std::size_t k = 0; k < trace.length() + 3; ++k) {
    const std::uint32_t a = trace.linear()[k % trace.length()];
    for (std::size_t lane : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
      EXPECT_EQ(w.get_bus("ra", lane), trace.row_of(a)) << "access " << k;
      EXPECT_EQ(w.hot_index("rs", lane), trace.row_of(a)) << "access " << k;
      EXPECT_EQ(w.hot_index("cs", lane), trace.col_of(a)) << "access " << k;
    }
    w.step();
  }
}

TEST(WordSimulator, PowerOnResetRestartsTogglesAndCycles) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId q = nl.new_net();
  nl.add_cell(CellType::Dff, {b.inv(q)}, q);
  nl.add_output("q", q);
  WordSimulator w(nl);
  w.enable_toggle_counting();
  w.run(6);
  EXPECT_EQ(w.toggles()[q], 6 * WordSimulator::kLanes);
  w.power_on_reset();
  EXPECT_EQ(w.cycles(), 0u);
  EXPECT_EQ(w.toggles()[q], 0u);
  w.run(3);
  EXPECT_EQ(w.toggles()[q], 3 * WordSimulator::kLanes);
}

TEST(WordSimulator, BusAndLaneHelpers) {
  Netlist nl;
  NetlistBuilder b(nl);
  const auto in = b.input_bus("d", 4);
  std::vector<NetId> qs;
  for (auto n : in) qs.push_back(b.dff(n));
  b.output_bus("q", qs);
  WordSimulator w(nl);
  w.set_bus("d", 0b1010);
  w.step();
  EXPECT_EQ(w.get_bus("q", 0), 0b1010u);
  EXPECT_EQ(w.get_bus("q", 63), 0b1010u);
  w.set_bus_lane("d", 5, 0b0110);
  w.step();
  EXPECT_EQ(w.get_bus("q", 5), 0b0110u);
  EXPECT_EQ(w.get_bus("q", 4), 0b1010u);  // other lanes untouched
  EXPECT_THROW(w.set_bus("nope", 1), std::invalid_argument);
  EXPECT_THROW(w.set_bus("d", 0b10000), std::invalid_argument);  // 5 bits, 4-bit bus
  EXPECT_THROW(w.set_bus_lane("d", 64, 0), std::invalid_argument);
}

TEST(WordSimulator, RejectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellType::Inv, {a}, y);
  nl.add_cell(CellType::Inv, {y}, a);
  EXPECT_THROW(WordSimulator w(nl), std::invalid_argument);
}

TEST(Levelize, AssignsMonotoneLevels) {
  std::mt19937 rng(0x1e7e1u);
  RandomCircuit c = random_circuit(rng, 60);
  const auto lev = netlist::levelize(c.nl);
  ASSERT_TRUE(lev.has_value());

  // Every combinational op sits one level above its deepest input, the
  // stream is level-major, and op count equals the combinational cell count.
  EXPECT_EQ(lev->comb.size(), c.nl.stats().num_comb);
  EXPECT_EQ(lev->seq.size(), c.nl.stats().num_seq);
  EXPECT_EQ(lev->level_begin.front(), 0u);
  EXPECT_EQ(lev->level_begin.back(), lev->comb.size());
  for (std::size_t l = 0; l < lev->num_levels(); ++l) {
    for (std::size_t i = lev->level_begin[l]; i < lev->level_begin[l + 1]; ++i) {
      const netlist::FlatOp& op = lev->comb[i];
      EXPECT_EQ(lev->net_level[op.out], l + 1);
      std::uint32_t deepest = 0;
      for (int p = 0; p < netlist::traits(op.type).num_inputs; ++p) {
        EXPECT_LT(lev->net_level[op.in[p]], lev->net_level[op.out]);
        deepest = std::max(deepest, lev->net_level[op.in[p]]);
      }
      EXPECT_EQ(lev->net_level[op.out], deepest + 1);
    }
  }
  // Sources stay at level 0.
  EXPECT_EQ(lev->net_level[kConst0], 0u);
  EXPECT_EQ(lev->net_level[kConst1], 0u);
  for (NetId in : c.inputs) EXPECT_EQ(lev->net_level[in], 0u);
  for (const netlist::FlatOp& ff : lev->seq) EXPECT_EQ(lev->net_level[ff.out], 0u);
}

TEST(Levelize, RejectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellType::Inv, {a}, y);
  nl.add_cell(CellType::Inv, {y}, a);
  EXPECT_FALSE(netlist::levelize(nl).has_value());
}

}  // namespace
}  // namespace addm::sim
