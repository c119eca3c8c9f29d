// Tests for the CntAG baseline: the index counter + transform must present
// the right binary addresses, the decoders the right one-hot selects, across
// workloads, decoder styles and carry styles.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <tuple>

#include "core/cntag.hpp"
#include "core/explorer.hpp"
#include "netlist/netlist_io.hpp"
#include "seq/workloads.hpp"
#include "sim/simulator.hpp"
#include "tech/library.hpp"
#include "tech/sta.hpp"

namespace addm::core {
namespace {

seq::AddressTrace workload(int kind, std::size_t dim) {
  using namespace seq;
  const ArrayGeometry g{dim, dim};
  switch (kind) {
    case 0: return incremental(g);
    case 1: {
      MotionEstimationParams p;
      p.img_width = p.img_height = dim;
      p.mb_width = p.mb_height = 4;
      p.m = 0;
      return motion_estimation_read(p);
    }
    case 2: return dct_block_column_read(g, 4);
    case 3: return transpose_read(g);
    default: return strided(g, 3);  // irregular: exercises real table logic
  }
}

class CntAgReplayTest : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(CntAgReplayTest, WalksTraceWithCorrectSelects) {
  const auto [kind, dim] = GetParam();
  const auto trace = workload(kind, dim);

  CntAgOptions opt;
  opt.decoder_style = synth::DecoderStyle::Flat;
  netlist::Netlist nl = elaborate_cntag(trace, opt);
  ASSERT_TRUE(nl.validate().empty());

  sim::Simulator s(nl);
  s.set("reset", true);
  s.set("next", false);
  s.step();
  s.set("reset", false);
  s.set("next", true);
  // Walk the whole trace plus wrap-around back to the start.
  for (std::size_t k = 0; k < trace.length() + 3; ++k) {
    const std::uint32_t a = trace.linear()[k % trace.length()];
    EXPECT_EQ(s.get_bus("ra"), trace.row_of(a)) << "access " << k;
    EXPECT_EQ(s.get_bus("ca"), trace.col_of(a)) << "access " << k;
    EXPECT_EQ(s.hot_index("rs"), trace.row_of(a)) << "access " << k;
    EXPECT_EQ(s.hot_index("cs"), trace.col_of(a)) << "access " << k;
    s.step();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CntAgReplayTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Values(std::size_t{4},
                                                              std::size_t{8})));

TEST(CntAg, DecoderStylesAreEquivalent) {
  const auto trace = workload(1, 8);
  CntAgOptions flat, shared;
  flat.decoder_style = synth::DecoderStyle::Flat;
  shared.decoder_style = synth::DecoderStyle::SharedChain;

  netlist::Netlist nf = elaborate_cntag(trace, flat);
  netlist::Netlist ns = elaborate_cntag(trace, shared);
  sim::Simulator sf(nf), ss(ns);
  for (auto* s : {&sf, &ss}) {
    s->set("reset", true);
    s->set("next", false);
    s->step();
    s->set("reset", false);
    s->set("next", true);
  }
  for (std::size_t k = 0; k < trace.length(); ++k) {
    EXPECT_EQ(sf.hot_index("rs"), ss.hot_index("rs")) << k;
    EXPECT_EQ(sf.hot_index("cs"), ss.hot_index("cs")) << k;
    sf.step();
    ss.step();
  }
}

TEST(CntAg, SharedDecodersSmallerThanFlat) {
  const auto trace = workload(0, 16);
  const auto lib = tech::Library::generic_180nm();
  CntAgOptions flat, shared;
  flat.decoder_style = synth::DecoderStyle::Flat;
  shared.decoder_style = synth::DecoderStyle::SharedChain;
  const auto af = tech::analyze_area(elaborate_cntag(trace, flat), lib).total;
  const auto as = tech::analyze_area(elaborate_cntag(trace, shared), lib).total;
  EXPECT_LT(as, af);
}

TEST(CntAg, WithoutDecodersHasNoSelectOutputs) {
  CntAgOptions opt;
  opt.include_decoders = false;
  netlist::Netlist nl = elaborate_cntag(workload(0, 4), opt);
  EXPECT_TRUE(nl.find_output("ra[0]").has_value());
  EXPECT_FALSE(nl.find_output("rs[0]").has_value());
}

TEST(CntAg, IncrementalTransformIsFree) {
  // For the identity sequence the transform must collapse to wiring: the
  // netlist has no gates beyond the counter itself (plus decoders when on).
  CntAgOptions opt;
  opt.include_decoders = false;
  netlist::Netlist nl = elaborate_cntag(workload(0, 8), opt);
  // A 6-bit lookahead counter: 6 flops + increment logic; the transform adds
  // nothing, so every combinational gate belongs to the counter.
  netlist::Netlist counter_only;
  {
    netlist::NetlistBuilder b(counter_only);
    synth::CounterSpec spec;
    spec.bits = 6;
    spec.modulo = 64;
    synth::build_counter(b, spec, b.input("next"), b.input("reset"));
  }
  EXPECT_EQ(nl.stats().num_comb, counter_only.stats().num_comb);
}

TEST(CntAg, RejectsEmptyTrace) {
  netlist::Netlist nl;
  netlist::NetlistBuilder b(nl);
  seq::AddressTrace empty({2, 2}, {});
  EXPECT_THROW(cntag_covers(empty), std::invalid_argument);
  EXPECT_THROW(build_cntag(b, empty, {}, netlist::kConst1, netlist::kConst0, {}),
               std::invalid_argument);
}

TEST(CntAg, SharedCoversBuildTheSameNetlists) {
  // explore_generators hands every build of a trace one BuildContext, which
  // minimizes the CntAG transform once.  Each CntAG registry entry built
  // through it, and built again through it as the front rebuild does, must
  // serialize exactly as elaborate_cntag minimizing its own covers.
  const std::pair<const char*, synth::DecoderStyle> entries[] = {
      {"CntAG-flat", synth::DecoderStyle::Flat},
      {"CntAG-shared", synth::DecoderStyle::SharedChain},
      {"CntAG-predecoded", synth::DecoderStyle::SharedBalanced}};
  std::vector<seq::AddressTrace> traces = seq::scaled_suite({8, 8}, 4);
  // 57 raster passes over 24x24: 16 index bits, a period of 576.
  std::vector<std::uint32_t> raster;
  for (int pass = 0; pass < 57; ++pass)
    for (std::uint32_t a = 0; a < 576; ++a) raster.push_back(a);
  traces.emplace_back(seq::ArrayGeometry{24, 24}, raster, "raster_24x24_57");
  std::vector<std::uint32_t> shuffled(256);
  std::iota(shuffled.begin(), shuffled.end(), 0u);
  std::mt19937 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  traces.emplace_back(seq::ArrayGeometry{16, 16}, shuffled, "shuffled_16x16");

  for (logic::MinimizerAlgo algo : {logic::MinimizerAlgo::Isop, logic::MinimizerAlgo::Espresso}) {
    ExploreOptions opt;
    opt.minimize.algo = algo;
    for (const seq::AddressTrace& trace : traces) {
      SCOPED_TRACE(trace.name() + " " + logic::minimizer_name(algo));
      BuildContext ctx;
      for (const auto& [name, style] : entries) {
        const auto entry = std::find_if(
            generator_registry().begin(), generator_registry().end(),
            [name = std::string(name)](const GeneratorEntry& e) { return e.name == name; });
        ASSERT_NE(entry, generator_registry().end()) << name;
        CntAgOptions copt;
        copt.decoder_style = style;
        copt.minimize = opt.minimize;
        const std::string own = netlist::write_netlist_string(elaborate_cntag(trace, copt));
        const CandidateBuild first = entry->build(trace, opt, ctx);
        const CandidateBuild again = entry->build(trace, opt, ctx);
        ASSERT_TRUE(first.circuit && again.circuit) << name;
        EXPECT_EQ(netlist::write_netlist_string(first.circuit->netlist), own) << name;
        EXPECT_EQ(netlist::write_netlist_string(again.circuit->netlist), own) << name;
      }
      // A context holds one trace's covers; another trace's build through
      // it must not map them.
      const seq::AddressTrace other = seq::incremental({8, 8});
      EXPECT_THROW(ctx.cntag_covers(other, opt.minimize), std::logic_error);
    }
  }
}

TEST(CntAg, NonSquareGeometry) {
  const seq::AddressTrace trace = seq::incremental({8, 4});  // 8 wide, 4 tall
  netlist::Netlist nl = elaborate_cntag(trace, {});
  sim::Simulator s(nl);
  s.set("reset", true);
  s.set("next", false);
  s.step();
  s.set("reset", false);
  s.set("next", true);
  for (std::size_t k = 0; k < trace.length(); ++k) {
    const std::uint32_t a = trace.linear()[k];
    EXPECT_EQ(s.hot_index("rs"), a / 8) << k;
    EXPECT_EQ(s.hot_index("cs"), a % 8) << k;
    s.step();
  }
}

}  // namespace
}  // namespace addm::core
