// Extension experiment: overall memory-access delay including the cell
// array — the measurement the paper could not make ("We have not
// demonstrated the impact of delay reduction ... on the overall memory
// access delay due to lack of data for the memory cell array", Section 7).
//
// Two complete gate-level systems over the same single-bit cell array:
//  * ADDM system:        SRAG pair -> RS/CS -> ADDM array (no decoders)
//  * conventional system: CntAG (binary address) -> in-macro decoders -> array
// Both run the raster access pattern; we report the full critical path and
// area, i.e. how much of the generator-level delay advantage survives once
// the array is attached.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/srag_mapper.hpp"
#include "memory/array_netlist.hpp"

namespace {

using namespace addm;

netlist::Netlist addm_system(std::size_t dim) {
  const auto trace = seq::incremental({dim, dim});
  auto rm = core::map_sequence(trace.rows(), static_cast<std::uint32_t>(dim));
  auto cm = core::map_sequence(trace.cols(), static_cast<std::uint32_t>(dim));
  netlist::Netlist nl;
  netlist::NetlistBuilder b(nl);
  const auto next = b.input("next");
  const auto reset = b.input("reset");
  const auto din = b.input("din");
  const auto we = b.input("we");
  const auto row = core::build_srag(b, *rm.config, next, reset);
  const auto col = core::build_srag(b, *cm.config, next, reset);
  const auto array =
      memory::build_addm_array(b, {dim, dim}, row.select, col.select, din, we);
  b.output("dout", array.dout);
  return nl;
}

netlist::Netlist conventional_system(std::size_t dim) {
  const auto trace = seq::incremental({dim, dim});
  core::CntAgOptions opt;
  opt.include_decoders = false;  // decode happens inside the macro
  netlist::Netlist nl;
  netlist::NetlistBuilder b(nl);
  const auto next = b.input("next");
  const auto reset = b.input("reset");
  const auto din = b.input("din");
  const auto we = b.input("we");
  const auto gen = core::build_cntag(b, trace, core::cntag_covers(trace, opt.minimize),
                                    next, reset, opt);
  const auto array = memory::build_decoded_array(b, {dim, dim}, gen.row_addr,
                                                 gen.col_addr, din, we,
                                                 synth::DecoderStyle::SharedChain);
  b.output("dout", array.dout);
  return nl;
}

void print_table() {
  const auto lib = tech::Library::generic_180nm();
  bench::print_header(
      "Extension: full-system access delay (generator + decode + cell array)\n"
      "the Section-7 measurement the paper lacked array data for");
  std::printf("%8s %16s %16s %10s %14s %14s\n", "array", "ADDM+SRAG ns",
              "conv+CntAG ns", "ratio", "ADDM area", "conv area");
  for (std::size_t dim : {8u, 16u, 32u}) {
    auto a = addm_system(dim);
    const auto am = core::measure_netlist(a, lib);
    auto c = conventional_system(dim);
    const auto cm = core::measure_netlist(c, lib);
    std::printf("%4zux%-4zu %16.3f %16.3f %10.2f %14.0f %14.0f\n", dim, dim, am.delay_ns,
                cm.delay_ns, cm.delay_ns / am.delay_ns, am.area_units, cm.area_units);
  }
  std::printf("\n(the cell array and its wired-OR read tree are identical in both\n"
              "systems; the remaining delta is pure addressing-path difference.)\n\n");
}

void BM_FullSystemSta(benchmark::State& state) {
  const auto lib = tech::Library::generic_180nm();
  auto nl = addm_system(16);
  tech::insert_buffers(nl);
  for (auto _ : state)
    benchmark::DoNotOptimize(tech::analyze_timing(nl, lib).critical_path_ns);
}
BENCHMARK(BM_FullSystemSta);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
