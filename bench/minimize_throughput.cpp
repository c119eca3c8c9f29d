// Minimizer-throughput comparison: wall-clock of full FSM cover synthesis
// (row/column selects + next-state logic, the explorer's FSM elaboration
// workload) under each two-level minimizer, across scaled_suite-style
// workload sizes (6-12 state bits).  ISOP and Espresso produce the same
// mapped cell counts on every row, so the comparison is one of cost: the
// Espresso path scales with cube count, the ISOP recursion with truth
// tables that halve at every split.  The exact Quine-McCluskey backend is
// included at small sizes as the quality baseline.
//
// Emits BENCH_minimize.json (first BENCH_* trajectory file, see
// ROADMAP.md) into the working directory: one record per
// (trace, minimizer) with seconds and mapped cell count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "logic/minimize.hpp"

namespace {

using namespace addm;

struct Run {
  std::string trace;
  std::size_t states = 0;
  std::string algo;
  double seconds = 0.0;
  std::size_t cells = 0;
};

/// Synthesizes the 2-D FSM generator for `trace` (binary encoding, flat
/// mapping) with minimizer `mo`, timing only cover synthesis + mapping.
double build_fsm_2d(const seq::AddressTrace& trace, const logic::MinimizeOptions& mo,
                    std::size_t* cells) {
  const std::size_t len = trace.length();
  synth::FsmSpec row_spec;
  row_spec.next_state.resize(len);
  for (std::size_t i = 0; i < len; ++i)
    row_spec.next_state[i] = static_cast<std::uint32_t>((i + 1) % len);
  row_spec.select_of_state = trace.rows();
  row_spec.num_select_lines = trace.geometry().height;
  synth::FsmSpec col_spec = row_spec;
  col_spec.select_of_state = trace.cols();
  col_spec.num_select_lines = trace.geometry().width;

  netlist::Netlist nl;
  netlist::NetlistBuilder b(nl);
  const auto next = b.input("next");
  const auto reset = b.input("reset");
  const synth::FsmStyle style{synth::FsmEncoding::Binary, true, mo};
  const auto t0 = std::chrono::steady_clock::now();
  const auto rp = synth::build_fsm(b, row_spec, next, reset, style);
  const auto cp = synth::build_fsm(b, col_spec, next, reset, style);
  const auto t1 = std::chrono::steady_clock::now();
  b.output_bus("rs", rp.select);
  b.output_bus("cs", cp.select);
  if (cells) *cells = nl.stats().num_cells;
  return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<seq::AddressTrace> workloads() {
  std::vector<seq::AddressTrace> out;
  for (std::size_t dim : {8u, 16u, 32u, 64u}) {
    out.push_back(seq::zigzag({dim, dim}));
    out.push_back(seq::strided({dim, dim}, 3));
    out.push_back(seq::incremental({dim, dim}));
  }
  return out;
}

void print_table_and_json() {
  bench::print_header(
      "minimize() throughput: QMC vs ISOP vs Espresso on FSM synthesis\n"
      "full 2-D FSM cover synthesis + mapping per trace; exact only at\n"
      "sizes where branch-and-bound stays tractable");
  std::printf("%-22s %8s %12s %12s %12s %10s\n", "trace", "states", "exact (s)",
              "isop (s)", "espresso (s)", "cells");

  logic::MinimizeOptions exact_opt;
  exact_opt.algo = logic::MinimizerAlgo::Exact;
  logic::MinimizeOptions isop_opt;  // default
  logic::MinimizeOptions esp_opt;
  esp_opt.algo = logic::MinimizerAlgo::Espresso;

  std::vector<Run> runs;
  for (const auto& trace : workloads()) {
    std::size_t cells = 0;
    double exact_s = -1.0;
    if (trace.length() <= 64) {
      exact_s = build_fsm_2d(trace, exact_opt, &cells);
      runs.push_back({trace.name(), trace.length(), "exact", exact_s, cells});
    }
    const double isop_s = build_fsm_2d(trace, isop_opt, &cells);
    runs.push_back({trace.name(), trace.length(), "isop", isop_s, cells});
    const double esp_s = build_fsm_2d(trace, esp_opt, &cells);
    runs.push_back({trace.name(), trace.length(), "espresso", esp_s, cells});
    if (exact_s >= 0)
      std::printf("%-22s %8zu %12.4f %12.4f %12.4f %10zu\n", trace.name().c_str(),
                  trace.length(), exact_s, isop_s, esp_s, cells);
    else
      std::printf("%-22s %8zu %12s %12.4f %12.4f %10zu\n", trace.name().c_str(),
                  trace.length(), "-", isop_s, esp_s, cells);
  }
  std::printf("\n");

  // Deterministic-schema trajectory record (values are machine-dependent
  // timings; the schema and row order are stable).
  std::FILE* f = std::fopen("BENCH_minimize.json", "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"bench\": \"minimize_throughput\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::fprintf(f,
                 "    {\"trace\": \"%s\", \"states\": %zu, \"minimizer\": \"%s\", "
                 "\"seconds\": %.6f, \"cells\": %zu}%s\n",
                 r.trace.c_str(), r.states, r.algo.c_str(), r.seconds, r.cells,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_minimize.json (%zu runs)\n\n", runs.size());
}

void BM_FsmCoversIsop(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto trace = seq::zigzag({dim, dim});
  for (auto _ : state) {
    std::size_t cells = 0;
    benchmark::DoNotOptimize(build_fsm_2d(trace, {}, &cells));
  }
  state.SetComplexityN(static_cast<std::int64_t>(trace.length()));
}
BENCHMARK(BM_FsmCoversIsop)->RangeMultiplier(2)->Range(8, 32)->Complexity();

void BM_FsmCoversEspresso(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto trace = seq::zigzag({dim, dim});
  logic::MinimizeOptions mo;
  mo.algo = logic::MinimizerAlgo::Espresso;
  for (auto _ : state) {
    std::size_t cells = 0;
    benchmark::DoNotOptimize(build_fsm_2d(trace, mo, &cells));
  }
  state.SetComplexityN(static_cast<std::int64_t>(trace.length()));
}
BENCHMARK(BM_FsmCoversEspresso)->RangeMultiplier(2)->Range(8, 32)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  print_table_and_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
