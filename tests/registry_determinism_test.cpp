// Determinism tests for the architecture-generator registry driver: the
// points explore_generators returns must be byte-identical at every
// arch_threads value, and registry-ordered no matter what order the
// entries actually execute in.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "core/thread_pool.hpp"
#include "netlist/netlist_io.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

void expect_points_equal(const std::vector<DesignPoint>& a,
                         const std::vector<DesignPoint>& b,
                         const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].architecture, b[i].architecture) << context << " point " << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << context << " point " << i;
    EXPECT_EQ(a[i].note, b[i].note) << context << " point " << i;
    EXPECT_EQ(a[i].metrics.area_units, b[i].metrics.area_units) << context << " " << i;
    EXPECT_EQ(a[i].metrics.delay_ns, b[i].metrics.delay_ns) << context << " " << i;
    EXPECT_EQ(a[i].metrics.clk_to_out_ns, b[i].metrics.clk_to_out_ns)
        << context << " " << i;
    EXPECT_EQ(a[i].metrics.reg_to_reg_ns, b[i].metrics.reg_to_reg_ns)
        << context << " " << i;
    EXPECT_EQ(a[i].metrics.cells, b[i].metrics.cells) << context << " " << i;
    EXPECT_EQ(a[i].metrics.flipflops, b[i].metrics.flipflops) << context << " " << i;
    EXPECT_EQ(a[i].metrics.buffers_added, b[i].metrics.buffers_added)
        << context << " " << i;
  }
}

TEST(RegistryDeterminism, IdenticalPointsAcrossArchThreads) {
  // Traces chosen to cover feasible, infeasible, and mixed registries.
  const seq::AddressTrace traces[] = {seq::incremental({8, 8}),
                                      seq::zigzag({8, 8}),
                                      seq::transpose_read({8, 8})};
  for (const auto& trace : traces) {
    ExploreOptions serial;
    serial.arch_threads = 1;
    const auto reference = explore_generators(trace, serial);
    for (std::size_t arch_threads : {2u, 8u, 0u}) {
      ExploreOptions opt;
      opt.arch_threads = arch_threads;
      expect_points_equal(reference, explore_generators(trace, opt),
                          trace.name() + " arch_threads=" +
                              std::to_string(arch_threads));
    }
  }
}

TEST(RegistryDeterminism, ShuffledExecutionOrderYieldsRegistryOrder) {
  // Candidates are independent tasks: evaluating registry entries one by
  // one, in a shuffled order, must reproduce the driver's points slot for
  // slot — and the driver's output order must be the registry's.
  const auto trace = seq::incremental({8, 8});
  const ExploreOptions opt;
  const auto driver_points = explore_generators(trace, opt);

  const auto& registry = generator_registry();
  std::vector<std::size_t> applicable;
  for (std::size_t i = 0; i < registry.size(); ++i)
    if (registry[i].applicable(trace, opt)) applicable.push_back(i);
  ASSERT_EQ(driver_points.size(), applicable.size());

  std::vector<std::size_t> order(applicable.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(42);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<DesignPoint> points(applicable.size());
    BuildContext ctx;
    for (std::size_t slot : order)
      points[slot] = evaluate_generator(registry[applicable[slot]], trace, opt, ctx);
    expect_points_equal(driver_points, points, "shuffle round " + std::to_string(round));
    for (std::size_t slot = 0; slot < applicable.size(); ++slot)
      EXPECT_EQ(driver_points[slot].architecture, registry[applicable[slot]].name);
  }
}

TEST(RegistryDeterminism, ParetoAndFilterStableAcrossArchThreads) {
  const auto trace = seq::zigzag({8, 8});
  ExploreOptions serial;
  serial.archs = {"CntAG-flat", "FSM-binary", "SFM"};
  serial.arch_threads = 1;
  const auto reference = explore_generators(trace, serial);
  ExploreOptions parallel = serial;
  parallel.arch_threads = 8;
  const auto points = explore_generators(trace, parallel);
  expect_points_equal(reference, points, "filtered");
  EXPECT_EQ(pareto_front(reference), pareto_front(points));
}

TEST(RegistryDeterminism, BatchReportsIdenticalAcrossThreadMatrix) {
  // The ISSUE's matrix at the API level: arch_threads x threads must not
  // change a byte of either report.  (The CLI-level matrix, cache
  // directories included, is the arch_determinism ctest entry.)
  const auto traces = seq::standard_suite({8, 8});
  std::string csv_ref, json_ref;
  for (std::size_t threads : {1u, 4u}) {
    for (std::size_t arch_threads : {1u, 2u, 8u}) {
      BatchOptions opt;
      opt.threads = threads;
      opt.explore.arch_threads = arch_threads;
      BatchExplorer batch(opt);
      const BatchResult result = batch.run(traces);
      const std::string csv = batch_report_csv(result);
      const std::string json = batch_report_json(result);
      if (csv_ref.empty()) {
        csv_ref = csv;
        json_ref = json;
      } else {
        EXPECT_EQ(csv, csv_ref) << threads << "x" << arch_threads;
        EXPECT_EQ(json, json_ref) << threads << "x" << arch_threads;
      }
    }
  }
}

TEST(RegistryDeterminism, EspressoMinimizerDeterministicAcrossThreadMatrix) {
  // FSM-heavy batch with the heuristic minimizer actually engaged: zigzag
  // traces exercise the biggest FSM covers, and a threshold of 1 routes
  // every minimize() call through espresso.  Reports must still be
  // byte-identical at every threads x arch_threads combination, and must
  // differ from the default-isop reports' metrics only through the
  // minimizer's (equivalent, possibly differently shaped) covers.
  const std::vector<seq::AddressTrace> traces = {seq::zigzag({16, 16}),
                                                 seq::strided({16, 16}, 3),
                                                 seq::incremental({16, 16})};
  std::string csv_ref;
  for (std::size_t threads : {1u, 4u}) {
    for (std::size_t arch_threads : {1u, 4u}) {
      BatchOptions opt;
      opt.threads = threads;
      opt.explore.arch_threads = arch_threads;
      opt.explore.minimize.algo = logic::MinimizerAlgo::Auto;
      opt.explore.minimize.heuristic_min_vars = 1;
      BatchExplorer batch(opt);
      const std::string csv = batch_report_csv(batch.run(traces));
      if (csv_ref.empty())
        csv_ref = csv;
      else
        EXPECT_EQ(csv, csv_ref) << threads << "x" << arch_threads;
    }
  }
  EXPECT_FALSE(csv_ref.empty());
}

TEST(RegistryDeterminism, ConcurrentCntagBuildsShareOneContext) {
  // The three CntAG entries take their transform covers from the one
  // BuildContext of an exploration.  Eight threads building all three at
  // once through one context must compute the covers once, race on
  // nothing, and produce the netlists of builds with contexts of their own.
  // For an empty trace the computation throws: the context stays empty and
  // every build throws the same error.
  std::vector<const GeneratorEntry*> cntag;
  for (const GeneratorEntry& e : generator_registry())
    if (e.name.rfind("CntAG", 0) == 0) cntag.push_back(&e);
  ASSERT_EQ(cntag.size(), 3u);
  constexpr std::size_t kThreads = 8;
  const ExploreOptions opt;
  const seq::AddressTrace trace = seq::strided({16, 16}, 3);
  const seq::AddressTrace empty({4, 4}, {});
  std::vector<std::string> own;
  for (const GeneratorEntry* e : cntag)
    own.push_back(netlist::write_netlist_string(e->reference(trace, opt).value().netlist));

  BuildContext ctx, empty_ctx;
  std::vector<std::string> built(kThreads * cntag.size()), errors(built.size());
  // 24 tasks, task i building entry i % 3, on 8 threads: the first eight
  // ask for the covers together.
  parallel_for(kThreads, built.size(), [&](std::size_t i) {
    const GeneratorEntry& e = *cntag[i % cntag.size()];
    built[i] = netlist::write_netlist_string(e.build(trace, opt, ctx).circuit.value().netlist);
    try {
      e.build(empty, opt, empty_ctx);
    } catch (const std::invalid_argument& ex) {
      errors[i] = ex.what();
    }
  });
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built[i], own[i % cntag.size()]) << cntag[i % cntag.size()]->name << " task " << i;
    EXPECT_EQ(errors[i], "build_cntag: empty trace") << "task " << i;
  }
}

TEST(RegistryDeterminism, DegenerateTraceThrowsAtEveryThreadCount) {
  // Multiple entries fail for an empty-geometry trace; the driver must
  // surface the registry-first failure deterministically so batch error
  // strings (which enter reports) are schedule-independent.
  const seq::AddressTrace empty({4, 4}, {});
  std::string serial_error;
  for (std::size_t arch_threads : {1u, 8u}) {
    ExploreOptions opt;
    opt.arch_threads = arch_threads;
    try {
      explore_generators(empty, opt);
      FAIL() << "expected a throw at arch_threads=" << arch_threads;
    } catch (const std::exception& e) {
      if (arch_threads == 1)
        serial_error = e.what();
      else
        EXPECT_EQ(serial_error, e.what());
    }
  }
}

}  // namespace
}  // namespace addm::core
