// Tests for the batch design-space explorer: parity with the sequential
// explorer, memoization behavior, thread-count independence of the report,
// and error isolation.
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_explorer.hpp"
#include "core/fingerprint.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

std::vector<seq::AddressTrace> small_suite() { return seq::standard_suite({8, 8}); }

bool points_equal(const std::vector<DesignPoint>& a, const std::vector<DesignPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].architecture != b[i].architecture || a[i].feasible != b[i].feasible ||
        a[i].note != b[i].note)
      return false;
    if (a[i].metrics.area_units != b[i].metrics.area_units ||
        a[i].metrics.delay_ns != b[i].metrics.delay_ns ||
        a[i].metrics.cells != b[i].metrics.cells ||
        a[i].metrics.flipflops != b[i].metrics.flipflops)
      return false;
  }
  return true;
}

TEST(BatchExplorer, MatchesSequentialExploreGenerators) {
  const auto traces = small_suite();
  BatchOptions opt;
  opt.threads = 4;
  BatchExplorer batch(opt);
  const BatchResult result = batch.run(traces);

  ASSERT_EQ(result.entries.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const BatchEntry& e = result.entries[i];
    EXPECT_EQ(e.name, traces[i].name());
    EXPECT_TRUE(e.error.empty()) << e.error;
    const auto expected = explore_generators(traces[i], opt.explore);
    EXPECT_TRUE(points_equal(e.points, expected)) << traces[i].name();
    EXPECT_EQ(e.pareto, pareto_front(expected)) << traces[i].name();
  }
}

TEST(BatchExplorer, EntriesKeepInputOrderAndMetadata) {
  const auto traces = small_suite();
  BatchExplorer batch(BatchOptions{});
  const BatchResult result = batch.run(traces);
  ASSERT_EQ(result.traces, traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(result.entries[i].name, traces[i].name());
    EXPECT_EQ(result.entries[i].geometry, traces[i].geometry());
    EXPECT_EQ(result.entries[i].trace_length, traces[i].length());
    EXPECT_EQ(result.entries[i].trace_hash, trace_fingerprint(traces[i]));
  }
}

TEST(BatchExplorer, MemoizesDuplicateTraces) {
  // Three copies of the same pattern under different names: one evaluation,
  // two hits, identical points.
  auto t = seq::transpose_read({8, 8});
  std::vector<seq::AddressTrace> traces;
  for (int i = 0; i < 3; ++i) {
    auto copy = t;
    copy.set_name("copy" + std::to_string(i));
    traces.push_back(std::move(copy));
  }
  BatchOptions opt;
  opt.threads = 4;
  BatchExplorer batch(opt);
  const BatchResult result = batch.run(traces);
  EXPECT_EQ(result.evaluations, 1u);
  EXPECT_EQ(result.cache_hits, 2u);
  EXPECT_EQ(batch.cache_size(), 1u);
  EXPECT_TRUE(points_equal(result.entries[0].points, result.entries[1].points));
  EXPECT_TRUE(points_equal(result.entries[0].points, result.entries[2].points));
  // Names still come from the inputs, not the cache.
  EXPECT_EQ(result.entries[2].name, "copy2");
}

TEST(BatchExplorer, CachePersistsAcrossRuns) {
  const auto traces = small_suite();
  BatchExplorer batch(BatchOptions{});
  const BatchResult first = batch.run(traces);
  const std::size_t unique = first.evaluations;
  EXPECT_GT(unique, 0u);
  EXPECT_EQ(batch.cache_size(), unique);

  const BatchResult second = batch.run(traces);
  EXPECT_EQ(second.evaluations, 0u);
  EXPECT_EQ(second.cache_hits, traces.size());
  EXPECT_EQ(batch_report_csv(first), batch_report_csv(second));

  batch.clear_cache();
  EXPECT_EQ(batch.cache_size(), 0u);
  const BatchResult third = batch.run(traces);
  EXPECT_EQ(third.evaluations, unique);
}

TEST(BatchExplorer, MemoizationCanBeDisabled) {
  auto t = seq::incremental({8, 8});
  std::vector<seq::AddressTrace> traces{t, t};
  BatchOptions opt;
  opt.memoize = false;
  BatchExplorer batch(opt);
  const BatchResult result = batch.run(traces);
  EXPECT_EQ(result.evaluations, 2u);
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(batch.cache_size(), 0u);
  EXPECT_TRUE(points_equal(result.entries[0].points, result.entries[1].points));
}

TEST(BatchExplorer, ReportsIdenticalAcrossThreadCounts) {
  const auto traces = small_suite();
  std::string csv1, json1;
  for (std::size_t threads : {1u, 2u, 5u, 8u}) {
    BatchOptions opt;
    opt.threads = threads;
    BatchExplorer batch(opt);
    const BatchResult result = batch.run(traces);
    const std::string csv = batch_report_csv(result);
    const std::string json = batch_report_json(result);
    if (threads == 1) {
      csv1 = csv;
      json1 = json;
    } else {
      EXPECT_EQ(csv, csv1) << threads << " threads";
      EXPECT_EQ(json, json1) << threads << " threads";
    }
  }
}

TEST(BatchExplorer, StatsDeterministicAcrossThreadCounts) {
  const auto traces = seq::scaled_suite({8, 8}, 2);
  std::size_t evals1 = 0, hits1 = 0;
  for (std::size_t threads : {1u, 4u}) {
    BatchOptions opt;
    opt.threads = threads;
    BatchExplorer batch(opt);
    const BatchResult result = batch.run(traces);
    if (threads == 1) {
      evals1 = result.evaluations;
      hits1 = result.cache_hits;
    } else {
      EXPECT_EQ(result.evaluations, evals1);
      EXPECT_EQ(result.cache_hits, hits1);
    }
  }
}

TEST(BatchExplorer, ReportsCoverEveryTraceAndParetoPoints) {
  const auto traces = small_suite();
  BatchExplorer batch(BatchOptions{});
  const BatchResult result = batch.run(traces);
  const std::string csv = batch_report_csv(result);
  const std::string json = batch_report_json(result);
  for (const auto& t : traces) {
    EXPECT_NE(csv.find(t.name()), std::string::npos) << t.name();
    EXPECT_NE(json.find("\"" + t.name() + "\""), std::string::npos) << t.name();
  }
  // Header shape and at least one pareto marker.
  EXPECT_EQ(csv.rfind("trace,width,height,length,trace_hash,architecture", 0), 0u);
  EXPECT_NE(csv.find(",yes,yes,"), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

TEST(BatchExplorer, ReportsContainOnlyInputDeterminedData) {
  // The shard/merge and disk-cache determinism contracts require that
  // evaluation and cache-hit counters never enter a serialized report: a
  // warm rerun (different counters) must reproduce a cold run's bytes.
  const auto traces = small_suite();
  BatchExplorer batch(BatchOptions{});
  const BatchResult cold = batch.run(traces);
  const BatchResult warm = batch.run(traces);
  EXPECT_EQ(cold.evaluations > 0, true);
  EXPECT_EQ(warm.evaluations, 0u);
  EXPECT_EQ(batch_report_json(cold), batch_report_json(warm));
  EXPECT_EQ(batch_report_csv(cold), batch_report_csv(warm));
  const std::string json = batch_report_json(cold);
  EXPECT_EQ(json.find("evaluations"), std::string::npos);
  EXPECT_EQ(json.find("cache_hits"), std::string::npos);
  EXPECT_NE(json.find("\"summary\": {\"traces\": " + std::to_string(traces.size())),
            std::string::npos);
}

TEST(BatchExplorer, OptionsChangeMissesTheCache) {
  // Same trace, different options => different cache key, so a fresh
  // BatchExplorer with other options re-evaluates rather than reusing.
  auto t = seq::incremental({8, 8});
  BatchOptions a;
  a.explore.include_fsm = true;
  BatchOptions b = a;
  b.explore.include_fsm = false;
  BatchExplorer ea(a), eb(b);
  const auto ra = ea.run({t});
  const auto rb = eb.run({t});
  EXPECT_NE(ra.entries[0].points.size(), rb.entries[0].points.size());
  EXPECT_NE(options_fingerprint(a.explore), options_fingerprint(b.explore));
}


TEST(BatchExplorer, OneAccessTraceExploresEveryEntry) {
  // A single access used to fail the whole trace, because the CntAG
  // counter cannot count modulo 1; now CntAG is infeasible with a reason
  // and the other entries evaluate (and verify) as usual.
  const seq::AddressTrace one({2, 2}, {3}, "one");
  for (bool verify : {false, true}) {
    BatchOptions opt;
    opt.threads = 1;
    opt.explore.verify_front = verify;
    const BatchResult r = BatchExplorer(opt).run({one});
    ASSERT_EQ(r.entries.size(), 1u);
    const BatchEntry& e = r.entries[0];
    EXPECT_EQ(e.error, "");
    ASSERT_EQ(e.points.size(), 9u);
    EXPECT_FALSE(e.pareto.empty());
    for (const DesignPoint& p : e.points) {
      if (p.architecture.rfind("CntAG", 0) == 0) {
        EXPECT_FALSE(p.feasible) << p.architecture;
        EXPECT_EQ(p.note, "sequence counter needs at least 2 accesses");
      }
      EXPECT_EQ(p.note.find("verify FAILED"), std::string::npos) << p.note;
    }
  }
}

}  // namespace
}  // namespace addm::core
