// Tests for the batch design-space explorer: parity with the sequential
// explorer, memoization behavior, thread-count independence of the report,
// and error isolation; and the report renderers, byte for byte against
// plain ostringstream oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/batch_explorer.hpp"
#include "core/fingerprint.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

// ---- Oracles: both reports rendered field by field through an
// ostringstream, with no cached rows. ----

std::string oracle_fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string oracle_csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string q = "\"";
  for (char c : s) {
    if (c == '"') q += '"';
    q += c;
  }
  q += '"';
  return q;
}

std::string oracle_json_quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    switch (c) {
      case '"': q += "\\\""; break;
      case '\\': q += "\\\\"; break;
      case '\n': q += "\\n"; break;
      case '\t': q += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          q += buf;
        } else {
          q += c;
        }
    }
  }
  q += '"';
  return q;
}

std::string oracle_csv(const BatchResult& result) {
  std::ostringstream os;
  os << "trace,width,height,length,trace_hash,architecture,feasible,pareto,"
        "area_units,delay_ns,clk_to_out_ns,reg_to_reg_ns,cells,flipflops,"
        "buffers_added,note\n";
  for (const BatchEntry& e : result.entries) {
    const std::string prefix = oracle_csv_quote(e.name) + "," +
                               std::to_string(e.geometry.width) + "," +
                               std::to_string(e.geometry.height) + "," +
                               std::to_string(e.trace_length) + "," + hex64(e.trace_hash);
    if (!e.error.empty()) {
      os << prefix << ",,error,,,,,,,,," << oracle_csv_quote(e.error) << "\n";
      continue;
    }
    for (std::size_t i = 0; i < e.points.size(); ++i) {
      const DesignPoint& p = e.points[i];
      const bool on_front =
          std::find(e.pareto.begin(), e.pareto.end(), i) != e.pareto.end();
      os << prefix << "," << oracle_csv_quote(p.architecture) << ","
         << (p.feasible ? "yes" : "no") << "," << (on_front ? "yes" : "no") << ",";
      if (p.feasible) {
        os << oracle_fixed6(p.metrics.area_units) << ","
           << oracle_fixed6(p.metrics.delay_ns) << ","
           << oracle_fixed6(p.metrics.clk_to_out_ns) << ","
           << oracle_fixed6(p.metrics.reg_to_reg_ns) << "," << p.metrics.cells << ","
           << p.metrics.flipflops << "," << p.metrics.buffers_added;
      } else {
        os << ",,,,,,";
      }
      os << "," << oracle_csv_quote(p.note) << "\n";
    }
  }
  return os.str();
}

std::string oracle_json(const BatchResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"summary\": {\"traces\": " << result.traces << "},\n";
  os << "  \"traces\": [\n";
  for (std::size_t t = 0; t < result.entries.size(); ++t) {
    const BatchEntry& e = result.entries[t];
    os << "    {\n";
    os << "      \"name\": " << oracle_json_quote(e.name) << ",\n";
    os << "      \"geometry\": [" << e.geometry.width << ", " << e.geometry.height
       << "],\n";
    os << "      \"length\": " << e.trace_length << ",\n";
    os << "      \"trace_hash\": \"" << hex64(e.trace_hash) << "\",\n";
    if (!e.error.empty()) {
      os << "      \"error\": " << oracle_json_quote(e.error) << "\n";
    } else {
      os << "      \"pareto\": [";
      for (std::size_t i = 0; i < e.pareto.size(); ++i)
        os << (i ? ", " : "") << e.pareto[i];
      os << "],\n";
      os << "      \"points\": [\n";
      for (std::size_t i = 0; i < e.points.size(); ++i) {
        const DesignPoint& p = e.points[i];
        os << "        {\"architecture\": " << oracle_json_quote(p.architecture)
           << ", \"feasible\": " << (p.feasible ? "true" : "false");
        if (p.feasible) {
          os << ", \"area_units\": " << oracle_fixed6(p.metrics.area_units)
             << ", \"delay_ns\": " << oracle_fixed6(p.metrics.delay_ns)
             << ", \"clk_to_out_ns\": " << oracle_fixed6(p.metrics.clk_to_out_ns)
             << ", \"reg_to_reg_ns\": " << oracle_fixed6(p.metrics.reg_to_reg_ns)
             << ", \"cells\": " << p.metrics.cells
             << ", \"flipflops\": " << p.metrics.flipflops
             << ", \"buffers_added\": " << p.metrics.buffers_added;
        }
        os << ", \"note\": " << oracle_json_quote(p.note) << "}"
           << (i + 1 < e.points.size() ? ",\n" : "\n");
      }
      os << "      ]\n";
    }
    os << "    }" << (t + 1 < result.entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Renders both reports twice (the second CSV from the rows the first
/// cached) and compares every rendering with its oracle.
void expect_reports_match_oracles(const BatchResult& r, const std::string& what) {
  const std::string csv = oracle_csv(r);
  const std::string json = oracle_json(r);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(batch_report_csv(r), csv) << what << ", pass " << pass;
    EXPECT_EQ(batch_report_json(r), json) << what << ", pass " << pass;
  }
}

std::string fresh_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "addm_batch_explorer" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

/// The entry perfbench-style code builds by hand: every field, no outcome.
BatchEntry hand_built(const BatchEntry& e) {
  BatchEntry h;
  h.name = e.name;
  h.geometry = e.geometry;
  h.trace_length = e.trace_length;
  h.trace_hash = e.trace_hash;
  h.points = e.points;
  h.pareto = e.pareto;
  h.error = e.error;
  return h;
}

std::vector<seq::AddressTrace> small_suite() { return seq::standard_suite({8, 8}); }

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
    EXPECT_EQ(e.points, expected) << traces[i].name();
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
  EXPECT_EQ(result.entries[0].points, result.entries[1].points);
  EXPECT_EQ(result.entries[0].points, result.entries[2].points);
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
  EXPECT_EQ(result.entries[0].points, result.entries[1].points);
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

TEST(BatchReport, MatchesOracleColdMemoWarmAndDiskWarm) {
  BatchOptions opt;
  opt.threads = 4;
  opt.explore.verify_front = true;
  opt.cache_dir = fresh_dir("cold_warm_disk");
  const auto traces = small_suite();

  BatchExplorer explorer(opt);
  const BatchResult cold = explorer.run(traces);
  EXPECT_EQ(cold.evaluations + cold.cache_hits, traces.size());
  expect_reports_match_oracles(cold, "cold");

  const BatchResult memo = explorer.run(traces);
  EXPECT_EQ(memo.cache_hits, traces.size());
  expect_reports_match_oracles(memo, "memo-warm");
  explorer.flush_disk();

  const BatchResult disk = BatchExplorer(opt).run(traces);
  EXPECT_EQ(disk.disk_hits, traces.size());
  expect_reports_match_oracles(disk, "disk-warm");

  EXPECT_EQ(batch_report_csv(memo), batch_report_csv(cold));
  EXPECT_EQ(batch_report_csv(disk), batch_report_csv(cold));
  EXPECT_EQ(batch_report_json(disk), batch_report_json(cold));
}

TEST(BatchReport, SharedOutcomeKeepsEachEntrysPrefix) {
  // Same contents under names that need CSV quoting or JSON escaping: one
  // outcome, one set of cached rows, a different prefix on every row.
  const auto t = seq::transpose_read({8, 8});
  std::vector<seq::AddressTrace> traces;
  for (const char* name : {"plain", "comma,name", "quote\"name", "new\nline", "tab\tname",
                           "ctl\x01" "byte", "back\\slash"}) {
    auto copy = t;
    copy.set_name(name);
    traces.push_back(std::move(copy));
  }
  BatchOptions opt;
  opt.threads = 3;
  BatchExplorer explorer(opt);
  const BatchResult r = explorer.run(traces);
  EXPECT_EQ(r.evaluations, 1u);
  for (const BatchEntry& e : r.entries) {
    ASSERT_NE(e.outcome, nullptr);
    EXPECT_EQ(e.outcome, r.entries[0].outcome) << e.name;
  }
  expect_reports_match_oracles(r, "renamed copies");
  const std::string csv = batch_report_csv(r);
  EXPECT_NE(csv.find("\n\"comma,name\",8,8,"), std::string::npos);
  EXPECT_NE(csv.find("\n\"quote\"\"name\",8,8,"), std::string::npos);
  EXPECT_NE(batch_report_json(r).find("\"ctl\\u0001byte\""), std::string::npos);
}

TEST(BatchReport, QuotesAndEscapesNotesAndErrors) {
  // Hand-built entries carry text no exploration produces; the same row
  // code renders them as renders an outcome's rows.
  const std::string nasty = "a,b \"q\" new\nline tab\t ctl\x01\x1f back\\ end";
  BatchResult r;
  BatchEntry ok;
  ok.name = nasty;
  ok.geometry = {4, 2};
  ok.trace_length = 3;
  ok.trace_hash = 0x0123456789abcdefULL;
  DesignPoint feasible;
  feasible.architecture = "Arch,\"1\"";
  feasible.feasible = true;
  feasible.note = nasty;
  feasible.metrics = {1.5, 0.25, 0.125, 1e-7, 12, 3, 1};
  DesignPoint infeasible;
  infeasible.architecture = "Other";
  infeasible.note = nasty;
  ok.points = {feasible, infeasible};
  ok.pareto = {0};
  BatchEntry failed;
  failed.name = "failed";
  failed.geometry = {2, 2};
  failed.trace_length = 1;
  failed.error = nasty;
  r.entries = {ok, failed};
  r.traces = r.entries.size();
  expect_reports_match_oracles(r, "hand-built");
  EXPECT_NE(batch_report_csv(r).find(",error,"), std::string::npos);
  EXPECT_NE(batch_report_json(r).find("\\u0001\\u001f"), std::string::npos);
}

TEST(BatchReport, ErrorEntriesInfeasiblePointsAndEmptyList) {
  BatchOptions opt;
  opt.threads = 2;
  BatchExplorer explorer(opt);

  const BatchResult none = explorer.run({});
  EXPECT_EQ(none.entries.size(), 0u);
  expect_reports_match_oracles(none, "no traces");
  EXPECT_EQ(batch_report_csv(none), oracle_csv(BatchResult{}));

  // One access: CntAG is infeasible with a reason.  No addresses at all:
  // an error entry (errors are memoized like any outcome).
  const seq::AddressTrace one({2, 2}, {3}, "one");
  const seq::AddressTrace empty({2, 2}, {}, "empty");
  const BatchResult r = explorer.run({one, empty, one});
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_TRUE(std::any_of(r.entries[0].points.begin(), r.entries[0].points.end(),
                          [](const DesignPoint& p) { return !p.feasible; }));
  EXPECT_FALSE(r.entries[1].error.empty());
  expect_reports_match_oracles(r, "infeasible and error");
  expect_reports_match_oracles(explorer.run({empty, one}), "memo-warm error");
}

TEST(BatchReport, HandBuiltEntryRendersLikeRunEntry) {
  BatchOptions opt;
  opt.threads = 2;
  opt.explore.verify_front = true;
  const BatchResult run = BatchExplorer(opt).run(seq::scaled_suite({8, 8}, 2));
  BatchResult copied;
  copied.traces = run.traces;
  for (const BatchEntry& e : run.entries) copied.entries.push_back(hand_built(e));
  // Render the copies first, then the run's entries (rendering their rows),
  // then the copies again.
  const std::string csv = batch_report_csv(copied);
  const std::string json = batch_report_json(copied);
  EXPECT_EQ(batch_report_csv(run), csv);
  EXPECT_EQ(batch_report_json(run), json);
  EXPECT_EQ(batch_report_csv(copied), csv);
  EXPECT_EQ(batch_report_json(copied), json);
  EXPECT_EQ(csv, oracle_csv(run));
  EXPECT_EQ(json, oracle_json(run));
}

TEST(BatchReport, EditedRunEntryRendersItsFields) {
  // Entries from run() keep their outcome handle when copied and edited.
  // A report renders what the fields hold, not the outcome's cached rows,
  // and the shared rows stay intact for the entries left as they were.
  BatchOptions opt;
  opt.threads = 2;
  BatchExplorer explorer(opt);
  const BatchResult run = explorer.run(seq::scaled_suite({8, 8}, 2));
  ASSERT_GE(run.entries.size(), 4u);
  const std::string csv = batch_report_csv(run);  // caches every outcome's rows
  const std::string json = batch_report_json(run);

  BatchResult edited = run;
  // Same sizes, one metric and one note changed in place.
  ASSERT_FALSE(edited.entries[0].points.empty());
  ASSERT_FALSE(edited.entries[3].points.empty());
  edited.entries[0].points[0].metrics.cells += 1;
  edited.entries[0].points.back().note += ",edited";
  edited.entries[1].error = "edited error";
  edited.entries[2].pareto.clear();
  edited.entries[3].points.pop_back();
  for (const BatchEntry& e : edited.entries) ASSERT_NE(e.outcome, nullptr);
  expect_reports_match_oracles(edited, "edited entries");
  EXPECT_NE(batch_report_csv(edited), csv);
  EXPECT_NE(batch_report_json(edited), json);

  EXPECT_EQ(batch_report_csv(run), csv);
  EXPECT_EQ(batch_report_json(run), json);
  expect_reports_match_oracles(explorer.run(seq::scaled_suite({8, 8}, 2)), "memo-warm");
}

TEST(BatchReport, ConcurrentRenderersGetIdenticalBytes) {
  // Eight threads render both formats of one warm result at once, while
  // none of its outcomes has rendered CSV rows yet: the first CSV report to
  // reach an outcome renders them, the others wait for and share them.
  BatchOptions opt;
  opt.threads = 4;
  BatchExplorer explorer(opt);
  const auto traces = seq::scaled_suite({8, 8}, 2);
  explorer.run(traces);
  const BatchResult warm = explorer.run(traces);
  ASSERT_EQ(warm.cache_hits, traces.size());

  constexpr int kThreads = 8;
  std::vector<std::string> csv(kThreads), json(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Start together, so the first renderings of each outcome race.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      if (i % 2) {
        json[i] = batch_report_json(warm);
        csv[i] = batch_report_csv(warm);
      } else {
        csv[i] = batch_report_csv(warm);
        json[i] = batch_report_json(warm);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string want_csv = oracle_csv(warm);
  const std::string want_json = oracle_json(warm);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(csv[i], want_csv) << "thread " << i;
    EXPECT_EQ(json[i], want_json) << "thread " << i;
  }
}

}  // namespace
}  // namespace addm::core
