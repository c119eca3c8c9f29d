// perfbench_driver: one benchmark run of one workload (see README.md).
//
//   perfbench_driver --workload suite|raster-33k|serve-mix --seed N
//                    --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//                    [--wire binary|json] [--trace-out FILE]
//                    [--rev REV] [--src-digest HEX]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it runs
// one untraced and one traced pass and derives the per-layer metrics.  The
// last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it carries the run's metadata.  Every timing
// comes from repeated passes spread over the whole run, because the host has
// slow phases of seconds to minutes in which everything runs 20-55% slower
// (README.md).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/fingerprint.hpp"
#include "daemon.hpp"
#include "decompose.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using namespace addm;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed workload parameters.

/// FNV-1a digests of the expected report bodies.  Reports are deterministic
/// (byte-identical across threads, cache state and daemon), so any other
/// body is wrong output.  Update only with a change that intends to change
/// reports.
constexpr std::uint64_t kSuiteDigest = 0x7f960d8d79dc85dcull;
constexpr std::uint64_t kRasterDigest = 0x4c2c818cb99433a9ull;
constexpr std::uint64_t kServeWarmDigest = 0x73c5a32fba833c30ull;

constexpr std::size_t kBatchThreads = 2;    ///< --threads 2 for batch passes
constexpr std::size_t kClients = 2;         ///< closed-loop callers / connections
constexpr std::size_t kMixRequests = 2000;  ///< requests per mix pass
constexpr std::size_t kMissEvery = 20;      ///< request i is a miss iff i % 20 == 19
constexpr std::size_t kSetupRepsPerCycle = 5;  ///< batch set-ups per cycle
constexpr std::size_t kFlushEntries = 16;   ///< addm_serve's default flush policy
/// Program layers' self times must cover the traced pass's wall time to
/// within this share; the rest is the benchmark's own glue.
constexpr double kSelfTimeTolerance = 0.05;

// ---------------------------------------------------------------------------
// Small helpers.

std::uint64_t digest(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Nearest-rank percentile of `v` (sorted in place), p in (0, 1].
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// splitmix64: the benchmark's own generator, so inputs depend on the seed
/// alone and not on a standard library's distribution code.
std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Miss input number `k` of a run: a never-seen shuffled 16x16 trace.
seq::AddressTrace miss_trace(std::uint64_t seed, std::uint64_t k) {
  std::vector<std::uint32_t> a(256);
  std::iota(a.begin(), a.end(), 0u);
  std::uint64_t s = seed * 0xd1342543de82ef95ull + k;
  for (std::size_t i = a.size() - 1; i > 0; --i)
    std::swap(a[i], a[splitmix(s) % (i + 1)]);
  return seq::AddressTrace({16, 16}, std::move(a),
                           "miss_" + std::to_string(seed) + "_" + std::to_string(k));
}

// ---------------------------------------------------------------------------
// Arguments and result accounting.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool json_wire = false;
  std::string bin_dir;
  std::string work_dir;
  std::string trace_out;
  std::string rev = "unknown";
  std::string src_digest = "unknown";
};

/// attempted/failed counts, failure diagnostics, metrics and metadata of
/// one run.  Thread-safe: request loops report from several threads.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations and logs the first few diagnostics.
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed_ += n;
    std::lock_guard<std::mutex> lk(mu_);
    if (++logged_ <= 10) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  /// A check that is not itself an operation (fidelity, reconciliation).
  void check(bool ok, const std::string& why) {
    if (ok) return;
    checks_ok_ = false;
    fail(why, 0);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, num(value), unit);
  }
  void meta(const std::string& key, const std::string& json_value) {
    meta_.emplace_back(key, json_value);
  }

  void print() const {
    std::string m = "{\"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i)
      m += (i ? ", " : "") + json_str(meta_[i].first) + ": " + meta_[i].second;
    std::printf("%s}}\n", m.c_str());
    const bool correct = failed_ == 0 && checks_ok_ && attempted_ > 0;
    std::string r = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1)) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      r += (i ? ", " : "") + json_str(name) + ": {\"value\": " + value +
           ", \"unit\": " + json_str(unit) + "}";
    }
    std::printf("%s}}\n", r.c_str());
    std::fflush(stdout);
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> checks_ok_{true};
  std::mutex mu_;
  std::uint64_t logged_ = 0;
  std::vector<std::tuple<std::string, std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

// ---------------------------------------------------------------------------
// The hit/miss request mix, shared by the in-process and served loops.

/// One closed-loop pass: kClients callers take request numbers 0..n-1 in
/// order; number i is a miss iff i % kMissEvery == kMissEvery - 1, and each
/// caller sends its next request only after the previous reply.
struct MixPass {
  double wall_s = 0.0;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  double rate() const {
    return static_cast<double>(hit_ms.size() + miss_ms.size()) / wall_s;
  }
};

/// `hit()` and `miss(k)` (k = the pass's k-th miss) perform and check one
/// request; they report failures themselves.
MixPass run_mix_pass(std::size_t requests, const std::function<void()>& hit,
                     const std::function<void(std::size_t)>& miss) {
  std::atomic<std::size_t> next{0};
  std::vector<MixPass> per(kClients);
  const auto t0 = Clock::now();
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kClients; ++c)
    callers.emplace_back([&, c] {
      for (std::size_t i; (i = next.fetch_add(1)) < requests;) {
        const bool is_miss = i % kMissEvery == kMissEvery - 1;
        const auto a = Clock::now();
        if (is_miss)
          miss(i / kMissEvery);
        else
          hit();
        const double ms = seconds_between(a, Clock::now()) * 1e3;
        (is_miss ? per[c].miss_ms : per[c].hit_ms).push_back(ms);
      }
    });
  for (auto& t : callers) t.join();
  MixPass out;
  out.wall_s = seconds_between(t0, Clock::now());
  for (auto& p : per) {
    out.hit_ms.insert(out.hit_ms.end(), p.hit_ms.begin(), p.hit_ms.end());
    out.miss_ms.insert(out.miss_ms.end(), p.miss_ms.begin(), p.miss_ms.end());
  }
  return out;
}

/// Runs `cycle(i)` for i = 0, 1, ... while the next cycle, at the pace of
/// the fastest one so far, would end by `deadline`; at least `min_cycles`
/// times.  A cycle holds one sample of every end-to-end metric, so each
/// metric's samples are spread over the whole run and slow host phases hit
/// all of them alike.  Returns the number of cycles run.
std::size_t run_cycles(Clock::time_point deadline, std::size_t min_cycles,
                       const std::function<void(std::size_t)>& cycle) {
  double fastest = 0.0;
  for (std::size_t n = 0;;) {
    const auto t0 = Clock::now();
    cycle(n++);
    const double took = seconds_between(t0, Clock::now());
    fastest = n == 1 ? took : std::min(fastest, took);
    if (n >= min_cycles && after(Clock::now(), fastest) > deadline) return n;
  }
}

/// Reports the request-mix metrics.  Each pass has 1,900 hits and 100
/// misses, and each percentile is computed within one pass.  req_per_s
/// takes the best pass.  miss_p90_ms (10 samples beyond it) takes the
/// median over passes: a miss's latency is bimodal within a pass (about 28
/// or 42 ms, depending on whether it shares a core with the other caller),
/// so a pass's miss percentiles jump between the modes and a best-pass
/// value would measure luck.  The hit p50/p99 and the miss p50 are recorded
/// per pass in the metadata only: their run-to-run spread (up to 57%, 79%
/// and 28%) exceeds any bound a metric may have (README.md).
void report_mix(Report& rep, std::vector<MixPass>& passes) {
  double rate = 0.0;
  std::vector<double> miss_p90;
  for (MixPass& p : passes) {
    rate = std::max(rate, p.rate());
    miss_p90.push_back(percentile(p.miss_ms, 0.90));
  }
  rep.metric("req_per_s", rate, "1/s");
  rep.metric("miss_p90_ms", percentile(miss_p90, 0.50), "ms");
  std::string per_pass;
  for (MixPass& p : passes)
    per_pass += (per_pass.empty() ? "[" : ", ") + std::string("[") + num(p.rate()) + ", " +
                num(percentile(p.hit_ms, 0.50)) + ", " + num(percentile(p.hit_ms, 0.99)) + ", " +
                num(percentile(p.miss_ms, 0.50)) + ", " + num(percentile(p.miss_ms, 0.90)) + "]";
  rep.meta("mix_passes", per_pass + "]");
  rep.meta("mix_pass_columns",
           "[\"req_per_s\", \"hit_p50_ms\", \"hit_p99_ms\", \"miss_p50_ms\", \"miss_p90_ms\"]");
  rep.meta("mix_samples_per_pass",
           "{\"hits\": " + std::to_string(passes[0].hit_ms.size()) +
               ", \"misses\": " + std::to_string(passes[0].miss_ms.size()) + "}");
}

// ---------------------------------------------------------------------------
// Batch workloads: suite and raster-33k.

struct BatchWorkload {
  std::vector<std::string> files;          ///< trace files, input order
  std::vector<seq::AddressTrace> warmup;   ///< small cold pass before timing
  std::uint64_t pinned = 0;                ///< expected CSV digest
};

/// Writes the workload's trace files under `dir`.  Untimed input generation.
BatchWorkload make_batch_workload(const std::string& name, const std::string& dir) {
  BatchWorkload w;
  fs::create_directories(dir);
  std::vector<seq::AddressTrace> traces;
  if (name == "suite") {
    // 9 access patterns x geometries 8x8 ... 128x64.
    traces = seq::scaled_suite({8, 8}, 8);
    w.pinned = kSuiteDigest;
    w.warmup.assign(traces.begin(), traces.begin() + 9);
  } else {
    // 57 raster passes over 24x24: 32,832 accesses with a period that is
    // not a power of two.
    const seq::ArrayGeometry g{24, 24};
    std::vector<std::uint32_t> a;
    for (std::size_t r = 0; r < 57; ++r)
      for (std::size_t i = 0; i < g.size(); ++i) a.push_back(static_cast<std::uint32_t>(i));
    traces.emplace_back(g, a, "raster_24x24_33k");
    a.resize(g.size());
    w.warmup.emplace_back(g, a, "raster_24x24_warmup");
    w.pinned = kRasterDigest;
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    char prefix[24];
    std::snprintf(prefix, sizeof prefix, "%03zu_", i);
    w.files.push_back(dir + "/" + prefix + traces[i].name() + ".trace");
    seq::write_trace_file(w.files.back(), traces[i]);
  }
  return w;
}

std::vector<seq::AddressTrace> read_files(const std::vector<std::string>& files) {
  std::vector<seq::AddressTrace> traces;
  for (const std::string& f : files) traces.push_back(seq::read_trace_file(f));
  return traces;
}

core::BatchOptions batch_options() {
  core::BatchOptions opt;
  opt.threads = kBatchThreads;
  opt.explore.verify_front = true;
  return opt;
}

/// Checks one batch report: per-trace errors and the pinned digest.  Every
/// trace is one operation; a digest mismatch fails all of them.
void check_batch_report(Report& rep, const core::BatchResult& r, const std::string& csv,
                        std::uint64_t pinned, const char* what) {
  rep.attempt(r.entries.size());
  std::uint64_t errors = 0;
  for (const auto& e : r.entries)
    if (!e.error.empty()) ++errors;
  if (digest(csv) != pinned) {
    rep.fail(std::string(what) + ": report digest " + hex(digest(csv)) + ", expected " +
                 hex(pinned),
             r.entries.size());
  } else if (errors) {
    rep.fail(std::string(what) + ": " + std::to_string(errors) + " per-trace errors", errors);
  }
}

void batch_e2e(const Args& a, Report& rep) {
  const BatchWorkload w = make_batch_workload(a.workload, a.work_dir + "/traces");
  std::vector<seq::AddressTrace> traces = read_files(w.files);
  {
    core::BatchExplorer ex(batch_options());
    ex.run(w.warmup);
  }

  // Request mix on the explorer the cycle's cold pass warmed: a hit
  // re-requests the workload's trace list (every trace a memo hit), a miss
  // requests one never-seen seeded trace.
  std::unique_ptr<core::BatchExplorer> warm;
  std::string expected;
  std::vector<std::vector<seq::AddressTrace>> miss_inputs;
  std::uint64_t next_miss = 0;
  auto mix_pass = [&](std::size_t requests) {
    miss_inputs.clear();
    for (std::size_t k = 0; k < requests / kMissEvery; ++k)
      miss_inputs.push_back({miss_trace(a.seed, next_miss++)});
    rep.attempt(requests);
    return run_mix_pass(
        requests,
        [&] {
          const core::BatchResult r = warm->run(traces);
          if (core::batch_report_csv(r) != expected)
            rep.fail("hit: report differs from the cold pass");
        },
        [&](std::size_t k) {
          const core::BatchResult r = warm->run(miss_inputs[k]);
          const std::string csv = core::batch_report_csv(r);
          if (r.entries.size() != 1 || !r.entries[0].error.empty() || r.evaluations != 1 ||
              csv.empty())
            rep.fail("miss: expected one explored trace without errors");
        });
  };

  // Each cycle: kSetupRepsPerCycle set-ups (read the trace files, construct
  // the explorer), one cold pass (trace list -> verified CSV in a fresh
  // explorer), one request-mix pass.
  std::vector<double> setup, cold;
  std::vector<MixPass> mix;
  const std::size_t cycles = run_cycles(after(Clock::now(), a.seconds), 2, [&](std::size_t i) {
    for (std::size_t r = 0; r < kSetupRepsPerCycle; ++r) {
      const auto t0 = Clock::now();
      traces = read_files(w.files);
      core::BatchExplorer ex(batch_options());
      setup.push_back(seconds_between(t0, Clock::now()));
    }
    warm = std::make_unique<core::BatchExplorer>(batch_options());
    const auto t0 = Clock::now();
    const core::BatchResult r = warm->run(traces);
    expected = core::batch_report_csv(r);
    cold.push_back(seconds_between(t0, Clock::now()));
    check_batch_report(rep, r, expected, w.pinned, "cold pass");
    if (i == 0) mix_pass(kMixRequests / 10);  // warm-up, unmeasured
    mix.push_back(mix_pass(kMixRequests));
  });
  rep.metric("setup_s", min_of(setup), "s");
  rep.metric("explore_s", min_of(cold), "s");
  report_mix(rep, mix);
  // Peak RSS of the program as a user runs it: one addm_explore process
  // over the workload's trace files, whose report must match the pin too.
  std::string cli_csv;
  long rss_kb = 0;
  const bool cli_ok = run_capture({a.bin_dir + "/addm_explore", "--trace-dir",
                                   a.work_dir + "/traces", "--verify-front", "--threads",
                                   std::to_string(kBatchThreads), "--format", "csv", "--quiet"},
                                  cli_csv, &rss_kb);
  rep.attempt();
  if (!cli_ok || digest(cli_csv) != w.pinned) rep.fail("addm_explore report differs from the pin");
  rep.metric("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MiB");
  rep.meta("cycles", std::to_string(cycles));
  rep.meta("cold_s", json_list(cold));
  rep.meta("setup_s", json_list(setup));
}

// ---------------------------------------------------------------------------
// Per-layer metrics shared by the traced runs.

struct TracedPass {
  double traced_s = 0.0;
  double untraced_s = 0.0;
};

/// Emits every per-layer metric.  Metrics a workload does not exercise are
/// reported as 0 so that every workload prints the same set.
void layer_metrics(Report& rep, const Tracer& tr, const Tally& t, const TracedPass& pass,
                   const std::map<std::string, double>& extra) {
  const auto names = tr.by_name();
  auto self = [&](const char* n) {
    const auto it = names.find(n);
    return it == names.end() ? 0.0 : it->second.self_s;
  };
  auto total = [&](const char* n) {
    const auto it = names.find(n);
    return it == names.end() ? 0.0 : it->second.total_s;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto x = [&](const char* n) {
    const auto it = extra.find(n);
    return it == extra.end() ? 0.0 : it->second;
  };
  const double minimize_calls = static_cast<double>(t.minimize_calls);

  rep.metric("logic.minimize_s", self("logic.minimize"), "s");
  rep.metric("logic.minimize_calls", minimize_calls, "count");
  rep.metric("logic.cubes", static_cast<double>(t.cubes), "count");
  rep.metric("logic.minimize_distinct_ratio",
             ratio(static_cast<double>(t.distinct_functions.size()), minimize_calls), "ratio");
  rep.metric("logic.map_cover_s", self("logic.map_cover"), "s");
  rep.metric("sim.replay_s", self("sim.replay"), "s");
  rep.metric("sim.cycles", static_cast<double>(t.cycles), "count");
  rep.metric("sim.verified_ratio",
             ratio(static_cast<double>(t.verified), static_cast<double>(t.replayed)), "ratio");
  rep.metric("core.reference_s", self("core.reference"), "s");
  rep.metric("synth.fsm_s", self("synth.fsm"), "s");
  rep.metric("synth.counter_decoder_s", self("synth.counter_decoder"), "s");
  rep.metric("core.map_s", self("core.map"), "s");
  rep.metric("core.map_ok_ratio",
             ratio(static_cast<double>(t.map_ok), static_cast<double>(t.map_attempts)), "ratio");
  rep.metric("core.generator_build_s", self("core.generator_build"), "s");
  rep.metric("netlist.sweep_s", self("netlist.sweep"), "s");
  rep.metric("netlist.cells", static_cast<double>(t.cells), "count");
  rep.metric("tech.buffer_s", self("tech.buffer"), "s");
  rep.metric("tech.sta_s", self("tech.sta"), "s");
  rep.metric("tech.area_s", self("tech.area"), "s");
  rep.metric("tech.buffers_added", static_cast<double>(t.buffers_added), "count");
  rep.metric("core.batch_idle_ratio", x("core.batch_idle_ratio"), "ratio");
  rep.metric("core.report_s", self("core.report"), "s");
  rep.metric("core.report_bytes", x("core.report_bytes"), "bytes");
  rep.metric("core.fingerprint_s", self("core.fingerprint"), "s");
  rep.metric("core.memo_hit_ratio", x("core.memo_hit_ratio"), "ratio");
  rep.metric("serve.connect_s", self("serve.connect"), "s");
  rep.metric("serve.codec_s", self("serve.codec"), "s");
  rep.metric("serve.service_s", self("serve.service"), "s");
  rep.metric("serve.roundtrip_s", total("serve.roundtrip"), "s");
  rep.metric("serve.transport_s",
             total("serve.roundtrip") - self("serve.service") - self("serve.codec"), "s");
  rep.metric("serve.bytes", x("serve.bytes"), "bytes");
  rep.metric("serve.errors", x("serve.errors"), "count");
  rep.metric("core.cache_flush_s", self("core.cache_flush"), "s");
  rep.metric("core.cache_entries_stored", x("core.cache_entries_stored"), "count");
  rep.metric("core.evaluations", x("core.evaluations"), "count");
  rep.metric("seq.read_s", self("seq.read"), "s");
  rep.metric("seq.accesses", static_cast<double>(t.accesses), "count");

  // Layer self times and their reconciliation with the traced pass.
  const auto layers = tr.self_by_layer();
  double program = 0.0;
  for (const char* layer : {"seq", "core", "logic", "synth", "netlist", "tech", "sim", "serve"}) {
    const auto it = layers.find(layer);
    const double s = it == layers.end() ? 0.0 : it->second;
    program += s;
    rep.metric(std::string(layer) + ".self_s", s, "s");
  }
  const double gap = ratio(std::abs(pass.traced_s - program), pass.traced_s);
  rep.metric("bench.traced_pass_s", pass.traced_s, "s");
  rep.metric("bench.untraced_pass_s", pass.untraced_s, "s");
  rep.metric("bench.trace_overhead_s", pass.traced_s - pass.untraced_s, "s");
  rep.metric("bench.self_time_gap_ratio", gap, "ratio");
  rep.metric("bench.spans", static_cast<double>(tr.spans().size()), "count");
  rep.check(gap <= kSelfTimeTolerance,
            "layer self times cover the traced pass only to within " + num(gap) +
                " (tolerance " + num(kSelfTimeTolerance) + ")");
}

// ---------------------------------------------------------------------------
// Batch traced run.

/// The traced decomposition of one batch pass: trace files -> fingerprints
/// -> per-candidate builds -> measurement -> front replay -> CSV.
struct DecomposedPass {
  core::BatchResult result;
  std::string csv;
  double wall_s = 0.0;
  double explore_s = 0.0;  ///< serial busy time of the exploration steps
  Tally tally;
};

DecomposedPass decompose_pass(const std::vector<std::string>& files, Tracer& tr) {
  DecomposedPass out;
  core::ExploreOptions opt = batch_options().explore;
  opt.arch_threads = 1;
  const auto t0 = Clock::now();
  {
    Tracer::Scope root(tr, "bench.pass");
    std::vector<seq::AddressTrace> traces;
    for (const std::string& f : files) {
      Tracer::Scope s(tr, "seq.read");
      traces.push_back(seq::read_trace_file(f));
    }
    const auto e0 = Clock::now();
    Decomposer d(opt, tr);
    for (std::size_t i = 0; i < traces.size(); ++i)
      out.result.entries.push_back(d.entry(traces[i], i));
    out.explore_s = seconds_between(e0, Clock::now());
    out.result.traces = traces.size();
    Tracer::Scope s(tr, "core.report");
    out.csv = core::batch_report_csv(out.result);
    out.tally = d.tally();
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

void check_fidelity(Report& rep, const core::BatchResult& reference,
                    const core::BatchResult& rebuilt) {
  bool same = reference.entries.size() == rebuilt.entries.size();
  std::string why = "entry count differs";
  for (std::size_t i = 0; same && i < reference.entries.size(); ++i)
    same = same_entry(reference.entries[i], rebuilt.entries[i], why);
  rep.check(same, "decomposition differs from explore_generators: " + why);
}

void batch_traced(const Args& a, Report& rep) {
  const BatchWorkload w = make_batch_workload(a.workload, a.work_dir + "/traces");
  const std::vector<seq::AddressTrace> traces = read_files(w.files);

  // Untraced reference: the end-to-end cold pass at kBatchThreads.
  core::BatchExplorer ex(batch_options());
  const auto t0 = Clock::now();
  const core::BatchResult reference = ex.run(traces);
  const std::string csv = core::batch_report_csv(reference);
  const double batch_wall = seconds_between(t0, Clock::now());
  check_batch_report(rep, reference, csv, w.pinned, "reference pass");

  Tracer off(false);
  const DecomposedPass untraced = decompose_pass(w.files, off);
  Tracer tr(true);
  tr.set_id(1);
  const DecomposedPass traced = decompose_pass(w.files, tr);
  for (const DecomposedPass* p : {&untraced, &traced}) {
    check_batch_report(rep, p->result, p->csv, w.pinned, "decomposed pass");
    check_fidelity(rep, reference, p->result);
  }

  const Tally& t = traced.tally;
  std::map<std::string, double> extra;
  extra["core.batch_idle_ratio"] =
      1.0 - untraced.explore_s / (static_cast<double>(kBatchThreads) * batch_wall);
  extra["core.report_bytes"] = static_cast<double>(traced.csv.size());
  extra["core.memo_hit_ratio"] =
      static_cast<double>(t.memo_hits) / static_cast<double>(std::max<std::size_t>(t.traces, 1));
  extra["core.evaluations"] = static_cast<double>(t.evaluations);
  layer_metrics(rep, tr, t, {traced.wall_s, untraced.wall_s}, extra);
  rep.meta("batch_pass_s", num(batch_wall));
  if (!a.trace_out.empty() && !tr.write_json(a.trace_out))
    rep.check(false, "cannot write spans to " + a.trace_out);
}

// ---------------------------------------------------------------------------
// serve-mix.

serve::ExploreRequest warm_request() {
  serve::ExploreRequest r;
  r.suite_scales = 3;  // 27 traces, 8x8 ... 16x16
  r.options = {{"verify-front", ""}};
  return r;
}

serve::ExploreRequest miss_request(const seq::AddressTrace& t) {
  serve::ExploreRequest r;
  r.options = {{"verify-front", ""}};
  serve::TraceSource src;
  src.kind = serve::TraceSource::Kind::kInline;
  src.name = t.name();
  src.data = seq::write_trace_string(t);
  r.traces.push_back(std::move(src));
  return r;
}

std::vector<std::string> daemon_argv(const Args& a, const std::string& socket,
                                     const std::string& cache_dir) {
  // --idle-timeout only ends a daemon orphaned by a killed benchmark.
  return {a.bin_dir + "/addm_serve", "--socket", socket, "--threads", "1",
          "--request-threads", "2", "--cache-dir", cache_dir, "--idle-timeout", "120",
          "--quiet"};
}

/// One served request over a fresh connection, as addm_client does.
bool served(const Args& a, const std::string& socket, const serve::ExploreRequest& req,
            serve::ServeClient::Result& out, std::string& err, Tracer* tr = nullptr) {
  serve::ServeClient c;
  c.set_json_mode(a.json_wire);
  bool ok;
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "serve.connect");
    ok = c.connect_unix(socket, err);
  }
  return ok && c.explore(req, out, err);
}

/// Starts a daemon with a fresh cache directory and sends it the warm
/// request.  Returns the set-up time (start -> reply) and, in `cold_s`, the
/// part from the first accepted connection to the reply.
double start_daemon(const Args& a, std::unique_ptr<Daemon>& d, const std::string& socket,
                    const std::string& cache_dir, std::string& body, double& cold_s) {
  fs::remove(socket);
  const auto t0 = Clock::now();
  d = std::make_unique<Daemon>(daemon_argv(a, socket, cache_dir));
  if (!d->running()) throw std::runtime_error("cannot start " + a.bin_dir + "/addm_serve");
  serve::ServeClient c;
  c.set_json_mode(a.json_wire);
  std::string err;
  while (!c.connect_unix(socket, err)) {
    if (seconds_between(t0, Clock::now()) > 30.0)
      throw std::runtime_error("addm_serve did not accept connections: " + err);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    c.close();
  }
  const auto ready = Clock::now();
  serve::ServeClient::Result res;
  if (!c.explore(warm_request(), res, err) || !res.ok)
    throw std::runtime_error("warm request failed: " + err + res.error.message);
  const auto t1 = Clock::now();
  body = std::move(res.body);
  cold_s = seconds_between(ready, t1);
  return seconds_between(t0, t1);
}

void check_warm_body(Report& rep, const std::string& body) {
  rep.attempt();
  if (digest(body) != kServeWarmDigest)
    rep.fail("warm body digest " + hex(digest(body)) + ", expected " + hex(kServeWarmDigest));
}

/// The served warm body must equal the offline addm_explore report.
void check_offline(const Args& a, Report& rep, const std::string& body) {
  std::string offline;
  rep.attempt();
  long rss_kb = 0;
  if (!run_capture({a.bin_dir + "/addm_explore", "--suite", "3", "--verify-front",
                    "--threads", "1", "--format", "csv", "--quiet"},
                   offline, &rss_kb) ||
      offline != body)
    rep.fail("warm body differs from the offline addm_explore report");
}

void serve_e2e(const Args& a, Report& rep) {
  const std::string socket = a.work_dir + "/serve.sock";
  const serve::ExploreRequest warm = warm_request();
  std::unique_ptr<Daemon> d;
  std::string expected;
  std::vector<serve::ExploreRequest> miss_reqs;
  std::uint64_t next_miss = 0;
  auto mix_pass = [&](std::size_t requests) {
    miss_reqs.clear();
    for (std::size_t k = 0; k < requests / kMissEvery; ++k)
      miss_reqs.push_back(miss_request(miss_trace(a.seed, next_miss++)));
    rep.attempt(requests);
    return run_mix_pass(
        requests,
        [&] {
          serve::ServeClient::Result res;
          std::string err;
          if (!served(a, socket, warm, res, err))
            rep.fail("hit: transport error: " + err);
          else if (!res.ok)
            rep.fail("hit: error frame: " + res.error.code + " " + res.error.message);
          else if (res.body != expected || res.summary.errors != 0)
            rep.fail("hit: body differs from the warm body");
        },
        [&](std::size_t k) {
          serve::ServeClient::Result res;
          std::string err;
          if (!served(a, socket, miss_reqs[k], res, err))
            rep.fail("miss: transport error: " + err);
          else if (!res.ok)
            rep.fail("miss: error frame: " + res.error.code + " " + res.error.message);
          else if (res.summary.traces != 1 || res.summary.errors != 0 || res.body.empty())
            rep.fail("miss: expected one trace and zero errors");
        });
  };

  // Each cycle: start a daemon on a fresh cache directory and wait for the
  // warm request's reply (set-up; its cold exploration part is explore_s),
  // run one request-mix pass against it, and stop it (peak RSS).
  std::vector<double> setup, cold;
  std::vector<MixPass> mix;
  long rss_kb = 0;
  auto stop = [&] {
    rss_kb = std::max(rss_kb, d->peak_rss_kb());
    rep.check(d->stop(socket), "addm_serve did not drain cleanly");
  };
  const std::size_t cycles = run_cycles(after(Clock::now(), a.seconds), 2, [&](std::size_t i) {
    if (d) stop();
    double cold_s = 0.0;
    setup.push_back(start_daemon(a, d, socket, a.work_dir + "/cache" + std::to_string(i),
                                 expected, cold_s));
    cold.push_back(cold_s);
    check_warm_body(rep, expected);
    if (i == 0) {
      check_offline(a, rep, expected);
      mix_pass(kMixRequests / 10);  // warm-up, unmeasured
    }
    mix.push_back(mix_pass(kMixRequests));
  });
  stop();
  rep.metric("setup_s", min_of(setup), "s");
  rep.metric("explore_s", min_of(cold), "s");
  report_mix(rep, mix);
  rep.metric("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MiB");
  rep.meta("cycles", std::to_string(cycles));
  rep.meta("cold_s", json_list(cold));
  rep.meta("setup_s", json_list(setup));
}

/// serve-mix traced run.  Each request of a serial pass is encoded and
/// parsed (codec), executed by an in-process ExploreService with the
/// daemon's options (service; its deferred flush is driven from here with
/// the daemon's 16-entry policy so that it can be timed), rebuilt in
/// process (hits: suite generation, memo lookup, report; misses: the full
/// decomposition), and sent to the daemon (roundtrip).  All three bodies
/// must be equal.
void serve_traced(const Args& a, Report& rep) {
  const std::string socket = a.work_dir + "/serve.sock";
  std::unique_ptr<Daemon> d;
  std::string expected;
  double cold_s = 0.0;
  start_daemon(a, d, socket, a.work_dir + "/cache-daemon", expected, cold_s);
  check_warm_body(rep, expected);

  serve::ServiceOptions so;
  so.threads = 1;
  so.cache_dir = a.work_dir + "/cache-mirror";
  so.flush_entries = 0;
  serve::ExploreService mirror(so);
  const serve::ExploreRequest warm = warm_request();
  const auto first = mirror.explore(warm);
  rep.check(first.ok && first.report == expected, "in-process service warm body differs");
  mirror.flush();

  core::BatchOptions hit_opt;
  hit_opt.threads = 1;
  core::BatchExplorer hit_explorer(hit_opt);
  core::ExploreOptions explore_opt;
  explore_opt.verify_front = true;
  hit_explorer.run(seq::scaled_suite({8, 8}, 3), explore_opt);

  std::uint64_t next_miss = 0;
  std::map<std::string, double> extra;
  auto pass = [&](Tracer& tr, Tally& tally) {
    std::vector<serve::ExploreRequest> miss_reqs;
    std::vector<seq::AddressTrace> miss_traces;
    for (std::size_t k = 0; k < kMixRequests / kMissEvery; ++k) {
      miss_traces.push_back(miss_trace(a.seed, next_miss + k));
      miss_reqs.push_back(miss_request(miss_traces.back()));
    }
    next_miss += miss_reqs.size();
    extra.clear();
    std::size_t pending = 0;
    double traces = 0, hits = 0;
    core::ExploreOptions dopt = explore_opt;
    dopt.arch_threads = 1;
    Decomposer dec(dopt, tr);

    const auto t0 = Clock::now();
    {
      Tracer::Scope root(tr, "bench.pass");
      for (std::size_t i = 0; i < kMixRequests; ++i) {
        tr.set_id(static_cast<std::uint32_t>(i));
        const bool is_miss = i % kMissEvery == kMissEvery - 1;
        const serve::ExploreRequest& req = is_miss ? miss_reqs[i / kMissEvery] : warm;
        rep.attempt();

        serve::ExploreRequest parsed;
        std::string payload, err;
        bool parsed_ok;
        {
          Tracer::Scope s(tr, "serve.codec");
          payload = serve::encode_explore_request(req);
          parsed_ok = serve::parse_explore_request(payload, parsed, err);
        }
        serve::ExploreService::ExploreOutcome outcome;
        if (parsed_ok) {
          Tracer::Scope s(tr, "serve.service");
          outcome = mirror.explore(parsed);
        }
        traces += static_cast<double>(outcome.summary.traces);
        hits += static_cast<double>(outcome.summary.cache_hits);
        extra["core.evaluations"] += static_cast<double>(outcome.summary.evaluations);
        pending += outcome.summary.evaluations;
        if (pending >= kFlushEntries) {
          Tracer::Scope s(tr, "core.cache_flush");
          extra["core.cache_entries_stored"] += static_cast<double>(mirror.flush().stored);
          pending = 0;
        }

        std::string rebuilt;
        if (is_miss) {
          core::BatchResult r;
          r.entries.push_back(dec.entry(miss_traces[i / kMissEvery], 0));
          Tracer::Scope s(tr, "core.report");
          rebuilt = core::batch_report_csv(r);
        } else {
          std::vector<seq::AddressTrace> suite;
          {
            Tracer::Scope s(tr, "seq.suite");
            suite = seq::scaled_suite({8, 8}, 3);
          }
          {
            Tracer::Scope s(tr, "core.fingerprint");
            for (const auto& t : suite) core::trace_fingerprint(t);
          }
          core::BatchResult r;
          {
            Tracer::Scope s(tr, "core.memo");
            r = hit_explorer.run(suite, explore_opt);
          }
          Tracer::Scope s(tr, "core.report");
          rebuilt = core::batch_report_csv(r);
        }
        extra["core.report_bytes"] += static_cast<double>(rebuilt.size());

        serve::ServeClient::Result res;
        bool sent;
        {
          Tracer::Scope s(tr, "serve.roundtrip");
          sent = served(a, socket, req, res, err, &tr);
        }
        extra["serve.bytes"] += static_cast<double>(payload.size() + res.body.size());
        const bool ok = parsed_ok && outcome.ok && sent && res.ok &&
                        res.body == outcome.report && res.body == rebuilt &&
                        res.summary.errors == 0 &&
                        (is_miss ? res.summary.traces == 1 : res.body == expected);
        if (!ok) {
          extra["serve.errors"] += 1;
          rep.fail(std::string(is_miss ? "miss" : "hit") + " request " + std::to_string(i) +
                   ": served, in-process service and rebuilt bodies disagree or errored " + err);
        }
      }
    }
    extra["core.memo_hit_ratio"] = traces > 0 ? hits / traces : 0.0;
    tally = dec.tally();
    return seconds_between(t0, Clock::now());
  };

  Tracer off(false);
  Tally untraced_tally, tally;
  const double untraced_s = pass(off, untraced_tally);
  Tracer tr(true);
  const double traced_s = pass(tr, tally);
  layer_metrics(rep, tr, tally, {traced_s, untraced_s}, extra);

  rep.check(d->stop(socket), "addm_serve did not drain cleanly");
  if (!a.trace_out.empty() && !tr.write_json(a.trace_out))
    rep.check(false, "cannot write spans to " + a.trace_out);
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--wire") a.json_wire = v == "json";
    else if (k == "--bin-dir") a.bin_dir = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--rev") a.rev = v;
    else if (k == "--src-digest") a.src_digest = v;
    else return false;
  }
  return (a.workload == "suite" || a.workload == "raster-33k" || a.workload == "serve-mix") &&
         a.seconds > 0 && !a.bin_dir.empty() && !a.work_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    if (!parse_args(argc, argv, a)) {
      std::fprintf(stderr, "usage: %s --workload suite|raster-33k|serve-mix --seed N "
                           "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
                           "[--wire binary|json] [--trace-out FILE] [--rev R] "
                           "[--src-digest D]\n", argv[0]);
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s: bad numeric argument\n", argv[0]);
    return 2;
  }

  Report rep;
  rep.meta("workload", json_str(a.workload));
  rep.meta("seed", std::to_string(a.seed));
  rep.meta("trace", a.trace ? "true" : "false");
  rep.meta("wire", json_str(a.json_wire ? "json" : "binary"));
  rep.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.meta("compiler", json_str(PERFBENCH_COMPILER));
  rep.meta("build_type", json_str(PERFBENCH_BUILD_TYPE));
  rep.meta("git_revision", json_str(a.rev));
  rep.meta("source_digest", json_str(a.src_digest));
  try {
    fs::create_directories(a.work_dir);
    const bool serve = a.workload == "serve-mix";
    if (a.trace)
      serve ? serve_traced(a, rep) : batch_traced(a, rep);
    else
      serve ? serve_e2e(a, rep) : batch_e2e(a, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.print();
  return 0;
}
