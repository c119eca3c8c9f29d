#include "core/batch_explorer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/eval_cache.hpp"
#include "core/fingerprint.hpp"
#include "core/thread_pool.hpp"

namespace addm::core {

namespace {

/// Warm-start hit counts per (trace, options) cache key; std::map iterates
/// in key order, so hit records are written deterministically.
using HitCounts = std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>;

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_fixed6(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}

/// Appends `s` as one CSV field, quoted when it holds a separator.
void append_csv(std::string& out, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out += s;
    return;
  }
  out += '"';
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

/// Appends `s` as a JSON string literal.
void append_json(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// What each report writes before each of a feasible point's seven metrics.
using MetricSeparators = std::array<std::string_view, 7>;
constexpr MetricSeparators kCsvMetricSeparators = {"", ",", ",", ",", ",", ",", ","};
constexpr MetricSeparators kJsonMetricSeparators = {
    ", \"area_units\": ", ", \"delay_ns\": ", ", \"clk_to_out_ns\": ",
    ", \"reg_to_reg_ns\": ", ", \"cells\": ", ", \"flipflops\": ",
    ", \"buffers_added\": "};

void append_metrics(std::string& out, const GeneratorMetrics& m, const MetricSeparators& sep) {
  out += sep[0];
  append_fixed6(out, m.area_units);
  out += sep[1];
  append_fixed6(out, m.delay_ns);
  out += sep[2];
  append_fixed6(out, m.clk_to_out_ns);
  out += sep[3];
  append_fixed6(out, m.reg_to_reg_ns);
  out += sep[4];
  append_uint(out, m.cells);
  out += sep[5];
  append_uint(out, m.flipflops);
  out += sep[6];
  append_uint(out, m.buffers_added);
}

/// One outcome's CSV rows, each without the entry prefix it follows in a
/// report (it starts at the comma after the trace hash).
struct CsvRows {
  std::string text;               ///< every row, concatenated
  std::vector<std::size_t> ends;  ///< end offset of each row in `text`
};

CsvRows render_csv_rows(const std::vector<DesignPoint>& points,
                        const std::vector<std::size_t>& pareto, const std::string& error) {
  CsvRows rows;
  std::string& t = rows.text;
  if (!error.empty()) {
    t += ",,error,,,,,,,,,";
    append_csv(t, error);
    t += '\n';
    rows.ends.push_back(t.size());
    return rows;
  }
  rows.ends.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignPoint& p = points[i];
    const bool on_front = std::find(pareto.begin(), pareto.end(), i) != pareto.end();
    t += ',';
    append_csv(t, p.architecture);
    t += p.feasible ? ",yes," : ",no,";
    t += on_front ? "yes," : "no,";
    if (p.feasible) {
      append_metrics(t, p.metrics, kCsvMetricSeparators);
    } else {
      t += ",,,,,,";
    }
    t += ',';
    append_csv(t, p.note);
    t += '\n';
    rows.ends.push_back(t.size());
  }
  return rows;
}

}  // namespace

/// The CSV rows are rendered in the thread of the first report that needs
/// them, never at evaluation time, so an outcome no CSV report asks for
/// keeps no bytes for them.
struct BatchOutcome {
  std::vector<DesignPoint> points;
  std::vector<std::size_t> pareto;
  std::string error;

  // Cached rows drop their growth slack: they live as long as the outcome.
  const CsvRows& csv_rows() const {
    std::call_once(csv_once_, [&] {
      csv_ = render_csv_rows(points, pareto, error);
      csv_.text.shrink_to_fit();
    });
    return csv_;
  }

 private:
  mutable std::once_flag csv_once_;
  mutable CsvRows csv_;
};

namespace {

std::shared_ptr<const BatchOutcome> evaluate_trace(const seq::AddressTrace& trace,
                                                   const ExploreOptions& opt) {
  auto out = std::make_shared<BatchOutcome>();
  try {
    out->points = explore_generators(trace, opt);
    out->pareto = pareto_front(out->points);
  } catch (const std::exception& e) {
    out->points.clear();
    out->pareto.clear();
    out->error = e.what();
  }
  return out;
}

/// An entry's CSV rows: its outcome's cached rows while its fields still
/// hold what the outcome holds, else rendered from the fields into `owned`
/// (an entry built by hand, or one whose fields were changed after run()).
const CsvRows& csv_rows_of(const BatchEntry& e, CsvRows& owned) {
  if (e.outcome && e.error == e.outcome->error && e.pareto == e.outcome->pareto &&
      e.points == e.outcome->points)
    return e.outcome->csv_rows();
  owned = render_csv_rows(e.points, e.pareto, e.error);
  return owned;
}

}  // namespace

struct BatchExplorer::Impl {
  std::mutex mu;
  /// Keyed by (trace fingerprint ^ rotated options fingerprint). The mapped
  /// shared_future lets a second worker that races on the same trace block
  /// on the first evaluation instead of recomputing it.
  std::unordered_map<std::uint64_t, std::shared_future<std::shared_ptr<const BatchOutcome>>> cache;
  /// Keys (same combined form) whose outcomes were warm-started from the
  /// persistent cache directory: traces resolving to these count as disk
  /// hits, independent of scheduling.
  std::unordered_set<std::uint64_t> disk_keys;
  /// Successful evaluations and warm-start hit counts awaiting
  /// flush_disk(), guarded by `mu`.  pending_keys mirrors pending_entries
  /// so a key is never queued twice across runs.
  std::vector<EvalCacheEntry> pending_entries;
  std::unordered_set<std::uint64_t> pending_keys;
  HitCounts pending_hits;
  /// Serializes every write this process makes to the cache directory
  /// (store_batch, record_hits, budget prune): the eval-cache maintenance
  /// operations assume no concurrent writer, and the serve daemon calls
  /// flush_disk() from several threads.
  std::mutex flush_mu;
};

namespace {

std::uint64_t combined_key(std::uint64_t trace_fp, std::uint64_t opt_fp) {
  return trace_fp ^ (opt_fp << 1 | opt_fp >> 63);
}

}  // namespace

BatchExplorer::BatchExplorer(BatchOptions opt) : opt_(std::move(opt)), impl_(new Impl) {}

BatchExplorer::~BatchExplorer() { delete impl_; }

std::size_t BatchExplorer::cache_size() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->cache.size();
}

void BatchExplorer::clear_cache() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->cache.clear();
  impl_->disk_keys.clear();
}

std::size_t BatchExplorer::pending_flush() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->pending_entries.size();
}

BatchExplorer::FlushStats BatchExplorer::flush_disk() {
  if (opt_.cache_dir.empty() || !opt_.memoize) return {};
  // One writer at a time: flush_mu serializes this process's store/record/
  // prune sequence so the budget prune never runs under a concurrent write.
  std::lock_guard<std::mutex> flush_lk(impl_->flush_mu);
  std::vector<EvalCacheEntry> batch;
  HitCounts hits;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    batch.swap(impl_->pending_entries);
    impl_->pending_keys.clear();
    hits.swap(impl_->pending_hits);
  }
  // Store the batch under one insertion generation, credit the hits to
  // their entries (prune's eviction priority feeds on them), then prune
  // back under the byte budget when one is set.
  FlushStats stats;
  EvalCacheDir store(opt_.cache_dir);
  if (!batch.empty()) stats.stored = store.store_batch(batch);
  if (!hits.empty()) {
    std::vector<std::pair<EvalCacheKey, std::uint64_t>> credit;
    credit.reserve(hits.size());
    for (const auto& [key, count] : hits)
      credit.push_back({{key.first, key.second}, count});
    store.record_hits(credit);
  }
  if (opt_.cache_budget_bytes != 0) {
    const EvalCacheDir::MaintenanceStats pruned =
        store.prune(UINT64_MAX, opt_.cache_budget_bytes);
    if (pruned.ok) stats.evicted = pruned.evicted;
  }
  return stats;
}

BatchResult BatchExplorer::run(const std::vector<seq::AddressTrace>& traces) {
  return run(traces, opt_.explore);
}

BatchResult BatchExplorer::run(const std::vector<seq::AddressTrace>& traces,
                               const ExploreOptions& explore) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t opt_fp = options_fingerprint(explore);
  const bool use_disk = opt_.memoize && !opt_.cache_dir.empty();

  BatchResult result;
  result.traces = traces.size();
  result.entries.resize(traces.size());

  // Warm start: probe the cache directory for exactly the keys this run
  // needs (entry filenames derive from the key, so no index scan — cost is
  // O(inputs), not O(cache size)) and resolve hits into the memo table
  // before any worker runs.  Probing every run() also picks up entries
  // stored by concurrent processes since the last one.  Disk damage shows
  // up as failed probes, never as a failure.  The workers reuse the
  // probe's fingerprints; without a probe they hash in parallel.
  std::vector<std::uint64_t> probed_fps;
  if (use_disk) {
    EvalCacheDir store(opt_.cache_dir);
    std::unordered_set<std::uint64_t> probed;
    probed_fps.reserve(traces.size());
    for (const seq::AddressTrace& trace : traces) {
      const std::uint64_t trace_fp = trace_fingerprint(trace);
      probed_fps.push_back(trace_fp);
      const std::uint64_t key = combined_key(trace_fp, opt_fp);
      if (!probed.insert(key).second) continue;
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        if (impl_->cache.count(key)) continue;
      }
      EvalCacheEntry e;
      if (!store.load_entry({trace_fp, opt_fp}, e)) continue;
      auto outcome = std::make_shared<BatchOutcome>();
      outcome->points = std::move(e.points);
      outcome->pareto = std::move(e.pareto);
      std::promise<std::shared_ptr<const BatchOutcome>> ready;
      ready.set_value(std::move(outcome));
      std::lock_guard<std::mutex> lk(impl_->mu);
      if (impl_->cache.try_emplace(key, ready.get_future().share()).second) {
        impl_->disk_keys.insert(key);
        ++result.disk_entries_loaded;
      }
    }
  }

  // Two-level scheduler: opt_.threads is the TOTAL thread budget.  The
  // inner level (per-trace candidate fan-out, ExploreOptions::arch_threads)
  // gets its request capped at the budget; the outer level (traces) gets
  // budget / inner workers, so outer × inner never oversubscribes.  Pure
  // scheduling — fingerprints ignore arch_threads and every split yields
  // byte-identical entries.
  const ThreadSplit split = split_threads(opt_.threads, explore.arch_threads);
  ExploreOptions worker_opt = explore;
  worker_opt.arch_threads = split.inner;

  std::mutex stats_mu;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t disk_hits = 0;
  /// Owner-evaluated successful outcomes, queued for flush_disk() after
  /// the run.
  std::vector<EvalCacheEntry> fresh;
  /// Disk-hit counts per cache key, likewise queued.
  HitCounts disk_hit_counts;

  auto work = [&](std::size_t i) {
    const seq::AddressTrace& trace = traces[i];
    BatchEntry& entry = result.entries[i];
    entry.name = trace.name().empty() ? "trace" + std::to_string(i) : trace.name();
    entry.geometry = trace.geometry();
    entry.trace_length = trace.length();
    entry.trace_hash = use_disk ? probed_fps[i] : trace_fingerprint(trace);
    const std::uint64_t key = combined_key(entry.trace_hash, opt_fp);

    std::shared_ptr<const BatchOutcome> outcome;
    if (!opt_.memoize) {
      outcome = evaluate_trace(trace, worker_opt);
      std::lock_guard<std::mutex> lk(stats_mu);
      ++evaluations;
    } else {
      std::promise<std::shared_ptr<const BatchOutcome>> promise;
      std::shared_future<std::shared_ptr<const BatchOutcome>> future;
      bool owner = false;
      bool from_disk = false;
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        auto [it, inserted] = impl_->cache.try_emplace(key);
        if (inserted) {
          it->second = promise.get_future().share();
          owner = true;
        } else {
          from_disk = impl_->disk_keys.count(key) != 0;
        }
        future = it->second;
      }
      if (owner) {
        auto computed = evaluate_trace(trace, worker_opt);
        promise.set_value(computed);
        std::lock_guard<std::mutex> lk(stats_mu);
        ++evaluations;
        if (use_disk && computed->error.empty())
          fresh.push_back({{entry.trace_hash, opt_fp}, computed->points, computed->pareto});
      } else {
        std::lock_guard<std::mutex> lk(stats_mu);
        if (from_disk) {
          ++disk_hits;
          if (use_disk) ++disk_hit_counts[{entry.trace_hash, opt_fp}];
        } else {
          ++cache_hits;
        }
      }
      outcome = future.get();
    }

    entry.points = outcome->points;
    entry.pareto = outcome->pareto;
    entry.error = outcome->error;
    entry.outcome = std::move(outcome);
  };

  // One trace, or a budget of one, runs on the calling thread.
  parallel_for(split.outer, traces.size(), work);

  // Queue this run's newly computed successes and hit counts for the next
  // flush_disk(), so the caller decides when (and under which lock) the
  // directory is touched.  Errors are never cached (a transient failure
  // must not become permanent).  Owners finish — and, with duplicated
  // traces, are even *chosen* — in scheduling order; flush_disk() sorts
  // them away.
  if (use_disk) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (EvalCacheEntry& e : fresh)
      if (impl_->pending_keys.insert(combined_key(e.key.trace_hash, opt_fp)).second)
        impl_->pending_entries.push_back(std::move(e));
    for (const auto& [key, count] : disk_hit_counts) impl_->pending_hits[key] += count;
  }

  result.evaluations = evaluations;
  result.cache_hits = cache_hits;
  result.disk_hits = disk_hits;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::string batch_report_csv(const BatchResult& result) {
  std::string out =
      "trace,width,height,length,trace_hash,architecture,feasible,pareto,"
      "area_units,delay_ns,clk_to_out_ns,reg_to_reg_ns,cells,flipflops,"
      "buffers_added,note\n";
  std::string prefix;
  CsvRows owned;
  for (const BatchEntry& e : result.entries) {
    prefix.clear();
    append_csv(prefix, e.name);
    prefix += ',';
    append_uint(prefix, e.geometry.width);
    prefix += ',';
    append_uint(prefix, e.geometry.height);
    prefix += ',';
    append_uint(prefix, e.trace_length);
    prefix += ',';
    prefix += hex64(e.trace_hash);
    const CsvRows& rows = csv_rows_of(e, owned);
    std::size_t begin = 0;
    for (std::size_t end : rows.ends) {
      out += prefix;
      out.append(rows.text, begin, end - begin);
      begin = end;
    }
  }
  return out;
}

std::string batch_report_json(const BatchResult& result) {
  // Only input-determined data may appear here: evaluation/cache counters
  // depend on cache warmth and sharding, and would break the byte-identical
  // merge contract.  They are reported out-of-band (stderr in the CLI).
  std::string out = "{\n  \"summary\": {\"traces\": ";
  append_uint(out, result.traces);
  out += "},\n  \"traces\": [\n";
  for (std::size_t t = 0; t < result.entries.size(); ++t) {
    const BatchEntry& e = result.entries[t];
    out += "    {\n      \"name\": ";
    append_json(out, e.name);
    out += ",\n      \"geometry\": [";
    append_uint(out, e.geometry.width);
    out += ", ";
    append_uint(out, e.geometry.height);
    out += "],\n      \"length\": ";
    append_uint(out, e.trace_length);
    out += ",\n      \"trace_hash\": \"";
    out += hex64(e.trace_hash);
    out += "\",\n";
    if (!e.error.empty()) {
      out += "      \"error\": ";
      append_json(out, e.error);
      out += '\n';
    } else {
      out += "      \"pareto\": [";
      for (std::size_t i = 0; i < e.pareto.size(); ++i) {
        if (i) out += ", ";
        append_uint(out, e.pareto[i]);
      }
      out += "],\n      \"points\": [\n";
      for (std::size_t i = 0; i < e.points.size(); ++i) {
        const DesignPoint& p = e.points[i];
        out += "        {\"architecture\": ";
        append_json(out, p.architecture);
        out += p.feasible ? ", \"feasible\": true" : ", \"feasible\": false";
        if (p.feasible) append_metrics(out, p.metrics, kJsonMetricSeparators);
        out += ", \"note\": ";
        append_json(out, p.note);
        out += i + 1 < e.points.size() ? "},\n" : "}\n";
      }
      out += "      ]\n";
    }
    out += t + 1 < result.entries.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace addm::core
