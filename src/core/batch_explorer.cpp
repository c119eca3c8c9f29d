#include "core/batch_explorer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
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

/// What one exploration produces. Cache entries and racing waiters share one
/// immutable Outcome (recompute avoidance); each BatchEntry then takes its
/// own copy of the vectors, keeping the public result type plain-value.
struct Outcome {
  std::vector<DesignPoint> points;
  std::vector<std::size_t> pareto;
  std::string error;
};

std::shared_ptr<const Outcome> evaluate_trace(const seq::AddressTrace& trace,
                                              const ExploreOptions& opt) {
  auto out = std::make_shared<Outcome>();
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

std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string q = "\"";
  for (char c : s) {
    if (c == '"') q += '"';
    q += c;
  }
  q += '"';
  return q;
}

std::string json_quote(const std::string& s) {
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

}  // namespace

struct BatchExplorer::Impl {
  std::mutex mu;
  /// Keyed by (trace fingerprint ^ rotated options fingerprint). The mapped
  /// shared_future lets a second worker that races on the same trace block
  /// on the first evaluation instead of recomputing it.
  std::unordered_map<std::uint64_t, std::shared_future<std::shared_ptr<const Outcome>>> cache;
  /// Keys (same combined form) whose outcomes were warm-started from the
  /// persistent cache directory: traces resolving to these count as disk
  /// hits, independent of scheduling.
  std::unordered_set<std::uint64_t> disk_keys;
  /// Deferred-flush state (BatchOptions::defer_disk_flush): successful
  /// evaluations and warm-start hit counts awaiting flush_disk(), guarded
  /// by `mu`.  pending_keys mirrors pending_entries so a key is never
  /// queued twice across runs.
  std::vector<EvalCacheEntry> pending_entries;
  std::unordered_set<std::uint64_t> pending_keys;
  HitCounts pending_hits;
  /// Serializes every write this process makes to the cache directory
  /// (store_batch, record_hits, budget prune): the eval-cache maintenance
  /// operations assume no concurrent writer, and the serve daemon calls
  /// run()/flush_disk() from several threads.
  std::mutex flush_mu;
};

namespace {

std::uint64_t combined_key(std::uint64_t trace_fp, std::uint64_t opt_fp) {
  return trace_fp ^ (opt_fp << 1 | opt_fp >> 63);
}

// The one write path into the cache directory: stores `batch` under one
// insertion generation, credits `hits` to their entries (prune's eviction
// priority feeds on them), then prunes the directory back under the byte
// budget when one is set.  The caller holds flush_mu.
BatchExplorer::FlushStats write_cache(const BatchOptions& opt,
                                      const std::vector<EvalCacheEntry>& batch,
                                      const HitCounts& hits) {
  BatchExplorer::FlushStats stats;
  EvalCacheDir store(opt.cache_dir);
  if (!batch.empty()) stats.stored = store.store_batch(batch);
  if (!hits.empty()) {
    std::vector<std::pair<EvalCacheKey, std::uint64_t>> credit;
    credit.reserve(hits.size());
    for (const auto& [key, count] : hits)
      credit.push_back({{key.first, key.second}, count});
    store.record_hits(credit);
  }
  if (opt.cache_budget_bytes != 0) {
    const EvalCacheDir::MaintenanceStats pruned =
        store.prune(UINT64_MAX, opt.cache_budget_bytes);
    if (pruned.ok) stats.evicted = pruned.evicted;
  }
  return stats;
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
  return write_cache(opt_, batch, hits);
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
  // up as failed probes, never as a failure.
  if (use_disk) {
    EvalCacheDir store(opt_.cache_dir);
    std::unordered_set<std::uint64_t> probed;
    for (const seq::AddressTrace& trace : traces) {
      const std::uint64_t trace_fp = trace_fingerprint(trace);
      const std::uint64_t key = combined_key(trace_fp, opt_fp);
      if (!probed.insert(key).second) continue;
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        if (impl_->cache.count(key)) continue;
      }
      EvalCacheEntry e;
      if (!store.load_entry({trace_fp, opt_fp}, e)) continue;
      auto outcome = std::make_shared<Outcome>();
      outcome->points = std::move(e.points);
      outcome->pareto = std::move(e.pareto);
      std::promise<std::shared_ptr<const Outcome>> ready;
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
  /// Owner-evaluated successful outcomes, flushed to disk after the run.
  std::vector<EvalCacheEntry> fresh;
  /// Disk-hit counts per cache key, credited to the persistent cache after
  /// the run.
  HitCounts disk_hit_counts;

  auto work = [&](std::size_t i) {
    const seq::AddressTrace& trace = traces[i];
    BatchEntry& entry = result.entries[i];
    entry.name = trace.name().empty() ? "trace" + std::to_string(i) : trace.name();
    entry.geometry = trace.geometry();
    entry.trace_length = trace.length();
    entry.trace_hash = trace_fingerprint(trace);
    const std::uint64_t key = combined_key(entry.trace_hash, opt_fp);

    std::shared_ptr<const Outcome> outcome;
    if (!opt_.memoize) {
      outcome = evaluate_trace(trace, worker_opt);
      std::lock_guard<std::mutex> lk(stats_mu);
      ++evaluations;
    } else {
      std::promise<std::shared_ptr<const Outcome>> promise;
      std::shared_future<std::shared_ptr<const Outcome>> future;
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
  };

  ThreadPool pool(split.outer);
  pool.parallel_for(traces.size(), work);

  // Flush: persist this run's newly computed successes.  Errors are never
  // cached (a transient failure must not become permanent), and I/O errors
  // only cost the entry.  Owners finish — and, with duplicated traces, are
  // even *chosen* — in scheduling order, but store_batch writes the batch
  // in cache-key order under one insertion generation, so cache directories
  // (index.txt line order included) come out byte-identical at every thread
  // split.
  if (use_disk && opt_.defer_disk_flush) {
    // Daemon mode: queue this run's successes and hit counts for the next
    // flush_disk() instead of writing here, so a long-lived process decides
    // when (and under which lock) the directory is touched.
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (EvalCacheEntry& e : fresh)
      if (impl_->pending_keys.insert(combined_key(e.key.trace_hash, opt_fp)).second)
        impl_->pending_entries.push_back(std::move(e));
    for (const auto& [key, count] : disk_hit_counts) impl_->pending_hits[key] += count;
  } else if (use_disk) {
    // flush_mu: concurrent run()s must not interleave their writes.
    std::lock_guard<std::mutex> flush_lk(impl_->flush_mu);
    const FlushStats written = write_cache(opt_, fresh, disk_hit_counts);
    result.disk_entries_stored = written.stored;
    result.disk_entries_evicted = written.evicted;
  }

  result.evaluations = evaluations;
  result.cache_hits = cache_hits;
  result.disk_hits = disk_hits;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::string batch_report_csv(const BatchResult& result) {
  std::ostringstream os;
  os << "trace,width,height,length,trace_hash,architecture,feasible,pareto,"
        "area_units,delay_ns,clk_to_out_ns,reg_to_reg_ns,cells,flipflops,"
        "buffers_added,note\n";
  for (const BatchEntry& e : result.entries) {
    const std::string prefix = csv_quote(e.name) + "," + std::to_string(e.geometry.width) +
                               "," + std::to_string(e.geometry.height) + "," +
                               std::to_string(e.trace_length) + "," + hex64(e.trace_hash);
    if (!e.error.empty()) {
      os << prefix << ",,error,,,,,,,,," << csv_quote(e.error) << "\n";
      continue;
    }
    for (std::size_t i = 0; i < e.points.size(); ++i) {
      const DesignPoint& p = e.points[i];
      const bool on_front =
          std::find(e.pareto.begin(), e.pareto.end(), i) != e.pareto.end();
      os << prefix << "," << csv_quote(p.architecture) << ","
         << (p.feasible ? "yes" : "no") << "," << (on_front ? "yes" : "no") << ",";
      if (p.feasible) {
        os << fixed6(p.metrics.area_units) << "," << fixed6(p.metrics.delay_ns) << ","
           << fixed6(p.metrics.clk_to_out_ns) << "," << fixed6(p.metrics.reg_to_reg_ns)
           << "," << p.metrics.cells << "," << p.metrics.flipflops << ","
           << p.metrics.buffers_added;
      } else {
        os << ",,,,,,";
      }
      os << "," << csv_quote(p.note) << "\n";
    }
  }
  return os.str();
}

std::string batch_report_json(const BatchResult& result) {
  std::ostringstream os;
  os << "{\n";
  // Only input-determined data may appear here: evaluation/cache counters
  // depend on cache warmth and sharding, and would break the byte-identical
  // merge contract.  They are reported out-of-band (stderr in the CLI).
  os << "  \"summary\": {\"traces\": " << result.traces << "},\n";
  os << "  \"traces\": [\n";
  for (std::size_t t = 0; t < result.entries.size(); ++t) {
    const BatchEntry& e = result.entries[t];
    os << "    {\n";
    os << "      \"name\": " << json_quote(e.name) << ",\n";
    os << "      \"geometry\": [" << e.geometry.width << ", " << e.geometry.height
       << "],\n";
    os << "      \"length\": " << e.trace_length << ",\n";
    os << "      \"trace_hash\": \"" << hex64(e.trace_hash) << "\",\n";
    if (!e.error.empty()) {
      os << "      \"error\": " << json_quote(e.error) << "\n";
    } else {
      os << "      \"pareto\": [";
      for (std::size_t i = 0; i < e.pareto.size(); ++i)
        os << (i ? ", " : "") << e.pareto[i];
      os << "],\n";
      os << "      \"points\": [\n";
      for (std::size_t i = 0; i < e.points.size(); ++i) {
        const DesignPoint& p = e.points[i];
        os << "        {\"architecture\": " << json_quote(p.architecture)
           << ", \"feasible\": " << (p.feasible ? "true" : "false");
        if (p.feasible) {
          os << ", \"area_units\": " << fixed6(p.metrics.area_units)
             << ", \"delay_ns\": " << fixed6(p.metrics.delay_ns)
             << ", \"clk_to_out_ns\": " << fixed6(p.metrics.clk_to_out_ns)
             << ", \"reg_to_reg_ns\": " << fixed6(p.metrics.reg_to_reg_ns)
             << ", \"cells\": " << p.metrics.cells
             << ", \"flipflops\": " << p.metrics.flipflops
             << ", \"buffers_added\": " << p.metrics.buffers_added;
        }
        os << ", \"note\": " << json_quote(p.note) << "}"
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

}  // namespace addm::core
