// Batch design-space exploration: run explore_generators over a whole suite
// of address traces concurrently, aggregate per-trace Pareto fronts, and
// memoize repeated (trace, options) evaluations — in memory within one
// process, and optionally on disk across processes (core/eval_cache).
//
// Determinism contract: for a fixed input trace list and options, the
// BatchResult entries — and therefore batch_report_csv / batch_report_json —
// are byte-identical regardless of thread count (outer `threads` and inner
// `explore.arch_threads` alike), scheduling, or cache state (cold,
// memo-warm, or disk-warm); newly flushed cache directories are likewise
// byte-identical (entries are canonical and the index is written in cache-
// key order).  Entries are ordered by input position; nothing schedule- or
// cache-dependent (timings, worker ids, hit counts) enters the serialized
// reports.  Cache statistics live only in BatchResult
// fields: they are deterministic for a fixed input and cache state, but a
// warm disk cache turns evaluations into disk_hits, so they are *not* part
// of any report.  This is what makes sharded runs mergeable byte-for-byte
// (see tools/addm_merge and docs/cache-format.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::core {

/// Configuration for one BatchExplorer.  Value type; copying is cheap
/// relative to an exploration.
struct BatchOptions {
  /// Per-trace exploration knobs.  `explore.arch_threads` requests the
  /// inner (per-trace candidate) parallelism level; run() feeds it and
  /// `threads` through split_threads (core/thread_pool) so outer × inner
  /// workers never exceed the `threads` budget.
  ExploreOptions explore;
  /// TOTAL worker-thread budget across both scheduling levels (traces ×
  /// architectures); 0 means std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Reuse results across identical (trace, options) pairs, including across
  /// successive run() calls on the same BatchExplorer.
  bool memoize = true;
  /// When non-empty, the directory of a persistent evaluation cache
  /// (core/eval_cache).  Each run() probes the store for exactly the input
  /// traces' (trace, options) keys — O(inputs), not O(cache size) — and
  /// never writes it: newly computed results and warm-start hit counts
  /// accumulate in memory (pending_flush() reports how many) until
  /// flush_disk() persists them.  That one serialized writer is what lets
  /// a long-lived process run explorations concurrently while honoring the
  /// eval-cache maintenance contract ("compact/prune assume no concurrent
  /// writer").  Multiple concurrent processes may share one directory.
  /// Requires `memoize`; ignored when memoization is disabled.
  std::string cache_dir;
  /// When non-zero, an on-disk size budget (total payload bytes) enforced
  /// at every flush_disk() call, even one with nothing pending, by pruning
  /// the cache directory in the deterministic eviction order of
  /// EvalCacheDir::prune, so a bounded directory stays bounded across
  /// runs.  Lifecycle-only: it never affects results and is not
  /// fingerprinted.  Requires `cache_dir`.
  std::uint64_t cache_budget_bytes = 0;
};

/// One memo outcome (defined in batch_explorer.cpp): an exploration's
/// points, front and error, shared by the memo table, racing waiters and
/// every entry that resolves to it, plus its CSV rows, rendered once by the
/// first CSV report that needs them.
struct BatchOutcome;

/// Per-trace exploration outcome, in input order.  Value type: every field
/// is a pure function of the input trace and ExploreOptions (copies share
/// the immutable `outcome`).
struct BatchEntry {
  std::string name;             ///< trace name (or "trace<N>" when unnamed)
  seq::ArrayGeometry geometry;
  std::size_t trace_length = 0;
  std::uint64_t trace_hash = 0;  ///< trace_fingerprint of the input
  std::vector<DesignPoint> points;
  std::vector<std::size_t> pareto;  ///< indices into `points`
  std::string error;  ///< non-empty iff exploration threw for this trace
  /// The memo outcome `points`, `pareto` and `error` were copied from; only
  /// BatchExplorer::run sets it.  While those fields still equal the
  /// outcome's, the CSV report reuses its rendered rows instead of rendering
  /// them again.  An entry without one (built by hand), or whose fields were
  /// changed, is rendered from its fields by the same row code.
  std::shared_ptr<const BatchOutcome> outcome;
};

/// Result of one run().  `entries` (and reports built from them) depend only
/// on the inputs; the counters additionally depend on cache state and are
/// therefore reported out-of-band (stderr in the CLI), never serialized.
struct BatchResult {
  std::vector<BatchEntry> entries;  ///< one per input trace, input order
  std::size_t traces = 0;
  std::size_t evaluations = 0;  ///< explorations actually executed
  std::size_t cache_hits = 0;   ///< traces served from the in-memory memo table
  std::size_t disk_hits = 0;    ///< traces served from entries loaded off disk
  std::size_t disk_entries_loaded = 0;  ///< options-matching entries warm-started
  double wall_seconds = 0.0;    ///< not part of any serialized report
};

/// Concurrent, memoizing driver around explore_generators.  One instance
/// owns one in-memory memo table (and, when configured, one handle to a
/// persistent cache directory).
class BatchExplorer {
 public:
  explicit BatchExplorer(BatchOptions opt = {});
  ~BatchExplorer();
  BatchExplorer(const BatchExplorer&) = delete;
  BatchExplorer& operator=(const BatchExplorer&) = delete;

  const BatchOptions& options() const { return opt_; }

  /// Explores every trace with `options().explore`.  With a cache_dir
  /// configured, every run() probes the store for the input keys it does
  /// not already hold in memory and queues newly computed results for
  /// flush_disk(); disk I/O errors degrade to cache misses or unsaved
  /// entries, never failures.
  ///
  /// Concurrency: run() may be called from several threads at once, and
  /// concurrently with flush_disk() — the memo table is shared (two racing
  /// identical traces evaluate once).  Each concurrent
  /// run() builds its own worker pool against the full `threads` budget, so
  /// the caller owns not oversubscribing across simultaneous runs (the
  /// serve daemon bounds this with its request-thread count).
  BatchResult run(const std::vector<seq::AddressTrace>& traces);

  /// run() with per-call exploration options — the serve daemon's path,
  /// where every request carries its own ExploreOptions but all requests
  /// share one memo table.  Results for different option sets coexist in
  /// the memo keyed by (trace, options) fingerprints, exactly like the
  /// persistent cache.  `explore.arch_threads` is split against
  /// `options().threads` as usual.
  BatchResult run(const std::vector<seq::AddressTrace>& traces,
                  const ExploreOptions& explore);

  /// Outcome of one flush_disk() call.
  struct FlushStats {
    std::size_t stored = 0;   ///< pending entries persisted this call
    std::size_t evicted = 0;  ///< entries pruned by cache_budget_bytes
  };

  /// Persists everything run() has queued: stores the pending entry batch
  /// in cache-key order under one insertion generation (so directories come
  /// out byte-identical at every thread split), credits pending warm-start
  /// hits, and — when cache_budget_bytes is set — prunes the directory back
  /// under budget.  Serialized against itself (one writer at a time) and
  /// safe to call concurrently with run()s; a no-op without a cache_dir,
  /// and without pending work unless a budget is set.
  FlushStats flush_disk();

  /// Entries computed but not yet persisted.
  std::size_t pending_flush() const;

  /// Number of keys in the in-memory memo table (disk-loaded included).
  std::size_t cache_size() const;
  /// Drops the in-memory memo table.  The persistent cache directory is
  /// untouched; the next run() warm-starts from it again.  Not safe
  /// concurrently with run().
  void clear_cache();

 private:
  struct Impl;
  BatchOptions opt_;
  Impl* impl_;
};

/// CSV report: header + one row per (trace, design point). Fixed numeric
/// formatting; fields containing separators are quoted. Byte-identical for
/// identical BatchResult entries, independent of threads and cache state.
/// Each row is the entry's own prefix (name, geometry, length, hash)
/// followed by its outcome's cached row, so a report of memo hits only
/// compares and copies bytes.  Safe to call from several threads at once,
/// also on entries that share outcomes.
std::string batch_report_csv(const BatchResult& result);

/// JSON report mirroring the CSV plus a summary object. Deterministic field
/// order and formatting; contains only input-determined data (no cache or
/// evaluation counters), so shard reports merge byte-stably.  Rendered from
/// the entries' fields on every call: nothing is cached for it.
std::string batch_report_json(const BatchResult& result);

}  // namespace addm::core
