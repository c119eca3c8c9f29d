// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer; nothing inside the program is instrumented.  A span name is
// "<layer>.<step>" (layers: seq, core, logic, synth, netlist, tech, sim,
// serve, and bench for the benchmark's own glue).  The traced passes are
// serial, so spans nest strictly and a span's self time is its duration minus
// the durations of its direct children.  Spans stay in memory until
// write_json() at exit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal "<layer>.<step>"
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    std::uint32_t id;     ///< pass id, or request id on serve passes
  };

  /// Per-name aggregate over all recorded spans.
  struct NameStats {
    double self_s = 0.0;
    double total_s = 0.0;
    std::size_t calls = 0;
  };

  /// A disabled tracer records nothing and costs one branch per scope.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), index_(t.enabled_ ? t.open(name) : -1) {}
    ~Scope() {
      if (index_ >= 0) t_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_;
  };

  bool enabled() const { return enabled_; }
  /// Id stamped on spans opened from now on.
  void set_id(std::uint32_t id) { id_ = id; }

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, NameStats> by_name() const;
  /// Self seconds per layer (the part of a span name before the first '.').
  std::map<std::string, double> self_by_layer() const;
  /// Writes {"spans": [...]} with times in ns from the tracer's creation.
  bool write_json(const std::string& path) const;

 private:
  std::int32_t open(const char* name);
  void close(std::int32_t index);

  bool enabled_;
  std::uint32_t id_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
