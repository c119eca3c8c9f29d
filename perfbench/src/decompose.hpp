// Serial rebuild of one exploration from the library's public calls, with a
// span around every call into a layer.
//
// BatchExplorer::run -> explore_generators -> registry entry -> measure ->
// verify is one opaque call from outside; the traced pass needs the same work
// split by layer.  Decomposer replays it step by step in registry order:
// mapping and elaboration per candidate (SRAG, multi-counter, CntAG, FSM,
// SFM), the measurement steps on every built netlist, the Pareto front, and
// gate-level replay of every front point.  Its BatchEntry must equal the
// library's field for field; the benchmark checks that on every traced run,
// so a change to the library's pipeline that this file does not follow shows
// up as a fidelity failure rather than as silently wrong layer numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "seq/trace.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Work counts taken at the same boundaries as the spans.
struct Tally {
  std::size_t traces = 0;
  std::size_t evaluations = 0;  ///< traces explored (memo misses)
  std::size_t memo_hits = 0;
  std::size_t accesses = 0;     ///< trace accesses explored
  std::size_t map_attempts = 0;
  std::size_t map_ok = 0;
  std::size_t minimize_calls = 0;  ///< CntAG transform minimizations
  std::size_t cubes = 0;
  std::unordered_set<std::uint64_t> distinct_functions;  ///< CntAG transform bits
  std::size_t cells = 0;  ///< cells entering the sweep
  std::size_t buffers_added = 0;
  std::size_t replayed = 0;  ///< front points replayed in the word simulator
  std::size_t verified = 0;
  std::size_t cycles = 0;    ///< replay cycles (accesses per replayed point)
};

class Decomposer {
 public:
  /// `opt` must have arch_threads == 1 and compress_periodic off: the
  /// rebuild is serial and covers the full-trace path only.
  Decomposer(const addm::core::ExploreOptions& opt, Tracer& tracer)
      : opt_(opt), tr_(tracer) {}

  /// The BatchEntry BatchExplorer::run would produce for `trace` at input
  /// position `index`.  Traces seen before (same fingerprint) are memo hits,
  /// as in BatchExplorer.
  addm::core::BatchEntry entry(const addm::seq::AddressTrace& trace, std::size_t index);

  const Tally& tally() const { return tally_; }

 private:
  struct Outcome {
    std::vector<addm::core::DesignPoint> points;
    std::vector<std::size_t> pareto;
    std::string error;
  };
  Outcome explore(const addm::seq::AddressTrace& trace);
  addm::core::DesignPoint candidate(const addm::core::GeneratorEntry& e,
                                    const addm::seq::AddressTrace& trace);

  addm::core::ExploreOptions opt_;
  Tracer& tr_;
  Tally tally_;
  std::map<std::uint64_t, Outcome> memo_;
};

/// True when the two entries agree on everything a report shows: name,
/// geometry, length, fingerprint, error, Pareto set and every design point
/// (architecture, feasibility, note, area, delays, cells, flip-flops,
/// buffers).  On a mismatch `why` names the first difference.
bool same_entry(const addm::core::BatchEntry& a, const addm::core::BatchEntry& b,
                std::string& why);

}  // namespace perfbench
