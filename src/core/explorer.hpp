// Design-space explorer — the paper's stated "final goal": given an address
// trace, evaluate every applicable generator architecture at a high level
// and report the area/delay landscape plus its Pareto front.
//
// Candidate architectures (see generator_registry() for the live table):
//  * SRAG (two-hot, Section 4)           — needs both dimensions mappable
//  * multi-counter SRAG (Section 4 ext.) — relaxed PassCnt restriction
//  * CntAG, flat decoders (baseline)     — always applicable
//  * CntAG, shared predecoders           — always applicable
//  * symbolic FSM, binary/gray/one-hot   — capped by a state budget; beyond
//    it the point is reported infeasible ("synthesis impractical", matching
//    the paper's Section-3 observation)
//  * SFM (Aloqeely)                      — FIFO traces only
//
// Determinism contract: explore_generators is a pure function of
// (trace, result-affecting ExploreOptions fields).  Candidates are
// independent tasks drawn from a stable-ordered registry; the driver may
// evaluate them on any thread in any order (ExploreOptions::arch_threads),
// but points are always reassembled in registry order, so the returned
// vector is byte-identical across runs, hosts, thread counts, and
// scheduling.  Scheduling knobs (arch_threads) are therefore excluded from
// options_fingerprint; subset selection (archs) changes the output and is
// fingerprinted.  Everything below — the batch explorer's reports, the
// persistent evaluation cache, shard merging — leans on this contract.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cntag.hpp"
#include "core/metrics.hpp"
#include "logic/minimize.hpp"
#include "netlist/netlist.hpp"
#include "seq/trace.hpp"
#include "tech/library.hpp"

namespace addm::core {

/// One evaluated candidate architecture.  Plain value type; everything here
/// is a pure function of (trace, ExploreOptions), which is what makes
/// design points safe to memoize and to persist in the evaluation cache.
struct DesignPoint {
  std::string architecture;  ///< stable candidate label (e.g. "SRAG", "CntAG-flat")
  bool feasible = false;
  std::string note;  ///< why infeasible, or config summary when feasible
  GeneratorMetrics metrics;  ///< zero-initialized when infeasible

  bool operator==(const DesignPoint&) const = default;
};

/// Knobs that affect exploration.  Every result-affecting field MUST be
/// covered by options_fingerprint (core/fingerprint.hpp) — the persistent
/// cache relies on that hash as its only invalidation mechanism.
/// Scheduling-only fields (arch_threads) MUST stay out of it, so that a
/// differently-parallelized run reuses the same cache entries.
struct ExploreOptions {
  tech::Library library = tech::Library::generic_180nm();
  int max_fanout = tech::kDefaultMaxFanout;
  /// FSM candidates are skipped above this many states (sequence length).
  std::size_t max_fsm_states = 1024;
  bool include_fsm = true;
  /// Candidate subset by registry name; empty selects every entry.  Names
  /// not in the registry select nothing.  Output-affecting: fingerprinted
  /// in canonical (registry-order, deduplicated) form, so a filtered run
  /// never shares cache keys with a full run.
  std::vector<std::string> archs;
  /// Threads used to evaluate candidates of ONE trace (0 = hardware
  /// concurrency, 1 = serial on the calling thread).  Pure scheduling: any
  /// value produces byte-identical points, and the field is excluded from
  /// options_fingerprint.  The batch explorer overrides this per worker via
  /// split_threads so outer × inner never exceeds its thread budget.
  std::size_t arch_threads = 1;
  /// Gate-level verification of the Pareto front (core/verify.hpp): every
  /// front point is rebuilt through its registry entry and its netlist
  /// replayed against the trace in the 64-lane word simulator; the verdict
  /// is appended to the point's note.  Output-affecting, so it is
  /// fingerprinted — but only when enabled, keeping default-options
  /// fingerprints (and thus existing cache directories and reports) pinned.
  bool verify_front = false;
  /// Two-level minimizer used inside FSM and CntAG elaboration
  /// (logic/minimize.hpp).  The default (Isop) reproduces the historical
  /// covers byte for byte; selecting Auto/Espresso/Exact changes netlists
  /// and therefore metrics, so a non-default value is fingerprinted — only
  /// when non-default, keeping default-options fingerprints pinned (the
  /// verify_front pattern).
  logic::MinimizeOptions minimize;
  /// Exact periodicity compression (seq/periodicity.hpp): when the trace is
  /// whole passes of one period (prefix-free, k >= 2 repeats, no partial
  /// tail), candidates are evaluated on a single period and every note is
  /// annotated "[periodic <k>x<p>]" — exploration cost scales with the
  /// period instead of the trace length.  Traces without such structure
  /// (all the built-in synthetic suites) are explored unchanged, byte for
  /// byte.  Output-affecting (FSM feasibility, metrics, and notes follow
  /// the period trace), so it is fingerprinted — but only when enabled,
  /// keeping default-options fingerprints pinned (the verify_front
  /// pattern).
  bool compress_periodic = false;
};

/// A candidate's unmeasured netlist plus its replay recipe: after one reset
/// cycle with `drive` inputs applied, the asserted line of `row_bus` (and
/// `col_bus`, when present) must track the trace's row/column address
/// sequence cycle by cycle.  With an empty `col_bus` the single bus is
/// checked against the linear address sequence (1-D generators such as the
/// SFM).
struct ReferenceCircuit {
  netlist::Netlist netlist;
  /// Inputs held for the whole replay once "reset" is released.
  std::vector<std::pair<std::string, bool>> drive = {{"next", true}};
  std::string row_bus = "rs";
  std::string col_bus = "cs";
  /// Where the replay stands at an access, for segmented verification
  /// (core/verify.hpp): every flip-flop's Q net once, and `state_at`, which
  /// maps up to 64 ascending accesses (each below the trace length) to one
  /// lane word per flip-flop in `state` order — bit i is the flip-flop's
  /// value when access accesses[i] is presented, after the reset cycle and
  /// accesses[i] replay cycles (the words WordSimulator::set_state pokes).
  /// Made by the code that builds the netlist; pure.  Without it, or when
  /// `state` misses or repeats a flip-flop, the trace replays as one
  /// segment from reset.
  std::vector<netlist::NetId> state = {};
  std::function<std::vector<std::uint64_t>(std::span<const std::size_t>)> state_at = {};
};

/// What a registry entry builds for one trace: the candidate's circuit and
/// its config summary, or — with no circuit — the reason it is infeasible.
struct CandidateBuild {
  std::optional<ReferenceCircuit> circuit;
  std::string note;  ///< config summary when feasible, reason when infeasible
};

/// The work that the registry builds for one trace share: one context per
/// explore_generators call, kept until its front is verified, so that work
/// is done once per call instead of once per candidate and per front
/// rebuild.  It holds the CntAG transform covers, which the three CntAG
/// entries and their rebuilds all map; it holds no netlists, which cost
/// far more memory to keep (docs/ARCHITECTURE.md, generator registry).
/// One context serves one (trace, minimizer) pair; builds may share it
/// from any number of threads.
class BuildContext {
 public:
  BuildContext() = default;
  BuildContext(const BuildContext&) = delete;
  BuildContext& operator=(const BuildContext&) = delete;

  /// cntag_covers(trace, minimize), computed by the first caller while
  /// concurrent callers wait.  A computation that throws leaves the
  /// context empty, so the next caller computes again and throws the same
  /// error.  Throws std::logic_error when asked for another trace object
  /// or minimizer than the covers it holds.
  const CntAgCovers& cntag_covers(const seq::AddressTrace& trace,
                                  const logic::MinimizeOptions& minimize);

 private:
  std::mutex mu_;
  // Guarded by mu_; set together, once, by the first computation that returns.
  std::optional<CntAgCovers> cntag_;
  const seq::AddressTrace* trace_ = nullptr;
  logic::MinimizeOptions minimize_;
};

/// One self-describing candidate architecture in the registry.  The
/// callables are pure functions of their arguments and thread-safe for
/// concurrent invocation.
struct GeneratorEntry {
  /// Stable label; doubles as the `archs` filter key and the report value.
  std::string name;
  /// Whether this candidate produces a point at all under `opt` (e.g. FSM
  /// entries disappear when include_fsm is false).  Per-trace rejection is
  /// NOT applicability: an over-budget FSM or a non-FIFO SFM stays
  /// applicable and reports an infeasible point.
  std::function<bool(const seq::AddressTrace&, const ExploreOptions&)> applicable;
  /// Maps and elaborates the candidate for `trace`, unmeasured: the one
  /// constructor of its netlist, for measurement and for front replay.
  /// Work shared with the other builds of `trace` under `opt` comes from
  /// `ctx`.  Per-candidate rejection is a build without a circuit; throws
  /// only for degenerate traces that no candidate could process.
  std::function<CandidateBuild(const seq::AddressTrace&, const ExploreOptions&,
                               BuildContext&)>
      build;
  /// `build(trace, opt, ctx).circuit` with a context of its own, for
  /// callers that replay a candidate without measuring it.  The registry
  /// sets it for every entry.
  std::function<std::optional<ReferenceCircuit>(const seq::AddressTrace&,
                                                const ExploreOptions&)>
      reference = {};
};

/// The stable-ordered candidate table.  The order is part of the output
/// contract: explore_generators returns points in registry order, reports
/// render rows in registry order, and the canonical `archs` fingerprint
/// form is the registry-order intersection.  Append-only across versions;
/// reordering or renaming entries requires a kOptionsFingerprintSeed bump
/// (core/fingerprint.hpp).
const std::vector<GeneratorEntry>& generator_registry();

/// Registry names, in registry order — the valid `archs` values.
std::vector<std::string> generator_names();

/// Builds `e`'s candidate for `trace` through `ctx` and measures it
/// (core/metrics.hpp): the DesignPoint explore_generators reports for that
/// entry.
DesignPoint evaluate_generator(const GeneratorEntry& e, const seq::AddressTrace& trace,
                               const ExploreOptions& opt, BuildContext& ctx);

/// Evaluates every applicable candidate architecture for `trace` and
/// returns one DesignPoint per candidate, in registry order.
/// Deterministic: equal (trace, opt) inputs produce equal output, byte for
/// byte, across runs, hosts, and every arch_threads value.  Thread-safe
/// for concurrent calls (shared state is read-only).  May throw
/// (std::invalid_argument and friends) on degenerate traces, e.g. empty
/// ones — deterministically, the first failing entry in registry order —
/// while per-candidate infeasibility is reported in the points, not
/// thrown.
std::vector<DesignPoint> explore_generators(const seq::AddressTrace& trace,
                                            const ExploreOptions& opt = {});

/// Indices of the area/delay Pareto-optimal feasible points, in ascending
/// index order.  Deterministic and side-effect free.
std::vector<std::size_t> pareto_front(const std::vector<DesignPoint>& points);

/// Fixed-width text table of the exploration result.  Deterministic
/// formatting (fixed precision, stable column order); the architecture
/// column widens to the longest name plus two spaces, so long names never
/// collide with the feasible column.
std::string format_exploration(const std::vector<DesignPoint>& points);

}  // namespace addm::core
