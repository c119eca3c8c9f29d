// Gate-level verification of exploration results — the exploration stage the
// word-parallel simulator exists for.  Until now full netlist-level
// verification was a spot-check (the randomized SRAG equivalence test); with
// the levelized 64-lane simulator it is cheap enough to run over every
// Pareto point of every explored trace.
//
// For each Pareto-front design point the candidate's netlist is rebuilt
// through its registry entry (GeneratorEntry::build) and replayed against
// the trace in sim::WordSimulator with the stimulus replicated into all 64
// lanes: at every cycle the expected select line must be asserted in ALL
// lanes and every other line in none, so one replay checks both functional
// correctness and lane coherence.  The verdict is appended to the point's
// note — deterministically, so annotated results memoize, cache and shard
// exactly like plain ones.
#pragma once

#include <optional>
#include <string>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::core {

/// Replays `trace` through `rc`'s netlist (one reset cycle, then one cycle
/// per access) and checks the select buses against the trace's address
/// sequences in every lane.  Returns nullopt on success, a diagnostic on
/// the first divergence.
std::optional<std::string> verify_reference_against_trace(
    const ReferenceCircuit& rc, const seq::AddressTrace& trace);

/// The note suffix for a front point whose candidate rebuilt as `rc`:
/// " [verified: N cycles x 64 lanes]" or " [verify FAILED: <diagnostic>]".
/// Deterministic: a pure function of (rc, trace).
std::string verify_verdict(const ReferenceCircuit& rc, const seq::AddressTrace& trace);

}  // namespace addm::core
