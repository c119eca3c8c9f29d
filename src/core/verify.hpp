// Gate-level verification of exploration results — the exploration stage the
// word-parallel simulator exists for.  Until now full netlist-level
// verification was a spot-check (the randomized SRAG equivalence test); with
// the levelized 64-lane simulator it is cheap enough to run over every
// Pareto point of every explored trace.
//
// For each Pareto-front design point the candidate's netlist is rebuilt
// through its registry entry (GeneratorEntry::build) and replayed against
// the trace in sim::WordSimulator, segmented across the 64 lanes.  With L
// accesses and S = ceil(L/64), lane 0 runs the reset cycle and accesses
// [0, S); lane j starts at access j*S from the flip-flop values the build's
// replay recipe gives for that access (ReferenceCircuit::state_at, poked
// through WordSimulator::set_state) and runs accesses [j*S, (j+1)*S).  Every
// lane checks its own accesses on every select line: the expected line
// asserted, every other line not.  After S cycles lane j must hold, in
// every flip-flop, exactly the state poked into lane j+1.  Where that chain
// holds, lane j+1 started from the true state, so by induction from lane
// 0's real reset the lanes cover exactly the transitions of one replay from
// reset, in S simulated cycles instead of L.
//
// Soundness never rests on the recipe.  After the first lane, in trace
// order, whose end state breaks the chain, the rest of the trace replays
// from that lane's end state, copied into all 64 lanes, without the recipe.
// A recipe that does not name every flip-flop exactly once is ignored, and
// the circuit replays as one segment from reset.  Either way a failure
// names the first access a scalar replay from reset gets wrong; a wrong
// recipe costs time (at most one segmented pass plus one replay of the
// remaining accesses), never the verdict.
//
// The verdict is appended to the point's note — deterministically, so
// annotated results memoize, cache and shard exactly like plain ones.
#pragma once

#include <optional>
#include <string>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::core {

/// Checks that `rc`'s netlist, after one reset cycle, presents the trace's
/// address sequence on its select buses, one access per cycle: segmented
/// across the lanes when `rc` carries a replay recipe, else as one segment
/// from reset.  Returns nullopt on success, else a diagnostic that starts
/// "cycle K:" with K the first access a scalar replay from reset gets
/// wrong.
std::optional<std::string> verify_reference_against_trace(
    const ReferenceCircuit& rc, const seq::AddressTrace& trace);

/// The note suffix for a front point whose candidate rebuilt as `rc`:
/// " [verified: N cycles x 64 lanes]" (all N accesses checked, covered by
/// the 64 lanes) or " [verify FAILED: <diagnostic>]".  Deterministic: a
/// pure function of (rc, trace).
std::string verify_verdict(const ReferenceCircuit& rc, const seq::AddressTrace& trace);

}  // namespace addm::core
