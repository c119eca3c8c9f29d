// Unified two-level minimization entry point.
//
// The synthesis layer (synth/fsm, core/cntag) used to call logic::isop
// directly; this dispatcher routes an incompletely specified function to
// the right minimizer:
//  * Isop      — the Minato-Morreale recursion on truth tables that halve
//                at every split (the default; only its top-level tables
//                are 2^n bits, and it is the fastest backend on every FSM
//                workload of bench/minimize_throughput, 6-12 variables),
//  * Exact     — Quine-McCluskey + branch-and-bound (guaranteed minimum
//                cube count; n <= 12),
//  * Espresso  — the cube-list heuristic (logic/espresso.hpp), whose cost
//                scales with cube count rather than 2^n,
//  * Auto      — Isop below `heuristic_min_vars` variables, Espresso at or
//                above it.
//
// Determinism contract: the default MinimizeOptions routes every function
// through Isop, byte-identically to the pre-dispatcher behavior — so
// default-options exploration fingerprints, reports, and persisted
// eval_cache directories stay pinned.  Non-default options are
// output-affecting and are hashed by core::options_fingerprint (only when
// non-default, following the verify_front pattern).
#pragma once

#include "logic/cube.hpp"
#include "logic/truth_table.hpp"

namespace addm::logic {

enum class MinimizerAlgo {
  Isop,      ///< dense ISOP recursion (historical default)
  Exact,     ///< Quine-McCluskey exact minimum (n <= 12)
  Espresso,  ///< cube-list expand/irredundant/reduce heuristic
  Auto,      ///< Isop for small functions, Espresso above the threshold
};

/// Default Auto crossover: functions of 9+ variables go to Espresso.  It
/// was chosen when the ISOP recursion copied full-width cofactors at every
/// node; the shrinking-table recursion now beats Espresso at 6-12 variables
/// too, but the value stays because it decides which covers, and so which
/// reports and fingerprints, `auto` produces.
inline constexpr int kDefaultHeuristicMinVars = 9;

struct MinimizeOptions {
  MinimizerAlgo algo = MinimizerAlgo::Isop;
  /// Auto only: functions of at least this many variables use Espresso.
  int heuristic_min_vars = kDefaultHeuristicMinVars;

  bool operator==(const MinimizeOptions&) const = default;
};

/// Minimizes onset_lower <= f <= onset_upper with the selected algorithm.
/// Requires matching variable counts and onset_lower.implies(onset_upper);
/// throws std::invalid_argument otherwise (uniformly, whichever backend is
/// selected).  Deterministic: a pure function of (L, U, opt).
Cover minimize(const TruthTable& onset_lower, const TruthTable& onset_upper,
               const MinimizeOptions& opt = {});

/// Completely specified convenience overload.
Cover minimize(const TruthTable& f, const MinimizeOptions& opt = {});

/// The backend `minimize` would use for a function of `num_vars` variables
/// under `opt` (never returns Auto).  Exposed so reports, benches, and docs
/// can state the policy.
MinimizerAlgo selected_minimizer(int num_vars, const MinimizeOptions& opt);

/// Stable lowercase name ("isop", "exact", "espresso", "auto") — the CLI
/// spelling of `--minimizer` values.
const char* minimizer_name(MinimizerAlgo algo);

}  // namespace addm::logic
