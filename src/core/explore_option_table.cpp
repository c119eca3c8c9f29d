#include "core/explore_option_table.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <vector>

#include "logic/minimize.hpp"

namespace addm::core {

namespace {

using Apply = std::function<bool(ExploreOptions&, std::string_view, std::string&)>;

Apply flag(void (*set)(ExploreOptions&)) {
  return [set](ExploreOptions& opt, std::string_view, std::string&) {
    set(opt);
    return true;
  };
}

// Decimal digits only (no sign, whitespace or suffix) for a value in [lo, hi].
Apply integer(std::uint64_t lo, std::uint64_t hi,
              void (*set)(ExploreOptions&, std::uint64_t)) {
  return [=](ExploreOptions& opt, std::string_view value, std::string& error) {
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || end != value.data() + value.size() || v < lo || v > hi) {
      error = "expects a number";
      if (hi != UINT64_MAX) error += " from " + std::to_string(lo) + " to " + std::to_string(hi);
      return false;
    }
    set(opt, v);
    return true;
  };
}

bool apply_archs(ExploreOptions& opt, std::string_view value, std::string& error) {
  const std::vector<std::string> known = generator_names();
  std::vector<std::string> names;
  for (std::size_t pos = 0; pos <= value.size();) {
    const std::size_t comma = std::min(value.find(',', pos), value.size());
    const std::string name(value.substr(pos, comma - pos));
    pos = comma + 1;
    if (name.empty()) continue;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      error = "has unknown architecture '" + name + "' (known:";
      for (const std::string& k : known) error += " " + k;
      error += ")";
      return false;
    }
    names.push_back(name);
  }
  if (names.empty()) {
    error = "expects a comma-separated list of names";
    return false;
  }
  opt.archs.insert(opt.archs.end(), names.begin(), names.end());
  return true;
}

bool apply_minimizer(ExploreOptions& opt, std::string_view value, std::string& error) {
  using logic::MinimizerAlgo;
  if (value == "isop") opt.minimize.algo = MinimizerAlgo::Isop;
  else if (value == "exact") opt.minimize.algo = MinimizerAlgo::Exact;
  else if (value == "espresso") opt.minimize.algo = MinimizerAlgo::Espresso;
  else if (value == "auto") opt.minimize.algo = MinimizerAlgo::Auto;
  else {
    error = "must be isop, exact, espresso or auto";
    return false;
  }
  return true;
}

std::vector<ExploreOptionSpec> build_table() {
  const ExploreOptions defaults;
  return {
      {"archs", "a,b,...", "only these candidate architectures (registry names)",
       apply_archs},
      {"no-fsm", "", "skip symbolic-FSM candidates",
       flag([](ExploreOptions& o) { o.include_fsm = false; })},
      {"max-fsm-states", "N",
       "FSM feasibility cap (default " + std::to_string(defaults.max_fsm_states) + ")",
       integer(0, UINT64_MAX,
               [](ExploreOptions& o, std::uint64_t v) { o.max_fsm_states = v; })},
      // tech::insert_buffers needs a fan-out of at least 2.
      {"max-fanout", "N",
       "buffering fanout limit, 2 or more (default " +
           std::to_string(defaults.max_fanout) + ")",
       integer(2, INT_MAX, [](ExploreOptions& o, std::uint64_t v) {
         o.max_fanout = static_cast<int>(v);
       })},
      {"minimizer", "M",
       "two-level minimizer for FSM/CntAG synthesis:\n"
       "isop (default), espresso, exact, or auto\n"
       "(auto = isop below the espresso threshold)",
       apply_minimizer},
      {"espresso-threshold", "N",
       "with --minimizer auto, use espresso for\n"
       "functions of >= N variables (1..24, default " +
           std::to_string(logic::kDefaultHeuristicMinVars) + ")",
       integer(1, 24, [](ExploreOptions& o, std::uint64_t v) {
         o.minimize.heuristic_min_vars = static_cast<int>(v);
       })},
      {"verify-front", "",
       "gate-level-verify every Pareto point in the\n"
       "64-lane word simulator; verdicts annotate the\n"
       "report notes (distinct cache keys)",
       flag([](ExploreOptions& o) { o.verify_front = true; })},
      {"compress-periodic", "",
       "factor each trace into k x period and, when it\n"
       "is exactly whole passes of one period, evaluate\n"
       "candidates on a single period (notes annotated\n"
       "\"[periodic kxp]\"; distinct cache keys;\n"
       "aperiodic traces explore unchanged)",
       flag([](ExploreOptions& o) { o.compress_periodic = true; })},
  };
}

}  // namespace

std::span<const ExploreOptionSpec> explore_option_table() {
  static const std::vector<ExploreOptionSpec> table = build_table();
  return table;
}

const ExploreOptionSpec* find_explore_option(std::string_view key) {
  for (const ExploreOptionSpec& o : explore_option_table())
    if (o.key == key) return &o;
  return nullptr;
}

bool apply_explore_option(ExploreOptions& opt, std::string_view key,
                          std::string_view value, std::string& error) {
  const ExploreOptionSpec* o = find_explore_option(key);
  if (!o) {
    error = "unknown option '" + std::string(key) + "'";
    return false;
  }
  std::string why;
  if (o->placeholder.empty() != value.empty())
    why = value.empty() ? "requires a value" : "takes no value";
  else if (o->apply(opt, value, why))
    return true;
  error = o->key + " " + why;
  return false;
}

}  // namespace addm::core
