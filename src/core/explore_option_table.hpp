// The exploration options as one table: each key's name, value placeholder,
// help text, and validate-and-apply function.
//
// addm_explore and addm_client take these options as `--KEY [VALUE]` flags
// and print their --help lines from the table; the daemon takes them as
// `option KEY [VALUE]` directives (binary request grammar) and "options"
// members (JSON lines).  All four dispatch through apply_explore_option, so
// a value is accepted or rejected the same way on every surface — and a
// request that names no option is bit-for-bit the default ExploreOptions,
// whose fingerprint stays pinned.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "core/explorer.hpp"

namespace addm::core {

/// One row of the exploration-option table.
struct ExploreOptionSpec {
  std::string key;          ///< option name; the CLI flag is "--" + key
  std::string placeholder;  ///< value name for --help ("N"); empty for a switch
  std::string help;         ///< --help description, '\n' between lines
  /// Validates `value` (always empty for a switch, never for the others)
  /// and applies it to `opt`; returns false with the reason in `error`,
  /// leaving `opt` unchanged.  Call it through apply_explore_option.
  std::function<bool(ExploreOptions& opt, std::string_view value, std::string& error)>
      apply;
};

/// Every exploration option, in --help order.
std::span<const ExploreOptionSpec> explore_option_table();

/// The row for `key`; nullptr when no option has that name.
const ExploreOptionSpec* find_explore_option(std::string_view key);

/// Validates and applies one option.  Returns false with a one-line `error`
/// on an unknown key, a value given to a switch, a missing value, or a
/// value the key's validator rejects; `opt` is then unchanged.
bool apply_explore_option(ExploreOptions& opt, std::string_view key,
                          std::string_view value, std::string& error);

}  // namespace addm::core
