// Multi-counter SRAG — the relaxation the paper sketches in Section 4
// ("...can be relaxed by using multiple counters that provide more
// flexibility in the sequences that can be generated") and lists as future
// work. Each shift register gets its own pass counter, lifting the uniform-
// PassCnt restriction; the paper's own counter-example sequence
// 5,5,5x... / 5,1,4,0 repeated unequal numbers of times becomes mappable.
//
// The DivCnt restriction (uniform per-address repetition) is retained; its
// relaxation would require per-address division counts and is documented as
// out of scope in DESIGN.md.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/srag_config.hpp"
#include "core/srag_mapper.hpp"
#include "netlist/builder.hpp"

namespace addm::core {

struct MultiSragConfig {
  std::vector<std::vector<std::uint32_t>> registers;  ///< as SragConfig
  std::uint32_t div_count = 1;
  /// pass_counts[i] = enabled shifts register i keeps the token before
  /// passing it on (= M_i * iterations_i).
  std::vector<std::uint32_t> pass_counts;
  std::uint32_t num_select_lines = 0;

  std::size_t num_registers() const { return registers.size(); }
  std::size_t num_flipflops() const;
  void check() const;
};

/// Behavioral model mirroring SragModel for the multi-counter variant. The
/// per-register counter counts only while its register holds the token.
class MultiSragModel {
 public:
  explicit MultiSragModel(MultiSragConfig config);
  const MultiSragConfig& config() const { return config_; }
  std::uint32_t current() const { return config_.registers[reg_][pos_]; }
  void pulse();
  void reset();
  std::vector<std::uint32_t> generate(std::size_t n);

  // Introspection, as SragModel's: pass_counter() counts the enabled shifts
  // since the token entered token_register().
  std::size_t token_register() const { return reg_; }
  std::size_t token_position() const { return pos_; }
  std::uint32_t div_counter() const { return div_; }
  std::uint32_t pass_counter() const { return pass_; }

 private:
  MultiSragConfig config_;
  std::size_t reg_ = 0, pos_ = 0;
  std::uint32_t div_ = 0, pass_ = 0;
};

struct MultiMapResult {
  std::optional<MultiSragConfig> config;
  MappingParameters params;
  std::optional<MapFailure> failure;  ///< never NonUniformPassCount
  std::string detail;
  bool ok() const { return config.has_value(); }
};

/// Section-5 mapping with the PassCnt-uniformity check removed.
MultiMapResult map_sequence_multicounter(std::span<const std::uint32_t> seq,
                                         std::uint32_t num_select_lines = 0);

struct MultiSragPorts {
  std::vector<netlist::NetId> select;
  netlist::NetId enable = netlist::kInvalidNet;
  /// Flip-flop outputs, LSB first: the DivCnt bits (empty when dC == 1),
  /// pass_q[i], register i's pass counter (empty when it has none), and
  /// token[i][j], the flip-flop driving line registers[i][j].  Register i's
  /// counter holds MultiSragModel::pass_counter() while the token is in it
  /// and 0 otherwise.
  std::vector<netlist::NetId> div_q;
  std::vector<std::vector<netlist::NetId>> pass_q;
  std::vector<std::vector<netlist::NetId>> token;
};

/// Gate-level elaboration: per-register pass counters gated by a token-
/// presence OR over the register's flip-flops.
MultiSragPorts build_multi_srag(netlist::NetlistBuilder& b, const MultiSragConfig& cfg,
                                netlist::NetId next, netlist::NetId reset);

/// Standalone netlist with inputs "next"/"reset" and output bus "sel[...]".
netlist::Netlist elaborate_multi_srag(const MultiSragConfig& cfg);

}  // namespace addm::core
