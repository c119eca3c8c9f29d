// CntAG: the counter-based address generator with address decoders — the
// paper's baseline (Figure 1 path: counter -> binary address -> row/column
// decoders inside the RAM).
//
// For a deterministic sequence of length L the generator is an index counter
// (modulo L) followed by a combinational index->address transform synthesized
// by two-level minimization. For regular sequences (incremental, block
// raster, zoom, transpose) the transform minimizes to bit rewiring, which is
// exactly why counter-based generators beat arithmetic-based ones on such
// patterns [Grant89]. The binary row/column addresses then feed the decoders.
//
// The decoders default to the Flat style — modelling the sharing-poor random
// logic 2002-era synthesis produced from a behavioural decoder description —
// and can be switched to Shared predecoding for the ablation study.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/minimize.hpp"
#include "netlist/builder.hpp"
#include "seq/trace.hpp"
#include "synth/counter.hpp"
#include "synth/decoder.hpp"

namespace addm::core {

struct CntAgOptions {
  synth::DecoderStyle decoder_style = synth::DecoderStyle::SharedChain;
  synth::CarryStyle carry = synth::CarryStyle::Lookahead;
  /// Sequence counter digit width (cascaded digit counters keep the counter
  /// delay flat across sequence lengths, as in the paper's Figure 9).
  int counter_digit_bits = 4;
  /// Map the index->address transform without structural sharing.
  bool flat_transform = false;
  /// Build the row/column decoders (false models the bare generator of
  /// Figure 1, whose decode happens inside the RAM macro; the paper's
  /// CntAG delay/area figures include the decode, so true is the default).
  bool include_decoders = true;
  /// Two-level minimizer for the index->address transform, used where
  /// elaborate_cntag minimizes its own covers.  The default routes
  /// everything through ISOP (byte-identical to the historical behavior);
  /// long traces want MinimizerAlgo::Auto/Espresso.
  logic::MinimizeOptions minimize;
};

struct CntAgPorts {
  std::vector<netlist::NetId> index;     ///< sequence-position counter bits
  std::vector<netlist::NetId> row_addr;  ///< binary row address (RA)
  std::vector<netlist::NetId> col_addr;  ///< binary column address (CA)
  std::vector<netlist::NetId> rs;        ///< one-hot row selects (if decoders)
  std::vector<netlist::NetId> cs;        ///< one-hot column selects (if decoders)
};

/// The minimized index->address transform of a trace: one cover per row
/// address bit, then one per column address bit, LSB first, each over the
/// sequence counter's bits.  It depends on the trace and the minimizer
/// alone, so every decoder style and every rebuild of one trace shares it.
struct CntAgCovers {
  std::vector<logic::Cover> row;
  std::vector<logic::Cover> col;
};

/// Minimizes `trace`'s transform, one logic::minimize call per address bit
/// (row bits, then column bits).  Throws std::invalid_argument for a trace
/// build_cntag rejects (empty, or longer than 2^22 accesses).
CntAgCovers cntag_covers(const seq::AddressTrace& trace,
                         const logic::MinimizeOptions& minimize = {});

/// Appends a CntAG for `trace` to `b`, driven by `next`/`reset`, mapping
/// `covers` — cntag_covers(trace, opt.minimize) — as its transform.
CntAgPorts build_cntag(netlist::NetlistBuilder& b, const seq::AddressTrace& trace,
                       const CntAgCovers& covers, netlist::NetId next,
                       netlist::NetId reset, const CntAgOptions& opt = {});

/// Standalone netlist: inputs "next"/"reset"; outputs "ra[...]", "ca[...]"
/// and, with decoders, "rs[...]", "cs[...]".  The ports go to `ports` when
/// given.
netlist::Netlist elaborate_cntag(const seq::AddressTrace& trace,
                                 const CntAgOptions& opt = {},
                                 CntAgPorts* ports = nullptr);

/// The same netlist, mapping `covers` (cntag_covers(trace, opt.minimize))
/// instead of minimizing its own.
netlist::Netlist elaborate_cntag(const seq::AddressTrace& trace, const CntAgOptions& opt,
                                 const CntAgCovers& covers, CntAgPorts* ports = nullptr);

}  // namespace addm::core
