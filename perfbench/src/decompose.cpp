#include "decompose.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "core/metrics.hpp"
#include "core/multicounter.hpp"
#include "core/sfm.hpp"
#include "core/srag_elab.hpp"
#include "core/srag_mapper.hpp"
#include "core/verify.hpp"
#include "logic/minimize.hpp"
#include "logic/sop_map.hpp"
#include "netlist/builder.hpp"
#include "sim/word_simulator.hpp"
#include "synth/counter.hpp"
#include "synth/decoder.hpp"
#include "synth/fsm.hpp"
#include "tech/buffering.hpp"
#include "tech/sta.hpp"

namespace perfbench {

namespace {

using namespace addm;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;
using Scope = Tracer::Scope;

core::DesignPoint infeasible(const std::string& arch, std::string why) {
  core::DesignPoint p;
  p.architecture = arch;
  p.note = std::move(why);
  return p;
}

bool is_fifo(const seq::AddressTrace& trace) {
  const auto& a = trace.linear();
  if (a.size() != trace.geometry().size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != i) return false;
  return true;
}

/// Identity of one CntAG transform function: the care set is the first
/// `values.size()` minterms of an n-variable table and the onset is `bit` of
/// each value, so (n, length, onset bits) determines the function.
std::uint64_t function_key(int n, const std::vector<std::uint32_t>& values, int bit) {
  core::Fnv1a64 h;
  h.u64(static_cast<std::uint64_t>(n));
  h.u64(values.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    word |= static_cast<std::uint64_t>((values[i] >> bit) & 1u) << (i % 64);
    if (i % 64 == 63 || i + 1 == values.size()) {
      h.u64(word);
      word = 0;
    }
  }
  return h.digest();
}

struct Cntag {
  synth::DecoderStyle style;
  const char* note;
};

std::optional<Cntag> cntag_variant(const std::string& name) {
  if (name == "CntAG-flat") return Cntag{synth::DecoderStyle::Flat, "flat decoders"};
  if (name == "CntAG-shared")
    return Cntag{synth::DecoderStyle::SharedChain, "shared chain decoders (2002 flow)"};
  if (name == "CntAG-predecoded")
    return Cntag{synth::DecoderStyle::SharedBalanced, "balanced predecoders (modern flow)"};
  return std::nullopt;
}

std::optional<synth::FsmEncoding> fsm_variant(const std::string& name) {
  if (name == "FSM-binary") return synth::FsmEncoding::Binary;
  if (name == "FSM-gray") return synth::FsmEncoding::Gray;
  if (name == "FSM-onehot") return synth::FsmEncoding::OneHot;
  return std::nullopt;
}

}  // namespace

core::DesignPoint Decomposer::candidate(const core::GeneratorEntry& e,
                                        const seq::AddressTrace& trace) {
  // Each branch builds the candidate's raw netlist exactly as the registry
  // entry does (core/explorer.cpp, core/cntag.cpp), or returns the entry's
  // infeasible point; the shared measurement steps follow below.
  Netlist nl;
  std::string note;
  const auto height = static_cast<std::uint32_t>(trace.geometry().height);
  const auto width = static_cast<std::uint32_t>(trace.geometry().width);

  if (e.name == "SRAG") {
    try {
      core::MapResult row_map, col_map;
      {
        Scope s(tr_, "core.map");
        row_map = core::map_sequence(trace.rows(), height);
      }
      ++tally_.map_attempts;
      if (!row_map.ok())
        return infeasible(e.name, "row sequence unmappable: " + core::to_string(*row_map.failure) +
                                      " (" + row_map.detail + ")");
      ++tally_.map_ok;
      {
        Scope s(tr_, "core.map");
        col_map = core::map_sequence(trace.cols(), width);
      }
      ++tally_.map_attempts;
      if (!col_map.ok())
        return infeasible(e.name, "column sequence unmappable: " +
                                      core::to_string(*col_map.failure) + " (" +
                                      col_map.detail + ")");
      ++tally_.map_ok;
      {
        Scope s(tr_, "core.generator_build");
        nl = core::elaborate_srag_2d(*row_map.config, *col_map.config);
      }
      const core::SragConfig& r = *row_map.config;
      const core::SragConfig& c = *col_map.config;
      std::ostringstream os;
      os << "row: " << r.num_registers() << " regs/" << r.num_flipflops()
         << " ffs dC=" << r.div_count << " pC=" << r.pass_count << "; col: "
         << c.num_registers() << " regs/" << c.num_flipflops() << " ffs dC=" << c.div_count
         << " pC=" << c.pass_count;
      note = os.str();
    } catch (const std::invalid_argument& ex) {
      return infeasible(e.name, ex.what());
    }
  } else if (e.name == "SRAG-multicounter") {
    core::MultiMapResult row_map, col_map;
    {
      Scope s(tr_, "core.map");
      row_map = core::map_sequence_multicounter(trace.rows(), height);
    }
    {
      Scope s(tr_, "core.map");
      col_map = core::map_sequence_multicounter(trace.cols(), width);
    }
    tally_.map_attempts += 2;
    tally_.map_ok += static_cast<std::size_t>(row_map.ok()) + static_cast<std::size_t>(col_map.ok());
    if (!row_map.ok() || !col_map.ok())
      return infeasible(e.name,
                        !row_map.ok() ? "row: " + row_map.detail : "col: " + col_map.detail);
    Scope s(tr_, "core.generator_build");
    NetlistBuilder b(nl);
    const NetId next = b.input("next");
    const NetId reset = b.input("reset");
    const auto rp = core::build_multi_srag(b, *row_map.config, next, reset);
    const auto cp = core::build_multi_srag(b, *col_map.config, next, reset);
    b.output_bus("rs", rp.select);
    b.output_bus("cs", cp.select);
  } else if (const auto cntag = cntag_variant(e.name)) {
    // core::build_cntag with CntAgOptions{decoder_style, Lookahead carry,
    // 4-bit counter digits, shared transform mapping, decoders on}.
    const std::size_t length = trace.length();
    if (length == 0) throw std::invalid_argument("build_cntag: empty trace");
    if (length > (std::size_t{1} << 22))
      throw std::invalid_argument("build_cntag: trace too long for table synthesis");
    NetlistBuilder b(nl);
    const NetId next = b.input("next");
    const NetId reset = b.input("reset");
    std::vector<NetId> index;
    {
      Scope s(tr_, "synth.counter_decoder");
      synth::CounterSpec spec;
      spec.bits = synth::bits_for(length);
      spec.modulo = length;
      spec.carry = synth::CarryStyle::Lookahead;
      spec.cascade_digit_bits = 4;
      index = synth::build_counter(b, spec, next, reset).q;
    }
    const int n = static_cast<int>(index.size());
    auto transform = [&](const std::vector<std::uint32_t>& values, int bits) {
      std::vector<NetId> out;
      for (int k = 0; k < bits; ++k) {
        tally_.distinct_functions.insert(function_key(n, values, k));
        logic::TruthTable onset(n), care(n);
        {
          Scope s(tr_, "logic.truth_table");
          for (std::size_t i = 0; i < values.size(); ++i) {
            care.set(i, true);
            if ((values[i] >> k) & 1) onset.set(i, true);
          }
        }
        logic::Cover cover;
        {
          Scope s(tr_, "logic.minimize");
          cover = logic::minimize(onset, onset | ~care, opt_.minimize);
        }
        ++tally_.minimize_calls;
        tally_.cubes += cover.cubes.size();
        Scope s(tr_, "logic.map_cover");
        const bool saved = b.sharing();
        b.set_sharing(true);
        out.push_back(logic::map_cover(b, cover, index));
        b.set_sharing(saved);
      }
      return out;
    };
    const auto row_addr = transform(trace.rows(), synth::bits_for(trace.geometry().height));
    const auto col_addr = transform(trace.cols(), synth::bits_for(trace.geometry().width));
    std::vector<NetId> rs, cs;
    {
      Scope s(tr_, "synth.counter_decoder");
      rs = synth::build_decoder(b, row_addr, trace.geometry().height, netlist::kConst1,
                                cntag->style);
      cs = synth::build_decoder(b, col_addr, trace.geometry().width, netlist::kConst1,
                                cntag->style);
    }
    b.output_bus("ra", row_addr);
    b.output_bus("ca", col_addr);
    b.output_bus("rs", rs);
    b.output_bus("cs", cs);
    note = cntag->note;
  } else if (const auto enc = fsm_variant(e.name)) {
    const std::size_t L = trace.length();
    if (L > opt_.max_fsm_states)
      return infeasible(e.name, "synthesis impractical beyond " +
                                    std::to_string(opt_.max_fsm_states) +
                                    " states (sequence has " + std::to_string(L) + ")");
    Scope s(tr_, "synth.fsm");
    synth::FsmSpec row_spec;
    row_spec.next_state.resize(L);
    for (std::size_t i = 0; i < L; ++i)
      row_spec.next_state[i] = static_cast<std::uint32_t>((i + 1) % L);
    row_spec.select_of_state = trace.rows();
    row_spec.num_select_lines = trace.geometry().height;
    synth::FsmSpec col_spec = row_spec;
    col_spec.select_of_state = trace.cols();
    col_spec.num_select_lines = trace.geometry().width;
    NetlistBuilder b(nl);
    const NetId next = b.input("next");
    const NetId reset = b.input("reset");
    const synth::FsmStyle style{*enc, /*flat_mapping=*/true, opt_.minimize};
    const auto row_ports = synth::build_fsm(b, row_spec, next, reset, style);
    const auto col_ports = synth::build_fsm(b, col_spec, next, reset, style);
    b.output_bus("rs", row_ports.select);
    b.output_bus("cs", col_ports.select);
  } else if (e.name == "SFM") {
    if (!is_fifo(trace)) return infeasible(e.name, "SFM supports FIFO access only");
    Scope s(tr_, "core.generator_build");
    nl = core::elaborate_sfm(trace.geometry().size());
    note = "one-hot FIFO pointers (1-D memory)";
  } else {
    throw std::logic_error("perfbench: no decomposition for registry entry " + e.name);
  }

  // core::measure_netlist, step by step.
  tally_.cells += nl.cells().size();
  {
    Scope s(tr_, "netlist.sweep");
    nl.sweep_dead_cells();
  }
  tech::BufferingStats buffering;
  {
    Scope s(tr_, "tech.buffer");
    buffering = tech::insert_buffers(nl, opt_.max_fanout);
  }
  tech::TimingReport timing;
  {
    Scope s(tr_, "tech.sta");
    timing = tech::analyze_timing(nl, opt_.library);
  }
  tech::AreaReport area;
  {
    Scope s(tr_, "tech.area");
    area = tech::analyze_area(nl, opt_.library);
  }
  core::DesignPoint p;
  p.architecture = e.name;
  p.feasible = true;
  p.note = std::move(note);
  p.metrics.area_units = area.total;
  p.metrics.delay_ns = timing.critical_path_ns;
  p.metrics.clk_to_out_ns = timing.clk_to_output_ns;
  p.metrics.reg_to_reg_ns = timing.reg_to_reg_ns;
  p.metrics.cells = area.cells;
  p.metrics.buffers_added = buffering.buffers_added;
  {
    Scope s(tr_, "netlist.stats");
    p.metrics.flipflops = nl.stats().num_seq;
  }
  tally_.buffers_added += buffering.buffers_added;
  return p;
}

Decomposer::Outcome Decomposer::explore(const seq::AddressTrace& trace) {
  Outcome out;
  // explore_generators: every applicable entry in registry order; a throwing
  // entry does not stop the others, and the first failure in registry order
  // becomes the trace's error.
  std::exception_ptr first_error;
  for (const core::GeneratorEntry& e : core::generator_registry()) {
    if (!opt_.archs.empty() &&
        std::find(opt_.archs.begin(), opt_.archs.end(), e.name) == opt_.archs.end())
      continue;
    if (!e.applicable(trace, opt_)) continue;
    try {
      out.points.push_back(candidate(e, trace));
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      out.points.emplace_back();
    }
  }
  if (first_error) {
    try {
      std::rethrow_exception(first_error);
    } catch (const std::exception& ex) {
      out.error = ex.what();
    }
    out.points.clear();
    return out;
  }

  {
    Scope s(tr_, "core.pareto");
    out.pareto = core::pareto_front(out.points);
  }
  if (!opt_.verify_front) return out;
  // core::verify_pareto_points: re-elaborate through the registry's
  // reference callable, replay in the word simulator, annotate the note.
  for (std::size_t idx : out.pareto) {
    core::DesignPoint& p = out.points[idx];
    const core::GeneratorEntry* entry = nullptr;
    for (const core::GeneratorEntry& e : core::generator_registry())
      if (e.name == p.architecture) entry = &e;
    std::optional<core::ReferenceCircuit> rc;
    if (entry && entry->reference) {
      Scope s(tr_, "core.reference");
      rc = entry->reference(trace, opt_);
    }
    if (!rc) {
      p.note += " [verify skipped: no reference netlist]";
      continue;
    }
    std::optional<std::string> err;
    {
      Scope s(tr_, "sim.replay");
      err = core::verify_reference_against_trace(*rc, trace);
    }
    ++tally_.replayed;
    tally_.cycles += trace.length();
    if (err) {
      p.note += " [verify FAILED: " + *err + "]";
    } else {
      ++tally_.verified;
      p.note += " [verified: " + std::to_string(trace.length()) + " cycles x " +
                std::to_string(sim::WordSimulator::kLanes) + " lanes]";
    }
  }
  return out;
}

core::BatchEntry Decomposer::entry(const seq::AddressTrace& trace, std::size_t index) {
  core::BatchEntry entry;
  entry.name = trace.name().empty() ? "trace" + std::to_string(index) : trace.name();
  entry.geometry = trace.geometry();
  entry.trace_length = trace.length();
  {
    Scope s(tr_, "core.fingerprint");
    entry.trace_hash = core::trace_fingerprint(trace);
  }
  ++tally_.traces;
  auto it = memo_.find(entry.trace_hash);
  if (it == memo_.end()) {
    Scope s(tr_, "core.explore");
    ++tally_.evaluations;
    tally_.accesses += trace.length();
    it = memo_.emplace(entry.trace_hash, explore(trace)).first;
  } else {
    ++tally_.memo_hits;
  }
  entry.points = it->second.points;
  entry.pareto = it->second.pareto;
  entry.error = it->second.error;
  return entry;
}

bool same_entry(const core::BatchEntry& a, const core::BatchEntry& b, std::string& why) {
  auto fail = [&](const std::string& what) {
    why = a.name + ": " + what;
    return false;
  };
  if (a.name != b.name || !(a.geometry == b.geometry) || a.trace_length != b.trace_length ||
      a.trace_hash != b.trace_hash)
    return fail("trace identity differs");
  if (a.error != b.error) return fail("error differs ('" + a.error + "' vs '" + b.error + "')");
  if (a.pareto != b.pareto) return fail("Pareto front differs");
  if (a.points.size() != b.points.size()) return fail("point count differs");
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const core::DesignPoint& p = a.points[i];
    const core::DesignPoint& q = b.points[i];
    const core::GeneratorMetrics& m = p.metrics;
    const core::GeneratorMetrics& n = q.metrics;
    if (p.architecture != q.architecture || p.feasible != q.feasible)
      return fail("point " + std::to_string(i) + " identity differs");
    if (m.area_units != n.area_units || m.delay_ns != n.delay_ns ||
        m.clk_to_out_ns != n.clk_to_out_ns || m.reg_to_reg_ns != n.reg_to_reg_ns ||
        m.cells != n.cells || m.flipflops != n.flipflops ||
        m.buffers_added != n.buffers_added)
      return fail(p.architecture + " metrics differ");
    if (p.note != q.note) return fail(p.architecture + " note differs");
  }
  return true;
}

}  // namespace perfbench
