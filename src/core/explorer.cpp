#include "core/explorer.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "core/cntag.hpp"
#include "core/multicounter.hpp"
#include "core/sfm.hpp"
#include "core/srag_elab.hpp"
#include "core/srag_mapper.hpp"
#include "core/srag_model.hpp"
#include "core/thread_pool.hpp"
#include "core/verify.hpp"
#include "seq/periodicity.hpp"
#include "synth/fsm.hpp"

namespace addm::core {

using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

namespace {

// --- replay recipes (ReferenceCircuit::state/state_at) ------------------------

/// Writes one lane of a replay recipe's words, flip-flop by flip-flop in
/// `ReferenceCircuit::state` order.
class LaneWriter {
 public:
  LaneWriter(std::vector<std::uint64_t>& words, std::size_t lane)
      : words_(words), bit_(std::uint64_t{1} << lane) {}
  /// The next `width` flip-flops hold `value`, LSB first.
  void binary(std::uint64_t value, std::size_t width) {
    for (std::size_t k = 0; k < width; ++k)
      if ((value >> k) & 1) words_[at_ + k] |= bit_;
    at_ += width;
  }
  /// The next `width` flip-flops hold one token, at `pos`.
  void one_hot(std::size_t pos, std::size_t width) {
    words_[at_ + pos] |= bit_;
    at_ += width;
  }

 private:
  std::vector<std::uint64_t>& words_;
  std::uint64_t bit_;
  std::size_t at_ = 0;
};

/// A state_at that writes each lane with `lane(writer, access)`.
template <class Lane>
auto closed_form_recipe(std::size_t flipflops, Lane lane) {
  return [flipflops, lane](std::span<const std::size_t> accesses) {
    std::vector<std::uint64_t> words(flipflops, 0);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      LaneWriter w(words, i);
      lane(w, accesses[i]);
    }
    return words;
  };
}

void append(std::vector<NetId>& state, const std::vector<NetId>& nets) {
  state.insert(state.end(), nets.begin(), nets.end());
}

/// The token flip-flops, register by register, last in both SRAG layouts.
template <class Model>
void write_token(LaneWriter& w, const std::vector<std::vector<NetId>>& token,
                 const Model& m) {
  std::size_t at = m.token_position(), n = 0;
  for (std::size_t r = 0; r < token.size(); ++r) {
    if (r < m.token_register()) at += token[r].size();
    n += token[r].size();
  }
  w.one_hot(at, n);
}

// One SRAG dimension: DivCnt, PassCnt, then the token flip-flops.
void append_state(std::vector<NetId>& state, const SragPorts& p) {
  append(state, p.div_q);
  append(state, p.pass_q);
  for (const auto& reg : p.token) append(state, reg);
}

void write_state(LaneWriter& w, const SragPorts& p, const SragModel& m) {
  w.binary(m.div_counter(), p.div_q.size());
  w.binary(m.pass_counter(), p.pass_q.size());
  write_token(w, p.token, m);
}

// One multi-counter dimension: DivCnt, each register's pass counter, then
// the token flip-flops.
void append_state(std::vector<NetId>& state, const MultiSragPorts& p) {
  append(state, p.div_q);
  for (const auto& q : p.pass_q) append(state, q);
  for (const auto& reg : p.token) append(state, reg);
}

void write_state(LaneWriter& w, const MultiSragPorts& p, const MultiSragModel& m) {
  w.binary(m.div_counter(), p.div_q.size());
  // Only the register holding the token has counted since it last wrapped.
  for (std::size_t i = 0; i < p.pass_q.size(); ++i)
    w.binary(i == m.token_register() ? m.pass_counter() : 0, p.pass_q[i].size());
  write_token(w, p.token, m);
}

/// Gives `rc` the recipe of a row and a column SRAG dimension: state_at
/// walks copies of their models from reset once, up to the last access.
template <class Ports, class Model>
void set_srag_recipe(ReferenceCircuit& rc, Ports row, Ports col, Model row_model,
                     Model col_model) {
  append_state(rc.state, row);
  append_state(rc.state, col);
  rc.state_at = [flipflops = rc.state.size(), row = std::move(row), col = std::move(col),
                 row_model, col_model](std::span<const std::size_t> accesses) {
    Model r = row_model, c = col_model;
    std::vector<std::uint64_t> words(flipflops, 0);
    std::size_t at = 0;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      for (; at < accesses[i]; ++at) {
        r.pulse();
        c.pulse();
      }
      LaneWriter w(words, i);
      write_state(w, row, r);
      write_state(w, col, c);
    }
    return words;
  };
}

// --- registry builds ------------------------------------------------------------

ReferenceCircuit fsm_circuit(const seq::AddressTrace& trace, synth::FsmEncoding enc,
                             const logic::MinimizeOptions& minimize) {
  const auto rows = trace.rows();
  const auto cols = trace.cols();
  const std::size_t L = trace.length();

  synth::FsmSpec row_spec;
  row_spec.next_state.resize(L);
  for (std::size_t i = 0; i < L; ++i)
    row_spec.next_state[i] = static_cast<std::uint32_t>((i + 1) % L);
  row_spec.select_of_state = rows;
  row_spec.num_select_lines = trace.geometry().height;

  synth::FsmSpec col_spec = row_spec;
  col_spec.select_of_state = cols;
  col_spec.num_select_lines = trace.geometry().width;

  ReferenceCircuit rc;
  NetlistBuilder b(rc.netlist);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  const synth::FsmStyle style{enc, /*flat_mapping=*/true, minimize};
  const auto row_ports = synth::build_fsm(b, row_spec, next, reset, style);
  const auto col_ports = synth::build_fsm(b, col_spec, next, reset, style);
  b.output_bus("rs", row_ports.select);
  b.output_bus("cs", col_ports.select);

  // Both machines sit in state p at access p: one-hot flip-flop p, or the
  // binary/gray code of p.
  append(rc.state, row_ports.state);
  append(rc.state, col_ports.state);
  const std::size_t width = row_ports.state.size();
  rc.state_at = closed_form_recipe(rc.state.size(), [enc, width](LaneWriter& w,
                                                                 std::size_t p) {
    for (int machine = 0; machine < 2; ++machine) {
      if (enc == synth::FsmEncoding::OneHot)
        w.one_hot(p, width);
      else
        w.binary(enc == synth::FsmEncoding::Gray
                     ? synth::gray_code(static_cast<std::uint32_t>(p))
                     : p,
                 width);
    }
  });
  return rc;
}

bool is_fifo(const seq::AddressTrace& trace) {
  const auto& a = trace.linear();
  if (a.size() != trace.geometry().size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != i) return false;
  return true;
}

bool always(const seq::AddressTrace&, const ExploreOptions&) { return true; }

CandidateBuild build_srag(const seq::AddressTrace& trace, const ExploreOptions&,
                          BuildContext&) {
  try {
    Srag2dBuild srag = build_srag_2d_for_trace(trace);
    std::ostringstream note;
    note << "row: " << srag.row.num_registers() << " regs/" << srag.row.num_flipflops()
         << " ffs dC=" << srag.row.div_count << " pC=" << srag.row.pass_count
         << "; col: " << srag.col.num_registers() << " regs/" << srag.col.num_flipflops()
         << " ffs dC=" << srag.col.div_count << " pC=" << srag.col.pass_count;
    ReferenceCircuit rc{std::move(srag.netlist)};
    set_srag_recipe(rc, std::move(srag.row_ports), std::move(srag.col_ports),
                    SragModel(srag.row), SragModel(srag.col));
    return {std::move(rc), note.str()};
  } catch (const std::invalid_argument& e) {
    return {std::nullopt, e.what()};
  }
}

CandidateBuild build_multicounter(const seq::AddressTrace& trace, const ExploreOptions&,
                                  BuildContext&) {
  auto row_map = map_sequence_multicounter(
      trace.rows(), static_cast<std::uint32_t>(trace.geometry().height));
  auto col_map = map_sequence_multicounter(
      trace.cols(), static_cast<std::uint32_t>(trace.geometry().width));
  if (!row_map.ok() || !col_map.ok())
    return {std::nullopt, !row_map.ok() ? "row: " + row_map.detail : "col: " + col_map.detail};
  ReferenceCircuit rc;
  NetlistBuilder b(rc.netlist);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  MultiSragPorts rp = build_multi_srag(b, *row_map.config, next, reset);
  MultiSragPorts cp = build_multi_srag(b, *col_map.config, next, reset);
  b.output_bus("rs", rp.select);
  b.output_bus("cs", cp.select);
  set_srag_recipe(rc, std::move(rp), std::move(cp), MultiSragModel(*row_map.config),
                  MultiSragModel(*col_map.config));
  return {std::move(rc), ""};
}

GeneratorEntry cntag_entry(std::string name, synth::DecoderStyle style,
                           std::string note) {
  return {std::move(name), always,
          [style, note](const seq::AddressTrace& trace, const ExploreOptions& opt,
                        BuildContext& ctx) -> CandidateBuild {
            // A one-access sequence has no modulo-2-or-more counter to build.
            if (trace.length() == 1)
              return {std::nullopt, "sequence counter needs at least 2 accesses"};
            CntAgOptions copt;
            copt.decoder_style = style;
            copt.minimize = opt.minimize;
            CntAgPorts ports;
            ReferenceCircuit rc{
                elaborate_cntag(trace, copt, ctx.cntag_covers(trace, opt.minimize), &ports)};
            // The sequence counter holds p at access p.
            rc.state = std::move(ports.index);
            rc.state_at = closed_form_recipe(
                rc.state.size(), [width = rc.state.size()](LaneWriter& w, std::size_t p) {
                  w.binary(p, width);
                });
            return {std::move(rc), note};
          }};
}

GeneratorEntry fsm_entry(std::string name, synth::FsmEncoding enc) {
  return {std::move(name),
          [](const seq::AddressTrace&, const ExploreOptions& opt) { return opt.include_fsm; },
          [enc](const seq::AddressTrace& trace, const ExploreOptions& opt,
                BuildContext&) -> CandidateBuild {
            if (trace.length() > opt.max_fsm_states) {
              return {std::nullopt, "synthesis impractical beyond " +
                                        std::to_string(opt.max_fsm_states) +
                                        " states (sequence has " +
                                        std::to_string(trace.length()) + ")"};
            }
            return {fsm_circuit(trace, enc, opt.minimize), ""};
          }};
}

CandidateBuild build_sfm(const seq::AddressTrace& trace, const ExploreOptions&,
                         BuildContext&) {
  if (!is_fifo(trace)) return {std::nullopt, "SFM supports FIFO access only"};
  // The head pointer walks the FIFO order, i.e. the linear trace; the tail
  // pointer never moves.  At access p the read ring holds its token at p
  // and the write ring at 0.
  const std::size_t cells = trace.geometry().size();
  SfmPorts ports;
  ReferenceCircuit rc{elaborate_sfm(cells, &ports),
                      {{"next_read", true}, {"next_write", false}},
                      "rsel",
                      ""};
  append(rc.state, ports.write_select);
  append(rc.state, ports.read_select);
  rc.state_at = closed_form_recipe(rc.state.size(), [cells](LaneWriter& w, std::size_t p) {
    w.one_hot(0, cells);
    w.one_hot(p, cells);
  });
  return {std::move(rc), "one-hot FIFO pointers (1-D memory)"};
}

std::vector<GeneratorEntry> build_registry() {
  std::vector<GeneratorEntry> reg = {
      {"SRAG", always, build_srag},
      {"SRAG-multicounter", always, build_multicounter},
      cntag_entry("CntAG-flat", synth::DecoderStyle::Flat, "flat decoders"),
      cntag_entry("CntAG-shared", synth::DecoderStyle::SharedChain,
                  "shared chain decoders (2002 flow)"),
      cntag_entry("CntAG-predecoded", synth::DecoderStyle::SharedBalanced,
                  "balanced predecoders (modern flow)"),
      fsm_entry("FSM-binary", synth::FsmEncoding::Binary),
      fsm_entry("FSM-gray", synth::FsmEncoding::Gray),
      fsm_entry("FSM-onehot", synth::FsmEncoding::OneHot),
      {"SFM", always, build_sfm},
  };
  // One adapter for every entry, so `reference` cannot drift from `build`.
  for (GeneratorEntry& e : reg)
    e.reference = [build = e.build](const seq::AddressTrace& trace,
                                    const ExploreOptions& opt) {
      BuildContext ctx;
      return build(trace, opt, ctx).circuit;
    };
  return reg;
}

}  // namespace

const CntAgCovers& BuildContext::cntag_covers(const seq::AddressTrace& trace,
                                              const logic::MinimizeOptions& minimize) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!cntag_) {
    cntag_ = core::cntag_covers(trace, minimize);
    trace_ = &trace;
    minimize_ = minimize;
  } else if (&trace != trace_ || minimize != minimize_) {
    throw std::logic_error("BuildContext: one context serves one trace and minimizer");
  }
  return *cntag_;
}

const std::vector<GeneratorEntry>& generator_registry() {
  static const std::vector<GeneratorEntry> registry = build_registry();
  return registry;
}

std::vector<std::string> generator_names() {
  std::vector<std::string> names;
  for (const GeneratorEntry& e : generator_registry()) names.push_back(e.name);
  return names;
}

DesignPoint evaluate_generator(const GeneratorEntry& e, const seq::AddressTrace& trace,
                               const ExploreOptions& opt, BuildContext& ctx) {
  CandidateBuild b = e.build(trace, opt, ctx);
  DesignPoint p;
  p.architecture = e.name;
  p.note = std::move(b.note);
  if (b.circuit) {
    p.metrics = measure_netlist(b.circuit->netlist, opt.library, opt.max_fanout);
    p.feasible = true;
  }
  return p;
}

std::vector<DesignPoint> explore_generators(const seq::AddressTrace& trace,
                                            const ExploreOptions& opt) {
  // Periodicity compression: when the trace is exactly k >= 2 whole passes
  // of one period (no warm-up prefix, no partial tail — the only shape a
  // cyclic generator reproduces exactly), evaluate every candidate on a
  // single period and annotate the notes with the factorization.  The
  // factorization is itself deterministic, so the result stays a pure
  // function of (trace, opt).  Anything else — including every built-in
  // synthetic suite trace, which are all aperiodic — falls through to the
  // unchanged full-trace path.
  if (opt.compress_periodic) {
    seq::CompressedTrace ct = seq::compress_periodic(trace);
    if (ct.pure() && ct.compressed()) {
      const std::size_t period_len = ct.period.size();
      seq::AddressTrace one_period(trace.geometry(), std::move(ct.period),
                                   trace.name());
      ExploreOptions inner = opt;
      inner.compress_periodic = false;
      std::vector<DesignPoint> points = explore_generators(one_period, inner);
      const std::string tag = "[periodic " + std::to_string(ct.repeats) + "x" +
                              std::to_string(period_len) + "]";
      for (DesignPoint& p : points)
        p.note = p.note.empty() ? tag : p.note + " " + tag;
      return points;
    }
  }

  // Select in registry order; the selection depends only on (trace, opt),
  // never on scheduling, so the slot layout of `points` is fixed up front.
  std::vector<const GeneratorEntry*> selected;
  for (const GeneratorEntry& e : generator_registry()) {
    if (!opt.archs.empty() &&
        std::find(opt.archs.begin(), opt.archs.end(), e.name) == opt.archs.end())
      continue;
    if (!e.applicable(trace, opt)) continue;
    selected.push_back(&e);
  }

  // Shared by every build below, front rebuilds included, and by every
  // thread; it ends with this call, so nothing stays resident.
  BuildContext ctx;
  std::vector<DesignPoint> points(selected.size());
  std::vector<std::exception_ptr> errors(selected.size());
  auto run_one = [&](std::size_t i) {
    try {
      points[i] = evaluate_generator(*selected[i], trace, opt, ctx);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  // Each entry is a leaf task writing only its own slot; any pool is local
  // to this call, so nesting under a batch worker cannot deadlock.
  parallel_for(opt.arch_threads, selected.size(), run_one);

  // A degenerate trace may fail several entries on different threads;
  // rethrow the first failure in registry order so callers (and their
  // serialized error strings) see the same exception at every thread count.
  for (std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Opt-in gate-level verification of the Pareto front (core/verify.hpp).
  // Runs after the parallel section on the calling thread, annotating notes
  // deterministically — the result stays a pure function of (trace, opt),
  // and the flag is fingerprinted so annotated and plain runs never share
  // cache keys.  Front points are rebuilt, not kept from the evaluation
  // above: holding every measured netlist until the front is known costs
  // peak memory, and build is pure, so a feasible point rebuilds to the
  // circuit that was measured.
  if (opt.verify_front)
    for (std::size_t i : pareto_front(points))
      points[i].note +=
          verify_verdict(selected[i]->build(trace, opt, ctx).circuit.value(), trace);
  return points;
}

std::vector<std::size_t> pareto_front(const std::vector<DesignPoint>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].feasible) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j || !points[j].feasible) continue;
      const bool no_worse = points[j].metrics.area_units <= points[i].metrics.area_units &&
                            points[j].metrics.delay_ns <= points[i].metrics.delay_ns;
      const bool better = points[j].metrics.area_units < points[i].metrics.area_units ||
                          points[j].metrics.delay_ns < points[i].metrics.delay_ns;
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::string format_exploration(const std::vector<DesignPoint>& points) {
  const auto front = pareto_front(points);
  auto on_front = [&](std::size_t i) {
    return std::find(front.begin(), front.end(), i) != front.end();
  };
  const std::string name_header = "architecture";
  std::size_t name_w = name_header.size();
  for (const DesignPoint& p : points) name_w = std::max(name_w, p.architecture.size());
  name_w += 2;
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << name_header;
  for (std::size_t pad = name_header.size(); pad < name_w; ++pad) os << ' ';
  os << "feasible  area(units)  delay(ns)  pareto  note\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignPoint& p = points[i];
    os << p.architecture;
    for (std::size_t pad = p.architecture.size(); pad < name_w; ++pad) os << ' ';
    if (p.feasible) {
      std::ostringstream area, delay;
      area.precision(0);
      area << std::fixed << p.metrics.area_units;
      delay.precision(3);
      delay << std::fixed << p.metrics.delay_ns;
      os << "yes       ";
      os << area.str();
      for (std::size_t pad = area.str().size(); pad < 13; ++pad) os << ' ';
      os << delay.str();
      for (std::size_t pad = delay.str().size(); pad < 11; ++pad) os << ' ';
      os << (on_front(i) ? "*       " : "        ");
      os << p.note << "\n";
    } else {
      os << "no        -            -          -       " << p.note << "\n";
    }
  }
  return os.str();
}

}  // namespace addm::core
