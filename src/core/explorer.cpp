#include "core/explorer.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "core/cntag.hpp"
#include "core/multicounter.hpp"
#include "core/sfm.hpp"
#include "core/srag_elab.hpp"
#include "core/srag_mapper.hpp"
#include "core/thread_pool.hpp"
#include "core/verify.hpp"
#include "seq/periodicity.hpp"
#include "synth/fsm.hpp"

namespace addm::core {

using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

namespace {

Netlist elaborate_fsm_2d(const seq::AddressTrace& trace, synth::FsmEncoding enc,
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

  Netlist nl;
  NetlistBuilder b(nl);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  const synth::FsmStyle style{enc, /*flat_mapping=*/true, minimize};
  const auto row_ports = synth::build_fsm(b, row_spec, next, reset, style);
  const auto col_ports = synth::build_fsm(b, col_spec, next, reset, style);
  b.output_bus("rs", row_ports.select);
  b.output_bus("cs", col_ports.select);
  return nl;
}

bool is_fifo(const seq::AddressTrace& trace) {
  const auto& a = trace.linear();
  if (a.size() != trace.geometry().size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != i) return false;
  return true;
}

bool always(const seq::AddressTrace&, const ExploreOptions&) { return true; }

CandidateBuild build_srag(const seq::AddressTrace& trace, const ExploreOptions&) {
  try {
    Srag2dBuild srag = build_srag_2d_for_trace(trace);
    std::ostringstream note;
    note << "row: " << srag.row.num_registers() << " regs/" << srag.row.num_flipflops()
         << " ffs dC=" << srag.row.div_count << " pC=" << srag.row.pass_count
         << "; col: " << srag.col.num_registers() << " regs/" << srag.col.num_flipflops()
         << " ffs dC=" << srag.col.div_count << " pC=" << srag.col.pass_count;
    return {ReferenceCircuit{std::move(srag.netlist)}, note.str()};
  } catch (const std::invalid_argument& e) {
    return {std::nullopt, e.what()};
  }
}

CandidateBuild build_multicounter(const seq::AddressTrace& trace, const ExploreOptions&) {
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
  const auto rp = build_multi_srag(b, *row_map.config, next, reset);
  const auto cp = build_multi_srag(b, *col_map.config, next, reset);
  b.output_bus("rs", rp.select);
  b.output_bus("cs", cp.select);
  return {std::move(rc), ""};
}

GeneratorEntry cntag_entry(std::string name, synth::DecoderStyle style,
                           std::string note) {
  return {std::move(name), always,
          [style, note](const seq::AddressTrace& trace,
                        const ExploreOptions& opt) -> CandidateBuild {
            CntAgOptions copt;
            copt.decoder_style = style;
            copt.minimize = opt.minimize;
            return {ReferenceCircuit{elaborate_cntag(trace, copt)}, note};
          }};
}

GeneratorEntry fsm_entry(std::string name, synth::FsmEncoding enc) {
  return {std::move(name),
          [](const seq::AddressTrace&, const ExploreOptions& opt) { return opt.include_fsm; },
          [enc](const seq::AddressTrace& trace, const ExploreOptions& opt) -> CandidateBuild {
            if (trace.length() > opt.max_fsm_states) {
              return {std::nullopt, "synthesis impractical beyond " +
                                        std::to_string(opt.max_fsm_states) +
                                        " states (sequence has " +
                                        std::to_string(trace.length()) + ")"};
            }
            return {ReferenceCircuit{elaborate_fsm_2d(trace, enc, opt.minimize)}, ""};
          }};
}

CandidateBuild build_sfm(const seq::AddressTrace& trace, const ExploreOptions&) {
  if (!is_fifo(trace)) return {std::nullopt, "SFM supports FIFO access only"};
  // The head pointer walks the FIFO order, i.e. the linear trace.
  return {ReferenceCircuit{elaborate_sfm(trace.geometry().size()),
                           {{"next_read", true}, {"next_write", false}},
                           "rsel",
                           ""},
          "one-hot FIFO pointers (1-D memory)"};
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
      return build(trace, opt).circuit;
    };
  return reg;
}

}  // namespace

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
                               const ExploreOptions& opt) {
  CandidateBuild b = e.build(trace, opt);
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

  std::vector<DesignPoint> points(selected.size());
  std::vector<std::exception_ptr> errors(selected.size());
  auto run_one = [&](std::size_t i) {
    try {
      points[i] = evaluate_generator(*selected[i], trace, opt);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  std::size_t want = opt.arch_threads;
  if (want == 0) {
    want = std::thread::hardware_concurrency();
    if (want == 0) want = 1;
  }
  want = std::min(want, selected.size());
  if (want <= 1) {
    for (std::size_t i = 0; i < selected.size(); ++i) run_one(i);
  } else {
    // Each entry is a leaf task writing only its own slot; the pool is local
    // to this call, so nesting under a batch worker cannot deadlock.
    ThreadPool pool(want);
    pool.parallel_for(selected.size(), run_one);
  }

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
          verify_verdict(selected[i]->build(trace, opt).circuit.value(), trace);
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
