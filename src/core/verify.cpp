#include "core/verify.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/word_simulator.hpp"

namespace addm::core {

namespace {

using netlist::NetId;
using sim::WordSimulator;
constexpr std::size_t kLanes = WordSimulator::kLanes;
constexpr std::uint64_t kAll = WordSimulator::kAllLanes;

/// The mask of lanes [0, n).
constexpr std::uint64_t first_lanes(std::size_t n) {
  return n == kLanes ? kAll : (std::uint64_t{1} << n) - 1;
}

/// One checked select bus.
struct Bus {
  const std::string* name;
  std::vector<NetId> nets;
};

std::string too_short(const Bus& bus, std::size_t expected, std::size_t access) {
  std::ostringstream os;
  os << "cycle " << access << ": expected " << *bus.name << "[" << expected
     << "] but the bus has only " << bus.nets.size() << " lines";
  return os.str();
}

std::string wrong_line(const Bus& bus, std::size_t line, bool value, std::size_t expected,
                       std::size_t access) {
  std::ostringstream os;
  os << "cycle " << access << ": " << *bus.name << "[" << line << "] is " << value
     << " (hot line should be " << expected << ")";
  return os.str();
}

/// Whether `rc` has a recipe whose `state` names every flip-flop of its
/// netlist exactly once.
bool names_every_flipflop(const ReferenceCircuit& rc) {
  const netlist::Netlist& nl = rc.netlist;
  if (!rc.state_at || rc.state.size() != nl.stats().num_seq) return false;
  std::vector<char> seen(nl.num_nets(), 0);
  for (NetId q : rc.state) {
    const auto cell = nl.driver_of(q);
    if (!cell || !netlist::is_sequential(nl.cell(*cell).type) || seen[q]) return false;
    seen[q] = 1;
  }
  return true;
}

/// The first failure recorded in each lane.
struct LaneFailures {
  std::vector<std::string> text;
  std::uint64_t mask = 0;
  void record(std::size_t lane, std::string why) {
    if ((mask >> lane) & 1) return;
    mask |= std::uint64_t{1} << lane;
    text[lane] = std::move(why);
  }
};

/// One verification replay of `rc` against `trace`.
class Replay {
 public:
  Replay(const ReferenceCircuit& rc, const seq::AddressTrace& trace)
      : rc_(rc), trace_(trace), ws_(rc.netlist) {
    buses_.push_back({&rc.row_bus, rc.netlist.find_output_bus(rc.row_bus)});
    if (!rc.col_bus.empty())
      buses_.push_back({&rc.col_bus, rc.netlist.find_output_bus(rc.col_bus)});
    for (const Bus& bus : buses_) want_.resize(std::max(want_.size(), bus.nets.size()), 0);
  }

  std::optional<std::string> run() {
    for (const Bus& bus : buses_)
      if (bus.nets.empty()) return "reference netlist has no output bus " + *bus.name;

    // One reset cycle with the replay inputs deasserted.
    ws_.set_all("reset", true);
    for (const auto& [name, value] : rc_.drive) {
      (void)value;
      ws_.set_all(name, false);
    }
    ws_.step();

    const std::size_t length = trace_.length();
    const std::size_t seg = (length + kLanes - 1) / kLanes;  // accesses per lane
    const std::size_t lanes = seg == 0 ? 0 : (length + seg - 1) / seg;
    std::size_t from = 0;  // accesses [0, from) are checked
    if (const auto start = lane_starts(seg, lanes)) {
      auto [failure, resume] = run_segmented(seg, lanes, *start);
      if (failure || resume == length) return failure;
      from = resume;
    } else {
      release();
    }
    LaneFailures failures = check(from, length - from, 1);
    if (failures.mask) return std::move(failures.text[0]);
    return std::nullopt;
  }

 private:
  void release() {
    ws_.set_all("reset", false);
    for (const auto& [name, value] : rc_.drive) ws_.set_all(name, value);
  }

  /// The recipe's state at accesses 0, seg, ..., (lanes-1)*seg; nullopt for
  /// a single lane or a recipe that does not fit the netlist.
  std::optional<std::vector<std::uint64_t>> lane_starts(std::size_t seg,
                                                        std::size_t lanes) const {
    if (lanes <= 1 || !names_every_flipflop(rc_)) return std::nullopt;
    std::vector<std::size_t> starts(lanes);
    for (std::size_t j = 0; j < lanes; ++j) starts[j] = j * seg;
    std::vector<std::uint64_t> start = rc_.state_at(starts);
    if (start.size() != rc_.state.size()) return std::nullopt;
    return start;
  }

  /// Expected hot line of bus `b` at access k: the linear address on a 1-D
  /// generator's single bus, else the row or the column.
  std::size_t expected(std::size_t b, std::size_t k) const {
    const std::uint32_t a = trace_.linear()[k];
    if (buses_.size() == 1) return a;
    return b == 0 ? trace_.row_of(a) : trace_.col_of(a);
  }

  /// Runs up to `cycles` cycles in which lane j < lanes checks access
  /// from + j*cycles + t at cycle t, on every select line, until the trace
  /// ends.  Stops once lane 0 fails: it is the replay from reset, so its
  /// first failure is the verdict.  Per cycle and bus the work is one word
  /// compare per line plus one expectation per lane, so a single lane costs
  /// what a plain replay does.
  LaneFailures check(std::size_t from, std::size_t cycles, std::size_t lanes) {
    const std::size_t length = trace_.length();
    const std::uint64_t used = first_lanes(lanes);
    LaneFailures failures{std::vector<std::string>(lanes)};
    for (std::size_t t = 0; t < cycles && !(failures.mask & 1); ++t) {
      std::uint64_t active = used;
      if (from + (lanes - 1) * cycles + t >= length)  // the last lane may end early
        active &= ~(std::uint64_t{1} << (lanes - 1));
      for (std::size_t b = 0; b < buses_.size(); ++b) {
        const Bus& bus = buses_[b];
        std::fill_n(want_.data(), bus.nets.size(), 0);
        for (std::uint64_t m = active; m; m &= m - 1) {
          const std::size_t j = static_cast<std::size_t>(std::countr_zero(m));
          const std::size_t k = from + j * cycles + t;
          const std::size_t e = expected(b, k);
          if (e < bus.nets.size())
            want_[e] |= std::uint64_t{1} << j;
          else
            failures.record(j, too_short(bus, e, k));
        }
        // One word compare per line; the lines are searched again only when
        // some lane is wrong.
        const std::uint64_t* want = want_.data();
        std::uint64_t wrong = 0;
        for (std::size_t i = 0; i < bus.nets.size(); ++i)
          wrong |= ws_.word(bus.nets[i]) ^ want[i];
        std::uint64_t live = active & ~failures.mask;
        for (std::size_t i = 0; (wrong & live) != 0 && i < bus.nets.size(); ++i) {
          std::uint64_t bad = (ws_.word(bus.nets[i]) ^ want[i]) & live;
          live &= ~bad;
          for (; bad; bad &= bad - 1) {
            const std::size_t j = static_cast<std::size_t>(std::countr_zero(bad));
            const std::size_t k = from + j * cycles + t;
            const bool value = ((want[i] >> j) & 1) == 0;
            failures.record(j, wrong_line(bus, i, value, expected(b, k), k));
          }
        }
      }
      ws_.step();
    }
    return failures;
  }

  struct Segmented {
    std::optional<std::string> failure;  ///< first failure a reset replay shows
    std::size_t resume;                  ///< first access no chained lane covered
  };

  /// Lane j replays accesses [j*seg, (j+1)*seg) from `start`'s lane j, lane 0
  /// from the reset cycle just run.  Lanes up to the first chain break are
  /// the replay from reset, cut in pieces; a break leaves every lane at the
  /// true state of `resume`.
  Segmented run_segmented(std::size_t seg, std::size_t lanes,
                          const std::vector<std::uint64_t>& start) {
    const std::size_t length = trace_.length();
    const std::uint64_t poked = first_lanes(lanes) & ~std::uint64_t{1};
    ws_.set_state(rc_.state, start, poked);
    // Each lane sees its first access as a replay from reset would: lane 0
    // right after the reset cycle, with its inputs still applied, the
    // poked lanes with the replay inputs.
    ws_.set("reset", 1);
    for (const auto& [name, value] : rc_.drive) ws_.set(name, value ? poked : 0);
    ws_.eval();
    release();

    LaneFailures failures = check(0, seg, lanes);
    if (failures.mask & 1) return {std::move(failures.text[0]), length};

    // Lane j now holds the state of access (j+1)*seg.  Where that equals
    // what was poked into lane j+1 for every flip-flop, lane j+1 started
    // from the true state; lanes [0, real) therefore replay from reset.
    std::uint64_t broken = 0;
    for (std::size_t k = 0; k < rc_.state.size(); ++k)
      broken |= ((ws_.word(rc_.state[k]) << 1) ^ start[k]) & poked;
    const std::size_t real =
        broken ? static_cast<std::size_t>(std::countr_zero(broken)) : lanes;
    for (std::size_t j = 1; j < real; ++j)
      if ((failures.mask >> j) & 1) return {std::move(failures.text[j]), length};
    if (real == lanes) return {std::nullopt, length};

    // Copy lane real-1's end state, the true state of access real*seg,
    // into every lane.
    std::vector<std::uint64_t> words(rc_.state.size());
    for (std::size_t k = 0; k < rc_.state.size(); ++k)
      words[k] = ((ws_.word(rc_.state[k]) >> (real - 1)) & 1) ? kAll : 0;
    ws_.set_state(rc_.state, words);
    ws_.eval();
    return {std::nullopt, real * seg};
  }

  const ReferenceCircuit& rc_;
  const seq::AddressTrace& trace_;
  WordSimulator ws_;
  std::vector<Bus> buses_;
  std::vector<std::uint64_t> want_;  ///< per line of the bus checked, the lanes expected hot
};

}  // namespace

std::optional<std::string> verify_reference_against_trace(
    const ReferenceCircuit& rc, const seq::AddressTrace& trace) {
  return Replay(rc, trace).run();
}

std::string verify_verdict(const ReferenceCircuit& rc, const seq::AddressTrace& trace) {
  if (auto err = verify_reference_against_trace(rc, trace))
    return " [verify FAILED: " + *err + "]";
  return " [verified: " + std::to_string(trace.length()) + " cycles x " +
         std::to_string(kLanes) + " lanes]";
}

}  // namespace addm::core
