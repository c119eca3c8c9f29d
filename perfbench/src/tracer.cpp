#include "tracer.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::int32_t Tracer::open(const char* name) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now, now, parent, id_});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  stack_.pop_back();
}

std::map<std::string, Tracer::NameStats> Tracer::by_name() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameStats& n = out[s.name];
    n.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    n.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    ++n.calls;
  }
  return out;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, stats] : by_name())
    out[name.substr(0, name.find('.'))] += stats.self_s;
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"id\": " << s.id << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
