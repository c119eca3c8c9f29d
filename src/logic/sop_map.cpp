#include "logic/sop_map.hpp"

#include <stdexcept>
#include <vector>

namespace addm::logic {

using netlist::NetId;
using netlist::NetlistBuilder;

NetId map_cover(NetlistBuilder& b, const Cover& cover, std::span<const NetId> inputs) {
  std::vector<NetId> cube_nets;
  cube_nets.reserve(cover.cubes.size());
  std::vector<NetId> lits;  // one cube's literals, reused across cubes
  lits.reserve(inputs.size());
  for (const Cube& c : cover.cubes) {
    lits.clear();
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      if (!(c.mask & (1u << k))) continue;
      lits.push_back((c.polarity & (1u << k)) ? inputs[k] : b.inv(inputs[k]));
    }
    if (c.mask >> inputs.size())
      throw std::invalid_argument("map_cover: cube uses a variable beyond the input span");
    cube_nets.push_back(b.and_tree(lits));
  }
  return b.or_tree(cube_nets);
}

}  // namespace addm::logic
