#include "seq/trace.hpp"

#include <cstdint>
#include <stdexcept>

namespace addm::seq {

AddressTrace::AddressTrace(ArrayGeometry geom, std::vector<std::uint32_t> linear,
                           std::string name)
    : geom_(geom), linear_(std::move(linear)), name_(std::move(name)) {
  if (geom_.width == 0 || geom_.height == 0)
    throw std::invalid_argument("AddressTrace: degenerate geometry");
  // Addresses are 32-bit, so every cell must have one; dividing instead of
  // multiplying keeps the check itself from overflowing.
  if (geom_.width > UINT32_MAX / geom_.height)
    throw std::invalid_argument("AddressTrace: geometry " + std::to_string(geom_.width) +
                                "x" + std::to_string(geom_.height) + " has more than " +
                                std::to_string(UINT32_MAX) + " cells");
  for (std::uint32_t a : linear_)
    if (a >= geom_.size())
      throw std::invalid_argument("AddressTrace: address " + std::to_string(a) +
                                  " outside array of " + std::to_string(geom_.size()));
}

std::vector<std::uint32_t> AddressTrace::rows() const {
  std::vector<std::uint32_t> r;
  r.reserve(linear_.size());
  for (std::uint32_t a : linear_) r.push_back(row_of(a));
  return r;
}

std::vector<std::uint32_t> AddressTrace::cols() const {
  std::vector<std::uint32_t> c;
  c.reserve(linear_.size());
  for (std::uint32_t a : linear_) c.push_back(col_of(a));
  return c;
}

}  // namespace addm::seq
