#include "logic/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace addm::logic {

namespace {
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

std::size_t words_for(int num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}
}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > 24)
    throw std::invalid_argument("TruthTable: num_vars out of range [0,24]");
  if (num_vars > 6) more_words_.assign(words_for(num_vars), 0);
}

std::uint64_t TruthTable::live_mask(std::size_t) const {
  // Only the first word can be partially live (when num_vars_ < 6).
  if (num_vars_ >= 6) return ~0ull;
  return (std::uint64_t{1} << (std::uint64_t{1} << num_vars_)) - 1;
}

void TruthTable::normalize() {
  if (num_vars_ < 6) word0_ &= live_mask(0);
}

TruthTable TruthTable::ones(int num_vars) {
  TruthTable t(num_vars);
  for (auto& w : t.words()) w = ~0ull;
  t.normalize();
  return t;
}

TruthTable TruthTable::var(int num_vars, int k) {
  if (k < 0 || k >= num_vars) throw std::invalid_argument("TruthTable::var: bad index");
  TruthTable t(num_vars);
  if (k < 6) {
    for (auto& w : t.words()) w = kVarMask[k];
  } else {
    const std::size_t stride = std::size_t{1} << (k - 6);
    const auto tw = t.words();
    for (std::size_t i = 0; i < tw.size(); ++i)
      if ((i / stride) & 1) tw[i] = ~0ull;
  }
  t.normalize();
  return t;
}

bool TruthTable::get(std::uint64_t m) const {
  return (words()[m >> 6] >> (m & 63)) & 1;
}

void TruthTable::set(std::uint64_t m, bool value) {
  if (m >= num_minterms_capacity()) throw std::out_of_range("TruthTable::set");
  if (value)
    words()[m >> 6] |= std::uint64_t{1} << (m & 63);
  else
    words()[m >> 6] &= ~(std::uint64_t{1} << (m & 63));
}

bool TruthTable::is_zero() const {
  for (auto w : words())
    if (w) return false;
  return true;
}

bool TruthTable::is_ones() const {
  const auto w = words();
  for (std::size_t i = 0; i < w.size(); ++i)
    if (w[i] != live_mask(i)) return false;
  return true;
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t n = 0;
  for (auto w : words()) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

TruthTable TruthTable::cofactor(int k, bool val) const {
  if (k < 0 || k >= num_vars_) throw std::invalid_argument("cofactor: bad var");
  TruthTable r = *this;
  if (k < 6) {
    const int shift = 1 << k;
    const std::uint64_t hi = kVarMask[k];
    for (auto& w : r.words()) {
      if (val) {
        const std::uint64_t h = w & hi;
        w = h | (h >> shift);
      } else {
        const std::uint64_t l = w & ~hi;
        w = l | (l << shift);
      }
    }
  } else {
    const std::size_t stride = std::size_t{1} << (k - 6);
    const auto rw = r.words();
    for (std::size_t base = 0; base < rw.size(); base += 2 * stride)
      for (std::size_t i = 0; i < stride; ++i) {
        if (val)
          rw[base + i] = rw[base + stride + i];
        else
          rw[base + stride + i] = rw[base + i];
      }
  }
  r.normalize();
  return r;
}

bool TruthTable::depends_on(int k) const {
  if (k < 0 || k >= num_vars_) throw std::invalid_argument("depends_on: bad var");
  if (k < 6) {
    // Bit m with x_k = 0 against bit m + 2^k, for every such m at once.
    const int shift = 1 << k;
    for (auto w : words())
      if ((w ^ (w >> shift)) & ~kVarMask[k]) return true;
    return false;
  }
  const std::size_t stride = std::size_t{1} << (k - 6);
  const auto w = words();
  for (std::size_t base = 0; base < w.size(); base += 2 * stride)
    for (std::size_t i = 0; i < stride; ++i)
      if (w[base + i] != w[base + stride + i]) return true;
  return false;
}

bool TruthTable::prefix_depends_on(int k) const {
  const auto w = words();
  if (k < 6) {
    const int shift = 1 << k;
    const std::uint64_t low = (std::uint64_t{1} << shift) - 1;
    return ((w[0] ^ (w[0] >> shift)) & low) != 0;
  }
  const std::size_t half = std::size_t{1} << (k - 6);
  for (std::size_t i = 0; i < half; ++i)
    if (w[i] != w[half + i]) return true;
  return false;
}

int TruthTable::top_var() const {
  // Once f is known not to depend on x_{k+1} and above, the table repeats
  // its first 2^(k+1) minterms, so x_k is tested on that prefix alone.
  for (int k = num_vars_ - 1; k >= 0; --k)
    if (prefix_depends_on(k)) return k;
  return -1;
}

TruthTable TruthTable::truncate(int k) const {
  if (k < 0 || k > num_vars_) throw std::invalid_argument("truncate: bad width");
  TruthTable r(k);
  const auto rw = r.words();
  std::copy_n(words().begin(), rw.size(), rw.begin());
  r.normalize();
  return r;
}

std::pair<TruthTable, TruthTable> TruthTable::halves() const {
  if (num_vars_ < 1) throw std::invalid_argument("halves: no variable to split");
  TruthTable lo(num_vars_ - 1), hi(num_vars_ - 1);
  const auto w = words();
  if (num_vars_ <= 6) {
    lo.word0_ = w[0];
    hi.word0_ = w[0] >> (1 << (num_vars_ - 1));
    lo.normalize();
    hi.normalize();
  } else {
    const std::size_t half = w.size() / 2;
    std::copy_n(w.begin(), half, lo.words().begin());
    std::copy_n(w.begin() + half, half, hi.words().begin());
  }
  return {std::move(lo), std::move(hi)};
}

TruthTable TruthTable::join(const TruthTable& lo, const TruthTable& hi) {
  if (lo.num_vars_ != hi.num_vars_) throw std::invalid_argument("join: mismatched widths");
  TruthTable r(lo.num_vars_ + 1);
  if (lo.num_vars_ < 6) {
    r.word0_ = lo.word0_ | (hi.word0_ << (1 << lo.num_vars_));
  } else {
    const auto lw = lo.words(), hw = hi.words();
    std::copy(hw.begin(), hw.end(), std::copy(lw.begin(), lw.end(), r.words().begin()));
  }
  return r;
}

TruthTable TruthTable::widen(int k) const {
  if (k < num_vars_) throw std::invalid_argument("widen: fewer variables");
  TruthTable r(k);
  const auto w = words();
  const auto rw = r.words();
  if (num_vars_ < 6) {
    std::uint64_t word = w[0];
    for (int j = num_vars_; j < std::min(k, 6); ++j) word |= word << (1 << j);
    std::fill(rw.begin(), rw.end(), word);
  } else {
    for (std::size_t i = 0; i < rw.size(); i += w.size())
      std::copy(w.begin(), w.end(), rw.begin() + i);
  }
  return r;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TruthTable r = *this;
  const auto rw = r.words();
  const auto ow = o.words();
  for (std::size_t i = 0; i < rw.size(); ++i) rw[i] &= ow[i];
  return r;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TruthTable r = *this;
  const auto rw = r.words();
  const auto ow = o.words();
  for (std::size_t i = 0; i < rw.size(); ++i) rw[i] |= ow[i];
  return r;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TruthTable r = *this;
  const auto rw = r.words();
  const auto ow = o.words();
  for (std::size_t i = 0; i < rw.size(); ++i) rw[i] ^= ow[i];
  return r;
}

TruthTable TruthTable::operator~() const {
  TruthTable r = *this;
  for (auto& w : r.words()) w = ~w;
  r.normalize();
  return r;
}

TruthTable TruthTable::diff(const TruthTable& o) const {
  TruthTable r = *this;
  const auto rw = r.words();
  const auto ow = o.words();
  for (std::size_t i = 0; i < rw.size(); ++i) rw[i] &= ~ow[i];
  return r;
}

bool TruthTable::implies(const TruthTable& o) const {
  const auto w = words();
  const auto ow = o.words();
  for (std::size_t i = 0; i < w.size(); ++i)
    if (w[i] & ~ow[i]) return false;
  return true;
}

}  // namespace addm::logic
