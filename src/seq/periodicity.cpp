#include "seq/periodicity.hpp"

#include <stdexcept>
#include <utility>

namespace addm::seq {
namespace {

// KMP failure function: fail[i] = length of the longest proper border of
// s[0..i].  Shared by the batch rebuild (after an unlock) and the reversed
// prefix-trim scan in finish().
std::vector<std::size_t> failure_function(const std::vector<std::uint32_t>& s) {
  std::vector<std::size_t> fail(s.size(), 0);
  for (std::size_t i = 1; i < s.size(); ++i) {
    std::size_t k = fail[i - 1];
    while (k > 0 && s[i] != s[k]) k = fail[k - 1];
    if (s[i] == s[k]) ++k;
    fail[i] = k;
  }
  return fail;
}

}  // namespace

AddressTrace CompressedTrace::expand() const {
  if (tail > period.size() || (period.empty() && (repeats != 0 || tail != 0)))
    throw std::invalid_argument("malformed compressed trace");
  std::vector<std::uint32_t> linear;
  linear.reserve(length());
  linear.insert(linear.end(), prefix.begin(), prefix.end());
  for (std::size_t r = 0; r < repeats; ++r)
    linear.insert(linear.end(), period.begin(), period.end());
  linear.insert(linear.end(), period.begin(),
                period.begin() + static_cast<std::ptrdiff_t>(tail));
  return AddressTrace(geometry, std::move(linear), name);
}

void StreamingCompressor::push(std::uint32_t addr) {
  if (locked_) {
    const std::size_t p = buf_.size();
    if (buf_[count_ % p] == addr) {
      ++count_;
      return;
    }
    // Period broken: the stream so far is exactly known (cyclic expansion of
    // the locked period), so rebuild the growing-mode state and continue.
    std::vector<std::uint32_t> full;
    full.reserve(count_ + 1);
    for (std::size_t i = 0; i < count_; ++i) full.push_back(buf_[i % p]);
    buf_ = std::move(full);
    fail_ = failure_function(buf_);
    locked_ = false;
  }
  buf_.push_back(addr);
  ++count_;
  const std::size_t i = buf_.size() - 1;
  if (i == 0) {
    fail_.push_back(0);
  } else {
    std::size_t k = fail_[i - 1];
    while (k > 0 && buf_[i] != buf_[k]) k = fail_[k - 1];
    if (buf_[i] == buf_[k]) ++k;
    fail_.push_back(k);
  }
  relock_if_profitable();
}

void StreamingCompressor::relock_if_profitable() {
  const std::size_t n = buf_.size();
  if (n == 0) return;
  const std::size_t p = n - fail_[n - 1];
  // Lock once the smallest period has been observed at least twice: from
  // here on, only the period is kept and the smallest period of any
  // consistent extension is provably still p (periods are monotone
  // non-decreasing under extension and p keeps matching).
  if (2 * p <= n) {
    buf_.resize(p);
    buf_.shrink_to_fit();
    fail_.clear();
    fail_.shrink_to_fit();
    locked_ = true;
  }
}

CompressedTrace StreamingCompressor::finish(ArrayGeometry geometry,
                                            std::string name) const {
  CompressedTrace ct;
  ct.geometry = geometry;
  ct.name = std::move(name);
  if (count_ == 0) return ct;

  if (locked_) {
    const std::size_t p = buf_.size();
    ct.period = buf_;
    ct.repeats = count_ / p;
    ct.tail = count_ % p;
    return ct;
  }

  // Growing mode: the whole stream is buffered.  Search every prefix split
  // q for the cheapest exact factorization; the smallest period of the
  // suffix s[q..n) equals the smallest period of the corresponding prefix
  // of the reversed stream (periodicity is reversal-invariant), so one
  // failure-function pass over the reversal prices all splits.
  const std::size_t n = buf_.size();
  std::vector<std::uint32_t> rev(buf_.rbegin(), buf_.rend());
  const std::vector<std::size_t> fail_rev = failure_function(rev);
  std::size_t best_q = 0;
  std::size_t best_p = n - fail_rev[n - 1];  // q == 0: global smallest period
  for (std::size_t q = 1; q < n; ++q) {
    const std::size_t m = n - q;
    const std::size_t p = m - fail_rev[m - 1];
    if (q + p < best_q + best_p) {
      best_q = q;
      best_p = p;
    }
  }
  if (best_q + best_p == n) {
    // No savings anywhere: canonical uncompressed form.
    ct.period = buf_;
    ct.repeats = 1;
    ct.tail = 0;
    return ct;
  }
  ct.prefix.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(best_q));
  ct.period.assign(buf_.begin() + static_cast<std::ptrdiff_t>(best_q),
                   buf_.begin() + static_cast<std::ptrdiff_t>(best_q + best_p));
  ct.repeats = (n - best_q) / best_p;
  ct.tail = (n - best_q) % best_p;
  return ct;
}

CompressedTrace compress_periodic(const AddressTrace& trace) {
  StreamingCompressor sc;
  for (std::uint32_t a : trace.linear()) sc.push(a);
  return sc.finish(trace.geometry(), trace.name());
}

}  // namespace addm::seq
