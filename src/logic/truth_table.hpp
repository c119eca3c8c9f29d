// Dense truth tables over up to 24 variables, stored as 64-bit words.
//
// Bit m of the table is f(m) where variable k contributes bit k of the
// minterm index m. Tables are the workhorse of the logic-minimization layer:
// the ISOP minimizer splits them into halves, and tests verify covers
// against them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace addm::logic {

class TruthTable {
 public:
  /// All-zero function of `num_vars` variables (0 <= num_vars <= 24).
  explicit TruthTable(int num_vars);

  static TruthTable zeros(int num_vars) { return TruthTable(num_vars); }
  static TruthTable ones(int num_vars);
  /// The projection function f = x_k.
  static TruthTable var(int num_vars, int k);

  int num_vars() const { return num_vars_; }
  std::uint64_t num_minterms_capacity() const { return std::uint64_t{1} << num_vars_; }

  bool get(std::uint64_t minterm) const;
  void set(std::uint64_t minterm, bool value);

  bool is_zero() const;
  bool is_ones() const;
  /// Number of minterms where f = 1.
  std::uint64_t count_ones() const;
  /// True if cofactor(k, false) != cofactor(k, true); compares in place.
  bool depends_on(int k) const;
  /// Highest variable index the function depends on, or -1 if constant.
  int top_var() const;

  /// Cofactor with respect to x_k = val; result no longer depends on x_k.
  TruthTable cofactor(int k, bool val) const;

  /// The first 2^k minterms as a k-variable table (0 <= k <= num_vars()).
  /// Equals *this on every minterm when f depends on no variable >= k.
  TruthTable truncate(int k) const;
  /// The cofactors on the top variable x_{n-1} as (n-1)-variable tables:
  /// the lower and upper halves of the table (requires num_vars() >= 1).
  std::pair<TruthTable, TruthTable> halves() const;
  /// Inverse of halves(): the (n+1)-variable table equal to `lo` where
  /// x_n = 0 and to `hi` where x_n = 1 (both n-variable tables).
  static TruthTable join(const TruthTable& lo, const TruthTable& hi);
  /// The same function over k >= num_vars() variables, none of the added
  /// ones in its support (the table repeated 2^(k - num_vars()) times).
  TruthTable widen(int k) const;

  // Pointwise operators.
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  TruthTable operator~() const;
  /// this & ~o ("and-not"), the set difference used by ISOP.
  TruthTable diff(const TruthTable& o) const;

  bool operator==(const TruthTable& o) const = default;

  /// True if this implies o (this <= o pointwise).
  bool implies(const TruthTable& o) const;

 private:
  int num_vars_;
  // The table lives in word0_ up to 6 variables and in more_words_ above,
  // so the small tables deep in the ISOP recursion never allocate.
  std::uint64_t word0_ = 0;
  std::vector<std::uint64_t> more_words_;
  std::span<std::uint64_t> words() {
    if (num_vars_ <= 6) return {&word0_, 1};
    return more_words_;
  }
  std::span<const std::uint64_t> words() const {
    if (num_vars_ <= 6) return {&word0_, 1};
    return more_words_;
  }
  std::uint64_t live_mask(std::size_t word_index) const;
  void normalize();
  /// Whether the first 2^(k+1) minterms differ between x_k = 0 and x_k = 1.
  bool prefix_depends_on(int k) const;
};

}  // namespace addm::logic
