#include "logic/isop.hpp"

#include <algorithm>
#include <stdexcept>

namespace addm::logic {

namespace {

// Recursive Minato-Morreale. Appends a cover C with L <= C <= U to `cubes`
// and returns the truth table of C at L's width (needed by the caller's
// remainder step).
//
// The recursion shrinks its tables: with x_v the top variable of L and U,
// every variable above v is outside both supports, so the first 2^(v+1)
// minterms decide everything and the cofactors on x_v are the two halves of
// that prefix. Variables keep their indices, so cubes come out in the same
// order as a recursion on full-width cofactors would produce.
TruthTable isop_rec(const TruthTable& L, const TruthTable& U, std::vector<Cube>& cubes) {
  const int n = L.num_vars();
  if (L.is_zero()) return TruthTable::zeros(n);
  const int v = std::max(L.top_var(), U.top_var());
  if (v < 0) {
    // L is a nonzero constant => L = 1, and since L <= U, U = 1.
    cubes.push_back(Cube::universe());
    return TruthTable::ones(n);
  }

  const auto [L0, L1] = L.truncate(v + 1).halves();
  const auto [U0, U1] = U.truncate(v + 1).halves();

  // Minterms of L0 not coverable by a cube valid in both halves need x_v'.
  const std::size_t begin0 = cubes.size();
  const TruthTable val0 = isop_rec(L0.diff(U1), U0, cubes);
  const std::size_t begin1 = cubes.size();
  const TruthTable val1 = isop_rec(L1.diff(U0), U1, cubes);
  for (std::size_t i = begin0; i < cubes.size(); ++i) {
    cubes[i].mask |= 1u << v;  // add literal x_v' (first cover) or x_v
    if (i >= begin1) cubes[i].polarity |= 1u << v;
  }

  // Remainder must be covered by cubes independent of x_v.
  const TruthTable vald = isop_rec(L0.diff(val0) | L1.diff(val1), U0 & U1, cubes);
  return TruthTable::join(val0 | vald, val1 | vald).widen(n);
}

}  // namespace

Cover isop(const TruthTable& onset_lower, const TruthTable& onset_upper) {
  if (onset_lower.num_vars() != onset_upper.num_vars())
    throw std::invalid_argument("isop: mismatched variable counts");
  if (!onset_lower.implies(onset_upper))
    throw std::invalid_argument("isop: lower bound not contained in upper bound");
  Cover cover;
  isop_rec(onset_lower, onset_upper, cover.cubes);
  return cover;
}

Cover isop(const TruthTable& f) { return isop(f, f); }

bool is_irredundant(const Cover& c, const TruthTable& onset_lower, int num_vars) {
  for (std::size_t drop = 0; drop < c.cubes.size(); ++drop) {
    Cover reduced;
    for (std::size_t i = 0; i < c.cubes.size(); ++i)
      if (i != drop) reduced.cubes.push_back(c.cubes[i]);
    if (onset_lower.implies(reduced.to_truth_table(num_vars))) return false;
  }
  return true;
}

}  // namespace addm::logic
