// Differential tests for the shrinking-table ISOP (logic/isop.hpp) against
// the full-width Minato-Morreale recursion it replaced, kept here as the
// reference: that recursion splits n-variable tables into n-variable
// cofactors at every node and finds the split variable by comparing
// cofactors.  Both must return the same cover cube for cube, on random
// incompletely specified functions of 0-13 variables and on the ten
// 16-variable CntAG transform functions of a 57-pass 24x24 raster.
//
// Also checks the TruthTable operations the shrinking recursion rests on
// (truncate, halves, join, widen and the in-place top_var/depends_on)
// against their cofactor- and minterm-level definitions.
//
// PRNGs are seeded, so failures reproduce deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "logic/cube.hpp"
#include "logic/isop.hpp"
#include "logic/truth_table.hpp"
#include "seq/trace.hpp"
#include "synth/counter.hpp"

namespace addm::logic {
namespace {

int reference_top_var(const TruthTable& f) {
  for (int k = f.num_vars() - 1; k >= 0; --k)
    if (f.cofactor(k, false) != f.cofactor(k, true)) return k;
  return -1;
}

Cover reference_isop_rec(const TruthTable& L, const TruthTable& U, TruthTable& value_out) {
  const int n = L.num_vars();
  if (L.is_zero()) {
    value_out = TruthTable::zeros(n);
    return {};
  }
  const int v = std::max(reference_top_var(L), reference_top_var(U));
  if (v < 0) {
    value_out = TruthTable::ones(n);
    return Cover{{Cube::universe()}};
  }

  const TruthTable L0 = L.cofactor(v, false), L1 = L.cofactor(v, true);
  const TruthTable U0 = U.cofactor(v, false), U1 = U.cofactor(v, true);

  TruthTable val0(n), val1(n), vald(n);
  Cover c0 = reference_isop_rec(L0.diff(U1), U0, val0);
  Cover c1 = reference_isop_rec(L1.diff(U0), U1, val1);
  const TruthTable Ld = L0.diff(val0) | L1.diff(val1);
  Cover cd = reference_isop_rec(Ld, U0 & U1, vald);

  const TruthTable xv = TruthTable::var(n, v);
  value_out = (val0.diff(xv)) | (val1 & xv) | vald;

  Cover result;
  for (Cube c : c0.cubes) {
    c.mask |= 1u << v;
    c.polarity &= ~(1u << v);
    result.cubes.push_back(c);
  }
  for (Cube c : c1.cubes) {
    c.mask |= 1u << v;
    c.polarity |= 1u << v;
    result.cubes.push_back(c);
  }
  for (const Cube& c : cd.cubes) result.cubes.push_back(c);
  return result;
}

Cover reference_isop(const TruthTable& L, const TruthTable& U) {
  TruthTable value(L.num_vars());
  return reference_isop_rec(L, U, value);
}

/// A random cube over the variables in `support`.
Cube random_cube(std::mt19937_64& rng, std::uint32_t support) {
  Cube c;
  c.mask = static_cast<std::uint32_t>(rng()) & static_cast<std::uint32_t>(rng()) & support;
  c.polarity = static_cast<std::uint32_t>(rng()) & c.mask;
  return c;
}

struct Isf {
  TruthTable lower;
  TruthTable upper;
};

/// A random incompletely specified function of `n` variables.  Dense draws
/// fill the table minterm by minterm at a random onset/don't-care density;
/// cube draws take unions of random cubes over a random support, which
/// often leaves out the high variables, so the recursion starts well below n.
Isf random_isf(std::mt19937_64& rng, int n, bool from_cubes) {
  TruthTable lower(n), dc(n);
  if (!from_cubes) {
    const std::uint64_t on = 1 + rng() % 6, off = on + rng() % (8 - on);
    for (std::uint64_t m = 0; m < lower.num_minterms_capacity(); ++m) {
      const std::uint64_t r = rng() % 8;
      if (r < on) lower.set(m, true);
      else if (r < off) dc.set(m, true);
    }
  } else {
    std::uint32_t support = static_cast<std::uint32_t>(rng());
    if (rng() & 1) support &= static_cast<std::uint32_t>(rng());
    support &= n == 0 ? 0u : (~0u >> (32 - n));
    Cover on, care_free;
    for (int i = 1 + static_cast<int>(rng() % 8); i > 0; --i)
      on.cubes.push_back(random_cube(rng, support));
    for (int i = static_cast<int>(rng() % 4); i > 0; --i)
      care_free.cubes.push_back(random_cube(rng, support));
    lower = on.to_truth_table(n);
    dc = care_free.to_truth_table(n);
  }
  return {lower, lower | dc};
}

TEST(IsopReference, MatchesFullWidthRecursionOnRandomFunctions) {
  std::mt19937_64 rng(0x150f5eedu);
  int trials = 0;
  for (int n = 0; n <= 13; ++n) {
    for (int trial = 0; trial < 220; ++trial, ++trials) {
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" + std::to_string(trial));
      // Dense draws thin out at 10 variables and stop above: their covers
      // run to thousands of cubes, which the full-width reference needs
      // seconds per function to build under AddressSanitizer.  The raster
      // functions below cover large tables with large covers.
      const bool dense = n < 10 ? trial % 2 == 0 : n == 10 && trial % 4 == 0;
      const Isf f = random_isf(rng, n, !dense);
      const Cover want = reference_isop(f.lower, f.upper);
      const Cover got = isop(f.lower, f.upper);
      ASSERT_EQ(got.cubes, want.cubes);
    }
  }
  EXPECT_EQ(trials, 3080);
}

TEST(IsopReference, MatchesFullWidthRecursionOnRasterTransform) {
  // The CntAG index -> (row, col) transform of 57 raster passes over a
  // 24x24 array: 32,832 cared-for minterms of a 16-variable index, one
  // function per row and column address bit (core/cntag builds the same).
  const seq::ArrayGeometry g{24, 24};
  std::vector<std::uint32_t> linear;
  for (int pass = 0; pass < 57; ++pass)
    for (std::uint32_t a = 0; a < g.size(); ++a) linear.push_back(a);
  const seq::AddressTrace trace(g, linear, "raster_24x24_33k");
  const int n = synth::bits_for(trace.length());
  ASSERT_EQ(n, 16);

  std::size_t cubes = 0;
  for (const auto& values : {trace.rows(), trace.cols()}) {
    for (int bit = 0; bit < synth::bits_for(24); ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit));
      TruthTable onset(n), care(n);
      for (std::size_t i = 0; i < values.size(); ++i) {
        care.set(i, true);
        if ((values[i] >> bit) & 1) onset.set(i, true);
      }
      const TruthTable upper = onset | ~care;
      const Cover want = reference_isop(onset, upper);
      ASSERT_EQ(isop(onset, upper).cubes, want.cubes);
      cubes += want.cubes.size();
    }
  }
  EXPECT_EQ(cubes, 5330u);
}

/// A random n-variable function that ignores a random subset of its
/// variables, so supports with gaps and missing high variables both occur.
TruthTable random_function(std::mt19937_64& rng, int n) {
  TruthTable f(n);
  for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m) f.set(m, rng() & 1);
  for (int k = 0; k < n; ++k)
    if (rng() % 3 == 0) f = f.cofactor(k, rng() & 1);
  return f;
}

TEST(TruthTableHelpers, InPlaceDependenceMatchesCofactors) {
  std::mt19937_64 rng(0xdeb0u);
  for (int n = 0; n <= 10; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" + std::to_string(trial));
      const TruthTable f = random_function(rng, n);
      for (int k = 0; k < n; ++k)
        EXPECT_EQ(f.depends_on(k), f.cofactor(k, false) != f.cofactor(k, true)) << k;
      EXPECT_EQ(f.top_var(), reference_top_var(f));
    }
  }
  EXPECT_THROW((void)TruthTable(3).depends_on(3), std::invalid_argument);
  EXPECT_THROW((void)TruthTable(3).depends_on(-1), std::invalid_argument);
}

TEST(TruthTableHelpers, TruncateHalvesJoinWidenMatchMinterms) {
  std::mt19937_64 rng(0x5a1fu);
  for (int n = 0; n <= 9; ++n) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" + std::to_string(trial));
      const TruthTable f = random_function(rng, n);
      const std::uint64_t size = f.num_minterms_capacity();

      for (int k = 0; k <= n; ++k) {
        const TruthTable t = f.truncate(k);
        ASSERT_EQ(t.num_vars(), k);
        for (std::uint64_t m = 0; m < t.num_minterms_capacity(); ++m)
          ASSERT_EQ(t.get(m), f.get(m)) << "truncate " << k << " minterm " << m;
        // Normalized: equal to the same minterms set one by one.
        TruthTable fresh(k);
        for (std::uint64_t m = 0; m < fresh.num_minterms_capacity(); ++m)
          fresh.set(m, f.get(m));
        ASSERT_EQ(t, fresh);
      }

      for (int k = n; k <= n + 8 && k <= 12; ++k) {
        const TruthTable w = f.widen(k);
        ASSERT_EQ(w.num_vars(), k);
        for (std::uint64_t m = 0; m < w.num_minterms_capacity(); ++m)
          ASSERT_EQ(w.get(m), f.get(m % size)) << "widen " << k << " minterm " << m;
        ASSERT_EQ(w.top_var(), f.top_var());
        ASSERT_EQ(w.truncate(n), f);
      }

      if (n >= 1) {
        const auto [lo, hi] = f.halves();
        ASSERT_EQ(lo.num_vars(), n - 1);
        ASSERT_EQ(hi.num_vars(), n - 1);
        ASSERT_EQ(lo.widen(n), f.cofactor(n - 1, false));
        ASSERT_EQ(hi.widen(n), f.cofactor(n - 1, true));
        ASSERT_EQ(TruthTable::join(lo, hi), f);
      }
    }
  }
  EXPECT_THROW((void)TruthTable(0).halves(), std::invalid_argument);
  EXPECT_THROW((void)TruthTable(4).truncate(5), std::invalid_argument);
  EXPECT_THROW((void)TruthTable(4).widen(3), std::invalid_argument);
  EXPECT_THROW((void)TruthTable::join(TruthTable(3), TruthTable(4)), std::invalid_argument);
}

}  // namespace
}  // namespace addm::logic
