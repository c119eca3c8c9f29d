// Tests for exact periodicity compression: factorization shapes, streaming
// memory behavior (lock/unlock), batch==streaming agreement, and an
// exhaustive brute-force oracle over short sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "seq/analysis.hpp"
#include "seq/periodicity.hpp"
#include "seq/workloads.hpp"

namespace addm::seq {
namespace {

AddressTrace make(std::vector<std::uint32_t> a, ArrayGeometry g = {8, 8},
                  std::string name = {}) {
  return AddressTrace(g, std::move(a), std::move(name));
}

std::vector<std::uint32_t> tile(const std::vector<std::uint32_t>& period,
                                std::size_t repeats, std::size_t tail = 0) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < repeats; ++r)
    out.insert(out.end(), period.begin(), period.end());
  out.insert(out.end(), period.begin(),
             period.begin() + static_cast<std::ptrdiff_t>(tail));
  return out;
}

TEST(Periodicity, PurePeriodicTrace) {
  const std::vector<std::uint32_t> period{0, 1, 2, 3, 8, 9};
  const auto t = make(tile(period, 7), {8, 8}, "pure");
  const CompressedTrace ct = compress_periodic(t);
  EXPECT_TRUE(ct.pure());
  EXPECT_TRUE(ct.compressed());
  EXPECT_EQ(ct.period, period);
  EXPECT_EQ(ct.repeats, 7u);
  EXPECT_EQ(ct.tail, 0u);
  EXPECT_EQ(ct.length(), t.length());
  const AddressTrace back = ct.expand();
  EXPECT_EQ(back.linear(), t.linear());
  EXPECT_EQ(back.geometry(), t.geometry());
  EXPECT_EQ(back.name(), t.name());
}

TEST(Periodicity, PartialTail) {
  const std::vector<std::uint32_t> period{5, 6, 7};
  const auto t = make(tile(period, 4, 2));
  const CompressedTrace ct = compress_periodic(t);
  EXPECT_EQ(ct.period, period);
  EXPECT_EQ(ct.repeats, 4u);
  EXPECT_EQ(ct.tail, 2u);
  EXPECT_EQ(ct.suffix(), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_FALSE(ct.pure());
  EXPECT_EQ(ct.expand().linear(), t.linear());
}

TEST(Periodicity, WarmupPrefixIsTrimmed) {
  // 63 0 1 0 1 ... has global period == length, but trimming one element
  // exposes period 2; the prefix search must find the cheaper split.
  std::vector<std::uint32_t> a{63};
  const auto body = tile({0, 1}, 10);
  a.insert(a.end(), body.begin(), body.end());
  const CompressedTrace ct = compress_periodic(make(a));
  EXPECT_EQ(ct.prefix, (std::vector<std::uint32_t>{63}));
  EXPECT_EQ(ct.period, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ct.repeats, 10u);
  EXPECT_EQ(ct.stored(), 3u);
  EXPECT_EQ(ct.expand().linear(), a);
}

TEST(Periodicity, AperiodicTraceIsCanonicalUncompressed) {
  const std::vector<std::uint32_t> a{3, 1, 4, 1, 5, 9, 2, 6};
  const CompressedTrace ct = compress_periodic(make(a));
  EXPECT_TRUE(ct.prefix.empty());
  EXPECT_EQ(ct.period, a);
  EXPECT_EQ(ct.repeats, 1u);
  EXPECT_EQ(ct.tail, 0u);
  EXPECT_FALSE(ct.compressed());
  EXPECT_EQ(ct.expand().linear(), a);
}

TEST(Periodicity, EmptyTrace) {
  const CompressedTrace ct = compress_periodic(AddressTrace({4, 4}, {}, "e"));
  EXPECT_EQ(ct.length(), 0u);
  EXPECT_EQ(ct.repeats, 0u);
  EXPECT_TRUE(ct.expand().empty());
}

TEST(Periodicity, ConstantTraceCompressesToOneElement) {
  const CompressedTrace ct = compress_periodic(make(std::vector<std::uint32_t>(500, 7)));
  EXPECT_EQ(ct.period, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(ct.repeats, 500u);
  EXPECT_EQ(ct.stored(), 1u);
}

TEST(Periodicity, PeriodMatchesSmallestPeriodOnPureTraces) {
  // The factorization's period length must agree with seq::smallest_period
  // for whole-multiple traces.
  const std::vector<std::uint32_t> period{2, 4, 4, 6};
  const auto a = tile(period, 6);
  const CompressedTrace ct = compress_periodic(make(a));
  EXPECT_EQ(ct.period.size(), smallest_period(a));
}

TEST(StreamingCompressor, LocksToPeriodMemory) {
  const std::vector<std::uint32_t> period{0, 1, 2, 3, 8, 9, 10, 11};
  StreamingCompressor sc;
  for (std::size_t r = 0; r < 1000; ++r)
    for (std::uint32_t v : period) sc.push(v);
  EXPECT_TRUE(sc.locked());
  // The memory claim: after locking, only one period is held, no matter how
  // long the stream runs.
  EXPECT_EQ(sc.buffered(), period.size());
  EXPECT_EQ(sc.count(), 8000u);
  const CompressedTrace ct = sc.finish({8, 8});
  EXPECT_EQ(ct.period, period);
  EXPECT_EQ(ct.repeats, 1000u);
}

TEST(StreamingCompressor, UnlocksOnMismatchWithoutLosingData) {
  StreamingCompressor sc;
  std::vector<std::uint32_t> fed;
  const auto feed = [&](std::uint32_t v) {
    sc.push(v);
    fed.push_back(v);
  };
  for (std::size_t r = 0; r < 50; ++r)
    for (std::uint32_t v : {1u, 2u, 3u}) feed(v);
  ASSERT_TRUE(sc.locked());
  feed(9);  // break the period mid-stream
  for (std::uint32_t v : {1u, 2u, 3u, 5u}) feed(v);
  const CompressedTrace ct = sc.finish({8, 8});
  EXPECT_EQ(ct.expand().linear(), fed);
}

TEST(StreamingCompressor, FinishIsNonDestructive) {
  StreamingCompressor sc;
  for (std::uint32_t v : tile({4, 5}, 3)) sc.push(v);
  const CompressedTrace first = sc.finish({8, 8});
  EXPECT_EQ(first.repeats, 3u);
  for (std::uint32_t v : {4u, 5u}) sc.push(v);
  const CompressedTrace second = sc.finish({8, 8});
  EXPECT_EQ(second.repeats, 4u);
  EXPECT_EQ(second.period, first.period);
}

TEST(StreamingCompressor, AgreesWithBatchOnArbitraryInput) {
  // compress_periodic is defined as the streaming compressor fed in order,
  // so any divergence here is a determinism bug.
  const auto t = zigzag({8, 8});
  StreamingCompressor sc;
  for (std::uint32_t v : t.linear()) sc.push(v);
  const CompressedTrace a = sc.finish(t.geometry(), t.name());
  const CompressedTrace b = compress_periodic(t);
  EXPECT_EQ(a.prefix, b.prefix);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.repeats, b.repeats);
  EXPECT_EQ(a.tail, b.tail);
}

// Smallest p >= 1 with s[i] == s[i + p] over s[from..).
std::size_t brute_period(const std::vector<std::uint32_t>& s, std::size_t from) {
  const std::size_t m = s.size() - from;
  for (std::size_t p = 1; p < m; ++p) {
    bool ok = true;
    for (std::size_t i = from; ok && i + p < s.size(); ++i) ok = s[i] == s[i + p];
    if (ok) return p;
  }
  return m;
}

TEST(Periodicity, ExhaustiveOracleOverShortSequences) {
  // Every sequence of length 0..10 over 3 symbols (88,573 inputs).  The
  // factorization must store the fewest elements of any prefix split q
  // (q + smallest period of the rest), take the shortest prefix on ties,
  // fall back to the canonical form when nothing saves, and expand back.
  const ArrayGeometry g{3, 1};
  std::size_t inputs = 0;
  for (std::size_t n = 0; n <= 10; ++n) {
    std::size_t count = 1;
    for (std::size_t i = 0; i < n; ++i) count *= 3;
    for (std::size_t code = 0; code < count; ++code) {
      std::vector<std::uint32_t> s(n);
      for (std::size_t i = 0, c = code; i < n; ++i, c /= 3)
        s[i] = static_cast<std::uint32_t>(c % 3);
      ++inputs;
      const CompressedTrace ct = compress_periodic(AddressTrace(g, s));
      ASSERT_EQ(ct.expand().linear(), s);
      if (n == 0) {
        EXPECT_EQ(ct.repeats, 0u);
        EXPECT_TRUE(ct.period.empty());
        continue;
      }
      std::size_t best_q = 0, best = n + 1;
      for (std::size_t q = 0; q < n; ++q) {
        const std::size_t cost = q + brute_period(s, q);
        if (cost < best) {
          best = cost;
          best_q = q;
        }
      }
      ASSERT_EQ(ct.stored(), best) << "code " << code << " length " << n;
      if (best == n) {
        // Nothing saves: canonical uncompressed form.
        ASSERT_TRUE(ct.prefix.empty()) << "code " << code << " length " << n;
        ASSERT_EQ(ct.period, s);
        ASSERT_EQ(ct.repeats, 1u);
        ASSERT_EQ(ct.tail, 0u);
      } else {
        ASSERT_EQ(ct.prefix.size(), best_q) << "code " << code << " length " << n;
      }
    }
  }
  EXPECT_EQ(inputs, 88573u);
}

}  // namespace
}  // namespace addm::seq
