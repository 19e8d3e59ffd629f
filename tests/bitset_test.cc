#include "common/bitset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/random.h"

namespace hgm {
namespace {

TEST(BitsetTest, EmptyConstruction) {
  Bitset b(10);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Any());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.FindFirst(), Bitset::npos);
}

TEST(BitsetTest, ZeroSizedUniverse) {
  Bitset b(0);
  EXPECT_TRUE(b.UniverseEmpty());
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b, Bitset::Full(0));
  EXPECT_EQ((~b).Count(), 0u);
}

TEST(BitsetTest, SetResetFlip) {
  Bitset b(100);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  b.Flip(63);
  EXPECT_TRUE(b.Test(63));
  b.Flip(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitsetTest, InitializerListAndFromIndices) {
  Bitset a(8, {1, 3, 5});
  Bitset b = Bitset::FromIndices(8, std::vector<size_t>{5, 3, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitsetTest, FullAndComplementMaskTail) {
  for (size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    Bitset full = Bitset::Full(n);
    EXPECT_EQ(full.Count(), n) << n;
    EXPECT_TRUE(full.AllSet());
    Bitset empty = ~full;
    EXPECT_TRUE(empty.None()) << n;
    EXPECT_EQ((~empty).Count(), n);
  }
}

TEST(BitsetTest, SetAlgebra) {
  Bitset a(10, {1, 2, 3});
  Bitset b(10, {3, 4, 5});
  EXPECT_EQ((a & b), Bitset(10, {3}));
  EXPECT_EQ((a | b), Bitset(10, {1, 2, 3, 4, 5}));
  EXPECT_EQ((a ^ b), Bitset(10, {1, 2, 4, 5}));
  EXPECT_EQ((a - b), Bitset(10, {1, 2}));
  EXPECT_EQ((b - a), Bitset(10, {4, 5}));
}

TEST(BitsetTest, SubsetAndIntersects) {
  Bitset a(10, {1, 2});
  Bitset b(10, {1, 2, 3});
  Bitset c(10, {4});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsProperSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_FALSE(a.IsProperSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_EQ(a.IntersectionCount(b), 2u);
  EXPECT_EQ(a.IntersectionCount(c), 0u);
  // Empty set is a subset of everything and intersects nothing.
  Bitset empty(10);
  EXPECT_TRUE(empty.IsSubsetOf(a));
  EXPECT_TRUE(empty.IsSubsetOf(empty));
  EXPECT_FALSE(empty.Intersects(a));
}

TEST(BitsetTest, FindFirstNextLast) {
  Bitset b(200, {5, 64, 128, 199});
  EXPECT_EQ(b.FindFirst(), 5u);
  EXPECT_EQ(b.FindNext(5), 64u);
  EXPECT_EQ(b.FindNext(64), 128u);
  EXPECT_EQ(b.FindNext(128), 199u);
  EXPECT_EQ(b.FindNext(199), Bitset::npos);
  EXPECT_EQ(b.FindNext(0), 5u);
  EXPECT_EQ(b.FindLast(), 199u);
  EXPECT_EQ(Bitset(10).FindLast(), Bitset::npos);
}

TEST(BitsetTest, IterationMatchesIndices) {
  Bitset b(130, {0, 1, 63, 64, 65, 129});
  std::vector<size_t> via_iter;
  for (size_t v : b) via_iter.push_back(v);
  EXPECT_EQ(via_iter, b.Indices());
  EXPECT_EQ(via_iter, (std::vector<size_t>{0, 1, 63, 64, 65, 129}));
}

TEST(BitsetTest, ForEachOrder) {
  Bitset b(70, {69, 3, 42});
  std::vector<size_t> seen;
  b.ForEach([&](size_t v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 42, 69}));
}

TEST(BitsetTest, WithAndWithoutBit) {
  Bitset b(5, {1});
  EXPECT_EQ(b.WithBit(3), Bitset(5, {1, 3}));
  EXPECT_EQ(b, Bitset(5, {1}));  // original untouched
  EXPECT_EQ(b.WithoutBit(1), Bitset(5));
}

TEST(BitsetTest, Resize) {
  Bitset b(4, {0, 3});
  b.Resize(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Count(), 2u);
  b.Set(129);
  b.Resize(3);
  EXPECT_EQ(b.Count(), 1u);
  EXPECT_TRUE(b.Test(0));
}

TEST(BitsetTest, ComparisonAndHash) {
  Bitset a(10, {1, 2});
  Bitset b(10, {1, 2});
  Bitset c(10, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(BitsetHash()(a), BitsetHash()(b));
  EXPECT_TRUE(a < c || c < a);
  EXPECT_FALSE(a < b);
  std::unordered_set<Bitset, BitsetHash> s{a, b, c};
  EXPECT_EQ(s.size(), 2u);
}

TEST(BitsetTest, Strings) {
  Bitset b(5, {0, 2, 3});
  EXPECT_EQ(b.ToString(), "{0, 2, 3}");
  EXPECT_EQ(b.ToDenseString(), "10110");
  std::vector<std::string> names{"A", "B", "C", "D", "E"};
  EXPECT_EQ(b.Format(names), "ACD");
  EXPECT_EQ(b.Format(names, ","), "A,C,D");
  EXPECT_EQ(Bitset(5).Format(names), "{}");
}

TEST(BitsetTest, SingletonFactory) {
  Bitset s = Bitset::Singleton(66, 65);
  EXPECT_EQ(s.Count(), 1u);
  EXPECT_TRUE(s.Test(65));
}

// Property sweep: algebra identities on random sets of varied sizes.
class BitsetPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitsetPropertyTest, AlgebraIdentities) {
  const size_t n = GetParam();
  Rng rng(n * 7919 + 13);
  for (int iter = 0; iter < 20; ++iter) {
    Bitset a(n), b(n);
    for (size_t v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.4)) a.Set(v);
      if (rng.Bernoulli(0.4)) b.Set(v);
    }
    // De Morgan.
    EXPECT_EQ(~(a | b), (~a) & (~b));
    EXPECT_EQ(~(a & b), (~a) | (~b));
    // Difference as and-not.
    EXPECT_EQ(a - b, a & ~b);
    // Inclusion-exclusion on counts.
    EXPECT_EQ((a | b).Count() + (a & b).Count(), a.Count() + b.Count());
    // Subset characterizations agree.
    EXPECT_EQ(a.IsSubsetOf(b), (a - b).None());
    EXPECT_EQ(a.Intersects(b), (a & b).Any());
    EXPECT_EQ(a.IntersectionCount(b), (a & b).Count());
    // Thresholded intersection count agrees with the exact count at,
    // below, and above the boundary (early-exit must not change answers).
    const size_t exact = a.IntersectionCount(b);
    EXPECT_TRUE(a.IntersectionCountAtLeast(b, 0));
    EXPECT_TRUE(a.IntersectionCountAtLeast(b, exact));
    EXPECT_FALSE(a.IntersectionCountAtLeast(b, exact + 1));
    if (exact > 0) {
      EXPECT_TRUE(a.IntersectionCountAtLeast(b, exact - 1));
    }
    EXPECT_TRUE(a.CountAtLeast(a.Count()));
    EXPECT_FALSE(a.CountAtLeast(a.Count() + 1));
    // Double complement.
    EXPECT_EQ(~~a, a);
    // Iteration count.
    size_t c = 0;
    a.ForEach([&](size_t) { ++c; });
    EXPECT_EQ(c, a.Count());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetPropertyTest,
                         ::testing::Values(1, 7, 63, 64, 65, 100, 192, 500));

// The unrolled capped intersection kernel: exact below the cap, a lower
// bound >= cap at or above it, across the 4-word block boundaries the
// unrolling introduces and the unaligned tails past them.
TEST(BitsetTest, IntersectionCountCappedBoundaries) {
  // Universe sizes probing block edges: within one block (<= 256 bits),
  // exactly at a block edge, one past, and deep into the word-wise tail.
  for (size_t n : {64u, 255u, 256u, 257u, 300u, 512u, 515u}) {
    Bitset a = Bitset::Full(n);
    Bitset b = Bitset::Full(n);
    const size_t exact = n;
    EXPECT_EQ(a.IntersectionCountCapped(b, Bitset::npos), exact);
    EXPECT_EQ(a.IntersectionCountCapped(b, exact + 1), exact);
    EXPECT_GE(a.IntersectionCountCapped(b, exact), exact);
    if (exact > 0) {
      EXPECT_GE(a.IntersectionCountCapped(b, exact - 1), exact - 1);
    }
    // Cap 0 is trivially met; the kernel must still not read past the
    // words, and its result stays a lower bound of the exact count.
    EXPECT_LE(a.IntersectionCountCapped(b, 0), exact);
    EXPECT_TRUE(a.IntersectionCountAtLeast(b, 0));
  }
  // Sparse pattern straddling a block boundary: bits 250..260 set in
  // both, so the count accumulates partly in an unrolled block and
  // partly in the tail.
  Bitset a(320), b(320);
  for (size_t v = 250; v <= 260; ++v) {
    a.Set(v);
    b.Set(v);
  }
  a.Set(0);    // only in a
  b.Set(319);  // only in b
  EXPECT_EQ(a.IntersectionCountCapped(b, Bitset::npos), 11u);
  EXPECT_EQ(a.IntersectionCountCapped(b, 12), 11u);
  EXPECT_GE(a.IntersectionCountCapped(b, 11), 11u);
  EXPECT_GE(a.IntersectionCountCapped(b, 5), 5u);
  EXPECT_TRUE(a.IntersectionCountAtLeast(b, 11));
  EXPECT_FALSE(a.IntersectionCountAtLeast(b, 12));
  // Randomized agreement with the exact count at straddling caps.
  Rng rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    Bitset x(515), y(515);
    for (size_t v = 0; v < 515; ++v) {
      if (rng.Bernoulli(0.3)) x.Set(v);
      if (rng.Bernoulli(0.3)) y.Set(v);
    }
    const size_t exact = x.IntersectionCount(y);
    EXPECT_EQ(x.IntersectionCountCapped(y, Bitset::npos), exact);
    EXPECT_EQ(x.IntersectionCountCapped(y, exact + 1), exact);
    for (size_t cap : {size_t{1}, exact / 2, exact}) {
      const size_t capped = x.IntersectionCountCapped(y, cap);
      EXPECT_LE(capped, exact);
      EXPECT_GE(capped, std::min(cap, exact));
    }
  }
}

// ---- popcount kernels ---------------------------------------------------

// Both tables of the dispatched kernels against a per-word reference and
// against each other.  The portable table is called explicitly so the
// fallback stays tested on hosts that select the hardware one.

/// The tables this host can run: always the portable one, plus the
/// hardware one when the CPU supports popcnt.
std::vector<const popcount::Kernels*> RunnableKernels() {
  std::vector<const popcount::Kernels*> out = {&popcount::Portable()};
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) {
    EXPECT_NE(popcount::Hardware(), nullptr);
    if (popcount::Hardware() != nullptr) out.push_back(popcount::Hardware());
  }
#endif
  return out;
}

TEST(PopcountKernelTest, ActiveIsHardwareExactlyWhenTheCpuHasPopcnt) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) {
    ASSERT_NE(popcount::Hardware(), nullptr);
    EXPECT_EQ(&popcount::Active(), popcount::Hardware());
  } else {
    EXPECT_EQ(&popcount::Active(), &popcount::Portable());
  }
#else
  EXPECT_EQ(popcount::Hardware(), nullptr);
  EXPECT_EQ(&popcount::Active(), &popcount::Portable());
#endif
}

/// Random words at a mix of densities, with some all-zero and all-one
/// words so the chain kernel's zero-block exit and full words both run.
std::vector<uint64_t> RandomWords(size_t nw, Rng* rng) {
  std::vector<uint64_t> w(nw);
  for (uint64_t& x : w) {
    switch ((*rng)() % 6) {
      case 0: x = 0; break;
      case 1: x = ~uint64_t{0}; break;
      case 2: x = (*rng)() & (*rng)(); break;
      default: x = (*rng)() | (*rng)(); break;
    }
  }
  return w;
}

/// Caps to probe for a count whose running total after each 4-word
/// block is \p block_sums: 0, 1, every block edge and its neighbours,
/// the total, and above it.
std::vector<size_t> ProbeCaps(const std::vector<size_t>& block_sums,
                              size_t total) {
  std::vector<size_t> caps = {0, 1, total, total + 1, Bitset::npos};
  if (total > 0) caps.push_back(total - 1);
  for (size_t s : block_sums) {
    caps.push_back(s);
    caps.push_back(s + 1);
    if (s > 0) caps.push_back(s - 1);
  }
  return caps;
}

/// Checks one capped result against the reference: exact below the cap,
/// else at least the cap and at most the exact count.
void ExpectCappedContract(size_t got, size_t exact, size_t cap) {
  if (exact < cap) {
    EXPECT_EQ(got, exact) << "cap " << cap;
  } else {
    EXPECT_GE(got, cap) << "exact " << exact;
    EXPECT_LE(got, exact) << "cap " << cap;
  }
}

TEST(PopcountKernelTest, TablesAgreeWithReferenceAndEachOther) {
  const std::vector<const popcount::Kernels*> tables = RunnableKernels();
  std::vector<size_t> word_counts = {157, 3125};
  for (size_t nw = 0; nw <= 9; ++nw) word_counts.push_back(nw);
  Rng rng(20261018);
  for (size_t nw : word_counts) {
    const int reps = nw > 200 ? 1 : 3;
    for (int rep = 0; rep < reps; ++rep) {
      // Chains of up to 4 rows; row 0 and 1 double as a and b.
      std::vector<std::vector<uint64_t>> rows;
      for (int r = 0; r < 4; ++r) rows.push_back(RandomWords(nw, &rng));
      const uint64_t* a = rows[0].data();
      const uint64_t* b = rows[1].data();

      std::vector<size_t> count_blocks, and_blocks;
      size_t count = 0, and_count = 0;
      for (size_t i = 0; i < nw; ++i) {
        count += static_cast<size_t>(std::popcount(a[i]));
        and_count += static_cast<size_t>(std::popcount(a[i] & b[i]));
        if ((i + 1) % 4 == 0) {
          count_blocks.push_back(count);
          and_blocks.push_back(and_count);
        }
      }
      SCOPED_TRACE("nw=" + std::to_string(nw));
      for (size_t t = 0; t < tables.size(); ++t) {
        SCOPED_TRACE("table " + std::to_string(t));
        EXPECT_EQ(tables[t]->count(a, nw), count);
        EXPECT_EQ(tables[t]->and_count(a, b, nw), and_count);
      }
      for (size_t cap : ProbeCaps(count_blocks, count)) {
        const size_t first = tables[0]->count_capped(a, nw, cap);
        ExpectCappedContract(first, count, cap);
        for (const popcount::Kernels* k : tables) {
          EXPECT_EQ(k->count_capped(a, nw, cap), first);
        }
      }
      for (size_t cap : ProbeCaps(and_blocks, and_count)) {
        const size_t first = tables[0]->and_count_capped(a, b, nw, cap);
        ExpectCappedContract(first, and_count, cap);
        for (const popcount::Kernels* k : tables) {
          EXPECT_EQ(k->and_count_capped(a, b, nw, cap), first);
        }
      }
      for (size_t len = 1; len <= rows.size(); ++len) {
        std::vector<const uint64_t*> chain;
        for (size_t r = 0; r < len; ++r) chain.push_back(rows[r].data());
        std::vector<size_t> blocks;
        size_t exact = 0;
        for (size_t i = 0; i < nw; ++i) {
          uint64_t w = ~uint64_t{0};
          for (const uint64_t* r : chain) w &= r[i];
          exact += static_cast<size_t>(std::popcount(w));
          if ((i + 1) % 4 == 0) blocks.push_back(exact);
        }
        for (size_t cap : ProbeCaps(blocks, exact)) {
          const size_t first =
              tables[0]->chain_and_count_capped(chain.data(), len, nw, cap);
          ExpectCappedContract(first, exact, cap);
          for (const popcount::Kernels* k : tables) {
            EXPECT_EQ(k->chain_and_count_capped(chain.data(), len, nw, cap),
                      first)
                << "chain of " << len;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hgm
