// Unit tests for src/core: modular math, RNG, thread pool, metrics, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/json_lite.hpp"
#include "core/metrics.hpp"
#include "core/modmath.hpp"
#include "core/rng.hpp"
#include "core/spectrum.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"

namespace cusfft {
namespace {

TEST(ModMath, Gcd) {
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(gcd_u64(17, 5), 1u);
  EXPECT_EQ(gcd_u64(0, 7), 7u);
  EXPECT_EQ(gcd_u64(7, 0), 7u);
  EXPECT_EQ(gcd_u64(1u << 20, 1u << 12), 1u << 12);
}

TEST(ModMath, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(1023), 9u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(prev_pow2(5), 4u);
  EXPECT_EQ(prev_pow2(1024), 1024u);
}

TEST(ModMath, ModMulLarge) {
  const u64 m = (1ULL << 62) - 57;
  const u64 a = m - 1, b = m - 2;
  // (m-1)(m-2) mod m == 2
  EXPECT_EQ(mod_mul(a, b, m), 2u);
}

TEST(ModMath, ModPow) {
  EXPECT_EQ(mod_pow(2, 10, 1000), 24u);
  EXPECT_EQ(mod_pow(3, 0, 7), 1u);
  EXPECT_EQ(mod_pow(5, 117, 19), mod_pow(5, 117 % 18, 19));  // Fermat
}

TEST(ModMath, ModInverseRoundTrip) {
  const u64 n = 1ULL << 20;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const u64 a = rng.next_odd_below(n);
    const u64 ai = mod_inverse(a, n);
    EXPECT_EQ(mod_mul(a, ai, n), 1u) << "a=" << a;
  }
}

TEST(ModMath, ModInverseRejectsNonCoprime) {
  EXPECT_THROW(mod_inverse(4, 16), std::invalid_argument);
  EXPECT_THROW(mod_inverse(0, 16), std::invalid_argument);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, OddBelowIsOddAndInvertible) {
  Rng rng(2);
  const u64 n = 1ULL << 16;
  for (int i = 0; i < 500; ++i) {
    const u64 v = rng.next_odd_below(n);
    EXPECT_EQ(v % 2, 1u);
    EXPECT_LT(v, n);
    EXPECT_EQ(gcd_u64(v, n), 1u);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(3);
  double sum = 0, sum2 = 0;
  const int N = 20000;
  for (int i = 0; i < N; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / N, 0.0, 0.05);
  EXPECT_NEAR(sum2 / N, 1.0, 0.05);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) counts[i].fetch_add(1);
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleton) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  pool.parallel_for(1, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(97, [&](std::size_t b, std::size_t e) {
      total += e - b;
    });
    ASSERT_EQ(total.load(), 97u);
  }
}

TEST(ThreadPool, ConcurrentSubmittersEachCoverTheirRangeOnce) {
  // Four threads submit 500 calls each to one pool at once: whichever
  // call holds the workers, every call covers its own range exactly once.
  ThreadPool pool(4);
  std::atomic<int> wrong{0};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < 4; ++s)
    submitters.emplace_back([&, s] {
      for (std::size_t call = 0; call < 500; ++call) {
        const std::size_t count = 1 + (call * 7 + s) % 97;
        std::vector<std::atomic<int>> hits(count);
        pool.parallel_for(count, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) wrong += h.load() != 1 ? 1 : 0;
      }
    });
  for (auto& t : submitters) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, NestedSubmissionRunsInline) {
  // A chunk that submits to its own pool runs that range inline as slot 0
  // instead of waiting for workers that are busy running its siblings.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(30);
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t outer = b; outer < e; ++outer)
      pool.parallel_for_indexed(
          10, [&](std::size_t slot, std::size_t ib, std::size_t ie) {
            EXPECT_EQ(slot, 0u);
            for (std::size_t i = ib; i < ie; ++i)
              hits[outer * 10 + i].fetch_add(1);
          });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.chunks(10), 3u);
  EXPECT_EQ(pool.chunks(5), 3u);  // chunks of 2: [0,2) [2,4) [4,5)
  EXPECT_EQ(pool.chunks(1), 1u);
  EXPECT_EQ(pool.chunks(0), 0u);
}

TEST(StepTimers, AccumulatesScopes) {
  StepTimers t;
  t.add("a", 1.5);
  t.add("a", 2.5);
  t.add("b", 1.0);
  EXPECT_DOUBLE_EQ(t.get("a"), 4.0);
  EXPECT_DOUBLE_EQ(t.get("b"), 1.0);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 5.0);
  t.clear();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Metrics, DensifyPlacesCoefficients) {
  SparseSpectrum s{{3, {1.0, 2.0}}, {5, {0.5, 0.0}}};
  cvec d = densify(s, 8);
  EXPECT_EQ(d[3], cplx(1.0, 2.0));
  EXPECT_EQ(d[5], cplx(0.5, 0.0));
  EXPECT_EQ(d[0], cplx(0.0, 0.0));
}

TEST(Metrics, L1ErrorZeroOnExactMatch) {
  cvec oracle(16, cplx{});
  oracle[4] = {2.0, 0.0};
  SparseSpectrum s{{4, {2.0, 0.0}}};
  EXPECT_DOUBLE_EQ(l1_error_per_coeff(s, oracle, 1), 0.0);
}

TEST(Metrics, L1ErrorCountsMissesAndGhosts) {
  cvec oracle(16, cplx{});
  oracle[4] = {2.0, 0.0};
  SparseSpectrum ghost{{9, {1.0, 0.0}}};  // misses loc 4, adds ghost at 9
  EXPECT_DOUBLE_EQ(l1_error_per_coeff(ghost, oracle, 1), 3.0);
}

TEST(Metrics, LocationRecall) {
  cvec oracle(16, cplx{});
  oracle[2] = {5.0, 0.0};
  oracle[7] = {4.0, 0.0};
  oracle[11] = {3.0, 0.0};
  SparseSpectrum s{{2, {5.0, 0.0}}, {11, {3.0, 0.0}}};
  EXPECT_DOUBLE_EQ(location_recall(s, oracle, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(location_recall(s, oracle, 1), 1.0);
}

TEST(ResultTable, AsciiAndCsvRoundTrip) {
  ResultTable t({"n", "time_ms"});
  t.add_row({"1024", ResultTable::num(1.25)});
  t.add_row({"2048", ResultTable::num(2.5)});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("n"), std::string::npos);
  EXPECT_NE(ascii.find("1024"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("n,time_ms"), std::string::npos);
  EXPECT_NE(csv.find("2048,2.5"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(ResultTable, CsvEscaping) {
  ResultTable t({"name"});
  t.add_row({"a,b\"c"});
  EXPECT_EQ(t.to_csv(), "name\n\"a,b\"\"c\"\n");
}


TEST(Metrics, MaxErrorIgnoresOutOfRangeLocations) {
  cvec oracle(8, cplx{});
  oracle[2] = {1.0, 0.0};
  SparseSpectrum s{{2, {1.0, 0.0}}, {100, {9.0, 9.0}}};  // loc 100 > n
  EXPECT_DOUBLE_EQ(max_error_at_locs(s, oracle), 0.0);
}

TEST(ResultTable, WriteCsvFailsGracefully) {
  ResultTable t({"a"});
  t.add_row({"1"});
  EXPECT_FALSE(t.write_csv("/nonexistent_dir_xyz/out.csv"));
}


TEST(Spectrum, TrimTopKKeepsLargest) {
  SparseSpectrum s{{1, {0.1, 0.0}}, {2, {5.0, 0.0}}, {3, {0.2, 0.0}},
                   {4, {0.0, 3.0}}};
  const auto t = trim_top_k(s, 2);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].loc, 2u);  // sorted by location after trimming
  EXPECT_EQ(t[1].loc, 4u);
  // k >= size: unchanged content.
  EXPECT_EQ(trim_top_k(s, 10).size(), 4u);
  EXPECT_TRUE(trim_top_k({}, 3).empty());
}

TEST(JsonLite, ParsesScalarsAndContainers) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(
      R"({"a":1.5,"b":[true,false,null],"c":{"d":"x"},"e":-2e3})", v, &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.number_or("a", 0), 1.5);
  EXPECT_DOUBLE_EQ(v.number_or("e", 0), -2000.0);
  const json::Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].is_bool() && b->array[0].boolean);
  EXPECT_TRUE(b->array[2].is_null());
  const json::Value* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string_or("d", ""), "x");
  // Convenience accessors fall back on absence or type mismatch.
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7), 7.0);
  EXPECT_EQ(v.string_or("a", "def"), "def");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonLite, DecodesStringEscapes) {
  json::Value v;
  ASSERT_TRUE(json::parse(R"(["a\"b\\c\/\n\t", "Aé"])", v));
  ASSERT_EQ(v.array.size(), 2u);
  EXPECT_EQ(v.array[0].string, "a\"b\\c/\n\t");
  EXPECT_EQ(v.array[1].string, "A\xc3\xa9");  // UTF-8 encoded
}

TEST(JsonLite, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1,]",        // trailing comma
      "{\"a\":1} x",  // trailing content
      "\"unterminated",
      "[\"bad\\q\"]",  // unknown escape
      "01",            // leading zero
      "nul",           // truncated literal
      "1e999",         // overflows to non-finite
  };
  for (const char* doc : bad) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(doc, v, &err)) << doc;
    EXPECT_FALSE(err.empty()) << doc;
  }
}

TEST(Spectrum, MergeDuplicatesSums) {
  SparseSpectrum s{{7, {1.0, 0.0}}, {3, {0.5, 0.5}}, {7, {2.0, -1.0}}};
  const auto m = merge_duplicates(s);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].loc, 3u);
  EXPECT_EQ(m[1].loc, 7u);
  EXPECT_EQ(m[1].val, cplx(3.0, -1.0));
}

TEST(Spectrum, SortByMagnitudeAndEnergy) {
  SparseSpectrum s{{1, {1.0, 0.0}}, {2, {0.0, 2.0}}, {3, {0.5, 0.0}}};
  sort_by_magnitude(s);
  EXPECT_EQ(s[0].loc, 2u);
  EXPECT_EQ(s[2].loc, 3u);
  EXPECT_DOUBLE_EQ(spectrum_energy(s), 1.0 + 4.0 + 0.25);
  EXPECT_DOUBLE_EQ(spectrum_energy({}), 0.0);
}

}  // namespace
}  // namespace cusfft
