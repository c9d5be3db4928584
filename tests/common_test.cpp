// Tests for the common substrate: serialization, hashing, RNG, regression,
// statistics, config.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/crc32.hpp"
#include "common/hash.hpp"
#include "common/regression.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace ftmr {
namespace {

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.put<int32_t>(-7);
  w.put<uint64_t>(1ull << 40);
  w.put<double>(3.25);
  ByteReader r(w.bytes());
  int32_t a = 0;
  uint64_t b = 0;
  double c = 0;
  ASSERT_TRUE(r.get(a).ok());
  ASSERT_TRUE(r.get(b).ok());
  ASSERT_TRUE(r.get(c).ok());
  EXPECT_EQ(a, -7);
  EXPECT_EQ(b, 1ull << 40);
  EXPECT_DOUBLE_EQ(c, 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_blob(as_bytes_view("world!"));
  w.put_string("");
  ByteReader r(w.bytes());
  std::string s;
  Bytes b;
  std::string e;
  ASSERT_TRUE(r.get_string(s).ok());
  ASSERT_TRUE(r.get_blob(b).ok());
  ASSERT_TRUE(r.get_string(e).ok());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(to_string_copy(b), "world!");
  EXPECT_EQ(e, "");
}

TEST(Bytes, TruncatedReadsFailCleanly) {
  ByteWriter w;
  w.put<uint32_t>(100);  // claims 100 bytes follow, but none do
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.get_string(s).ok());
  ByteReader r2(w.bytes());
  uint64_t big = 0;
  EXPECT_FALSE(r2.get(big).ok());  // 8 > 4 available
}

TEST(Bytes, ViewAdvancesCursor) {
  ByteWriter w;
  w.put_string("abcdef");
  ByteReader r(w.bytes());
  std::span<const std::byte> v;
  ASSERT_TRUE(r.get_view(4, v).ok());
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(r.remaining(), w.size() - 4);
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a("a") = 0xaf63dc4c8601ec8c
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ULL);
}

TEST(Hash, TaskAssignmentIsDeterministicAndInRange) {
  for (uint64_t task = 0; task < 1000; ++task) {
    const int r1 = assign_task_to_rank(task, 16);
    const int r2 = assign_task_to_rank(task, 16);
    EXPECT_EQ(r1, r2);
    EXPECT_GE(r1, 0);
    EXPECT_LT(r1, 16);
  }
}

TEST(Hash, TaskAssignmentIsRoughlyBalanced) {
  constexpr int kRanks = 8;
  constexpr int kTasks = 8000;
  int counts[kRanks] = {};
  for (uint64_t t = 0; t < kTasks; ++t) counts[assign_task_to_rank(t, kRanks)]++;
  for (int c : counts) {
    EXPECT_GT(c, kTasks / kRanks / 2);
    EXPECT_LT(c, kTasks / kRanks * 2);
  }
}

TEST(Crc32, MatchesKnownAnswer) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
  static_assert(crc32_final(crc32_update(crc32_init(), {})) == 0u);
}

TEST(Crc32, SliceBy8MatchesBytewiseReferenceAcrossSplits) {
  // Random buffers of 0-4096 bytes, each fed whole and in two incremental
  // pieces split at a random point (so the 8-byte steps start at every
  // alignment): every state equals the bytewise reference's.
  Rng rng(2024);
  for (int round = 0; round < 300; ++round) {
    Bytes buf(rng.next_below(4097));
    for (std::byte& b : buf) b = static_cast<std::byte>(rng.next_below(256));
    const std::span<const std::byte> all(buf);
    const uint32_t seed = round % 2 ? crc32_init() : static_cast<uint32_t>(rng.next_u64());
    const uint32_t want = detail::crc32_update_bytewise(seed, all);
    EXPECT_EQ(crc32_update(seed, all), want) << "length " << buf.size();
    const size_t split = rng.next_below(buf.size() + 1);
    EXPECT_EQ(crc32_update(crc32_update(seed, all.first(split)), all.subspan(split)), want)
        << "length " << buf.size() << " split at " << split;
  }
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.25);
}

TEST(Zipf, SkewsTowardLowIndices) {
  Rng r(3);
  ZipfSampler z(1000, 1.0);
  int head = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (z.sample(r) < 10) head++;
  }
  // With s=1.0 over 1000 items the top-10 mass is ~39%.
  EXPECT_GT(head, kN / 4);
  EXPECT_LT(head, kN / 2);
}

// The guide table only narrows the binary search: every draw must map to
// the index a plain lower_bound over the same CDF gives, including draws on
// and next to every bucket edge b/n, where rounding can misplace a bucket.
TEST(Zipf, GuidedSampleMatchesBinarySearch) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{1000}, size_t{5000}}) {
    for (double s : {0.5, 1.0, 1.5}) {
      // The sampler's table, built the same way.
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
      }
      for (auto& c : cdf) c /= sum;
      auto reference = [&](double u) {
        const auto i = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return i < n ? i : n - 1;
      };
      const ZipfSampler z(n, s);
      size_t mismatches = 0;
      for (size_t b = 0; b <= n; ++b) {
        const double edge = static_cast<double>(b) / static_cast<double>(n);
        for (double u : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 1.0)}) {
          if (u < 1.0 && z.index_of(u) != reference(u)) mismatches++;
        }
      }
      Rng rng(0x2f1b ^ n);
      for (int i = 0; i < 1'000'000; ++i) {
        Rng peek = rng;
        if (z.sample(rng) != reference(peek.next_double())) mismatches++;
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(Regression, RecoversPlantedLine) {
  std::vector<Observation> obs;
  for (int i = 1; i <= 20; ++i) {
    const double x = i * 10.0;
    obs.push_back({x, 2.5 + 0.75 * x});
  }
  const LinearModel m = fit_linear(obs);
  EXPECT_NEAR(m.a, 2.5, 1e-9);
  EXPECT_NEAR(m.b, 0.75, 1e-9);
  EXPECT_NEAR(m.r2, 1.0, 1e-9);
  EXPECT_NEAR(m.predict(1000.0), 752.5, 1e-6);
}

TEST(Regression, NoisyFitStillClose) {
  Rng rng(5);
  OnlineLinearFit f;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double() * 100;
    f.add(x, 1.0 + 2.0 * x + (rng.next_double() - 0.5));
  }
  const LinearModel m = f.fit();
  EXPECT_NEAR(m.a, 1.0, 0.2);
  EXPECT_NEAR(m.b, 2.0, 0.02);
  EXPECT_GT(m.r2, 0.99);
}

TEST(Regression, DegenerateInputsAreSafe) {
  EXPECT_FALSE(fit_linear({}).usable());
  std::vector<Observation> one{{10.0, 5.0}};
  const LinearModel m1 = fit_linear(one);
  EXPECT_FALSE(m1.usable());
  EXPECT_NEAR(m1.predict(20.0), 10.0, 1e-9);  // proportional fallback
  std::vector<Observation> flat{{5.0, 1.0}, {5.0, 3.0}};
  const LinearModel mf = fit_linear(flat);
  EXPECT_NEAR(mf.b, 0.0, 1e-12);
  EXPECT_NEAR(mf.a, 2.0, 1e-12);
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MergeMatchesSingleStream) {
  Summary a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, TimeBuckets) {
  TimeBuckets tb;
  tb.charge("map", 1.0);
  tb.charge("map", 2.0);
  tb.charge("shuffle", 4.0);
  EXPECT_DOUBLE_EQ(tb.get("map"), 3.0);
  EXPECT_DOUBLE_EQ(tb.get("nope"), 0.0);
  EXPECT_DOUBLE_EQ(tb.total(), 7.0);
  TimeBuckets other;
  other.charge("map", 0.5);
  tb.merge(other);
  EXPECT_DOUBLE_EQ(tb.get("map"), 3.5);
}

TEST(Stats, Percentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_NEAR(percentile(xs, 0), 1.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 100), 100.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 50), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Empty sample: every percentile is 0, including the extremes.
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
  // Single element: constant across p.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
  // Two elements interpolate linearly.
  EXPECT_NEAR(percentile({1.0, 3.0}, 25), 1.5, 1e-12);
  // Input order must not matter (the function sorts its copy).
  EXPECT_NEAR(percentile({3.0, 1.0, 2.0}, 100), 3.0, 1e-12);
}

TEST(Stats, SummaryEmptyAndSingle) {
  const Summary empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(empty.sum(), 0.0);
  Summary one;
  one.add(-2.5);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_DOUBLE_EQ(one.mean(), -2.5);
  EXPECT_DOUBLE_EQ(one.min(), -2.5);
  EXPECT_DOUBLE_EQ(one.max(), -2.5);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
}

TEST(Stats, MergeIntoEmptyPreservesMinMax) {
  Summary filled;
  filled.add(-1.0);
  filled.add(5.0);
  filled.add(2.0);
  // Empty accumulator adopts the other side wholesale — min/max must come
  // through, not get mixed with the empty side's 0-valued placeholders.
  Summary sink;
  sink.merge(filled);
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_DOUBLE_EQ(sink.min(), -1.0);
  EXPECT_DOUBLE_EQ(sink.max(), 5.0);
  EXPECT_DOUBLE_EQ(sink.sum(), 6.0);
  // Merging an empty summary in is a no-op.
  sink.merge(Summary{});
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_DOUBLE_EQ(sink.min(), -1.0);
  EXPECT_DOUBLE_EQ(sink.max(), 5.0);
}

TEST(Stats, TimeBucketsEmptyAndClear) {
  TimeBuckets tb;
  EXPECT_DOUBLE_EQ(tb.total(), 0.0);
  EXPECT_DOUBLE_EQ(tb.get("map"), 0.0);
  EXPECT_TRUE(tb.all().empty());
  TimeBuckets filled;
  filled.charge("map", 1.5);
  tb.merge(filled);  // merge into empty
  EXPECT_DOUBLE_EQ(tb.get("map"), 1.5);
  tb.charge("map", 0.0);  // zero charge keeps the bucket listed
  EXPECT_EQ(tb.all().size(), 1u);
  EXPECT_DOUBLE_EQ(tb.total(), 1.5);
  tb.clear();
  EXPECT_TRUE(tb.all().empty());
  EXPECT_DOUBLE_EQ(tb.total(), 0.0);
}

TEST(Config, NormalizesFlagStyleKeys) {
  // GNU-style flags and bare key=value must name the same config key.
  const char* argv[] = {"prog", "--trace-out=t.json", "-v=1", "metrics_out=m.json",
                        "--=empty"};
  Config c = Config::from_args(5, const_cast<char**>(argv));
  EXPECT_EQ(c.get_or("trace_out", std::string()), "t.json");
  EXPECT_EQ(c.get_or("v", int64_t{0}), 1);
  EXPECT_EQ(c.get_or("metrics_out", std::string()), "m.json");
  EXPECT_EQ(c.get_or("", std::string("unset")), "unset");  // dashes-only: dropped
}

TEST(Config, ParsesTypedValues) {
  const char* argv[] = {"prog", "n=42", "rate=2.5", "flag=true", "name=wc", "junk"};
  Config c = Config::from_args(6, const_cast<char**>(argv));
  EXPECT_EQ(c.get_or("n", int64_t{0}), 42);
  EXPECT_DOUBLE_EQ(c.get_or("rate", 0.0), 2.5);
  EXPECT_TRUE(c.get_or("flag", false));
  EXPECT_EQ(c.get_or("name", std::string("x")), "wc");
  EXPECT_EQ(c.get_or("missing", int64_t{9}), 9);
  EXPECT_FALSE(c.get("junk").has_value());
}

}  // namespace
}  // namespace ftmr
