// rng.hpp — deterministic random number generation + Zipf sampling.
//
// All workloads (word corpora, graphs, sequence DBs, failure schedules) are
// generated from explicit seeds so every experiment is bit-reproducible.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"

namespace ftmr {

/// xoshiro256** — fast, high-quality, value-semantic PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eedULL) noexcept {
    // Seed the full state via splitmix64 as recommended by the authors.
    uint64_t x = seed;
    for (auto& w : s_) w = mix64(x++);
  }

  uint64_t next_u64() noexcept {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n).
  uint64_t next_below(uint64_t n) noexcept { return n ? next_u64() % n : 0; }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform int in [lo, hi] inclusive.
  int64_t next_in(int64_t lo, int64_t hi) noexcept {
    return lo + static_cast<int64_t>(next_below(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Exponential with the given mean (failure inter-arrival times).
  double next_exponential(double mean) noexcept {
    double u = next_double();
    if (u <= 0.0) u = 1e-18;
    return -mean * std::log(u);
  }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4]{};
};

/// Zipf(s) sampler over {0..n-1} via inverse-CDF on a precomputed table.
/// Real text word frequencies and MapReduce key skew are Zipfian; the paper
/// leans on this non-uniformity when motivating the load balancer.
///
/// A guide table narrows the search: guide_[b] is the first index whose CDF
/// is >= b/n, so a draw u in bucket b = floor(u*n) lies in
/// [guide_[b], guide_[b+1]]. Rounding can put u just outside its bucket, so
/// the bracket is used only after checking it holds against the CDF itself;
/// otherwise the whole table is searched. Either way sample() returns the
/// first index whose CDF is >= u.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    if (n == 0) return;
    guide_.resize(n + 1);
    size_t i = 0;
    for (size_t b = 0; b <= n; ++b) {
      const double edge = static_cast<double>(b) / static_cast<double>(n);
      while (i < n && cdf_[i] < edge) ++i;
      guide_[b] = i;
    }
  }

  size_t sample(Rng& rng) const noexcept { return index_of(rng.next_double()); }

  /// The first index whose CDF is >= u, for u in [0, 1) (the last index if
  /// none is): the inverse CDF that sample() applies to a uniform draw.
  [[nodiscard]] size_t index_of(double u) const noexcept {
    const size_t n = cdf_.size();
    size_t lo = 0, hi = n;
    if (n > 0) {
      const size_t b =
          std::min(static_cast<size_t>(u * static_cast<double>(n)), n - 1);
      const size_t glo = guide_[b], ghi = guide_[b + 1];
      if ((glo == 0 || cdf_[glo - 1] < u) && (ghi == n || u <= cdf_[ghi])) {
        lo = glo;
        hi = ghi;
      }
    }
    // Binary search the CDF.
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < n ? lo : n - 1;
  }

  [[nodiscard]] size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> guide_;  // n + 1 bucket starts; empty when n == 0
};

}  // namespace ftmr
