// util.hpp — clock, seeded generator, sample statistics and the metric
// list every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace powerbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds; spans, schedules and latencies all use it.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// SplitMix64 (the generator src/explore uses for its counter RNG):
/// every input the benchmark sends derives from one of these, seeded
/// from --seed, so a seed names one exact set of requests.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Exponential with the given mean (Poisson inter-arrival times).
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }
  /// An independent stream for sub-generator `tag`.
  SplitMix64 fork(std::uint64_t tag) {
    return SplitMix64(next() ^ (tag * 0xD1B54A32D192ED03ull));
  }

 private:
  std::uint64_t state_;
};

/// Quantile by linear interpolation between closest ranks (q in [0,1]);
/// 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// FNV-1a over a body: cheap identity checks of repeat views.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string replace_all(std::string s, const std::string& from, const std::string& to) {
  for (std::size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

/// Ratio that reads 0 (not NaN) when nothing was attempted.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

}  // namespace powerbench
