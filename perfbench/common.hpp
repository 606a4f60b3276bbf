// Shared pieces of the end-to-end benchmark: wall clock, a fixed-memory
// latency histogram, an FNV-1a digest, process memory readings, and the
// result record every workload fills in.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear histogram of non-negative integers: exact below 256, then
/// 256 sub-buckets per power of two (bucket width < 0.4% of its value).
/// Memory is fixed, so a long run holds no more than a short one.
/// Quantiles interpolate linearly inside the bucket holding the rank.
class Histogram {
 public:
  void add(std::uint64_t value) {
    ++counts_[index(value)];
    ++count_;
  }
  /// The q-quantile (0 <= q <= 1); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr int kMaxShift = 40;   // values up to 2^48
  static constexpr std::size_t kBuckets = kSub * (kMaxShift + 2);

  static std::size_t index(std::uint64_t value);
  static double bucket_low(std::size_t index);
  static double bucket_width(std::size_t index);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_{0};
};

/// 64-bit FNV-1a over a sequence of integers.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (value >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_{0xCBF29CE484222325ULL};
};

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// Peak resident set (VmHWM) and current resident set (VmRSS), in MiB.
double peak_rss_mb();
double current_rss_mb();

struct Metric {
  double value{0.0};
  std::string unit;
};

/// What one run reports.  `metrics` holds the end-to-end set for an
/// untraced run and the per-layer set for a traced one.
struct RunResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, Metric> metrics;
  /// Diagnostics printed before the result line (stationarity, digests,
  /// failure breakdown); not metrics.
  std::map<std::string, std::string> notes;

  void set(const std::string& name, double value, std::string_view unit) {
    metrics[name] = Metric{value, std::string{unit}};
  }
  void note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }
  /// A measured figure that is printed but not reported as a metric.
  void note(const std::string& key, double value, std::string_view unit);
  /// Marks the run incorrect and records why.
  void fail(const std::string& why);
};

}  // namespace perfbench
