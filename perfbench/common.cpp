#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::size_t Histogram::index(std::uint64_t value) {
  if (value < kSub) return static_cast<std::size_t>(value);
  int shift = std::bit_width(value) - (kSubBits + 1);
  if (shift > kMaxShift) {
    shift = kMaxShift;
    value = (2 * kSub - 1) << kMaxShift;   // clamp into the top bucket
  }
  const std::uint64_t mantissa = value >> shift;   // in [kSub, 2 kSub)
  return static_cast<std::size_t>(kSub + static_cast<std::uint64_t>(shift) * kSub +
                                  (mantissa - kSub));
}

double Histogram::bucket_low(std::size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const std::size_t shift = (index - kSub) / kSub;
  const std::uint64_t mantissa = (index - kSub) % kSub + kSub;
  return static_cast<double>(mantissa << shift);
}

double Histogram::bucket_width(std::size_t index) {
  if (index < kSub) return 1.0;
  return static_cast<double>(1ULL << ((index - kSub) / kSub));
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Fractional 0-based rank, then the bucket holding it; the value is
  // interpolated by the rank's position among the bucket's samples.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      const double within =
          (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return bucket_low(i) + within * bucket_width(i);
    }
    before += c;
  }
  return bucket_low(kBuckets - 1);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

namespace {

double status_field_mb(const std::string& field) {
  std::ifstream in{"/proc/self/status"};
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM:"); }
double current_rss_mb() { return status_field_mb("VmRSS:"); }

void RunResult::note(const std::string& key, double value,
                     std::string_view unit) {
  char text[64];
  std::snprintf(text, sizeof text, "%.9g ", value);
  note(key, text + std::string{unit});
}

void RunResult::fail(const std::string& why) {
  if (correct) note("failure", why);
  correct = false;
}

}  // namespace perfbench
