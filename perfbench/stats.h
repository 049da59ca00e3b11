// Measurement helpers for the end-to-end benchmark: a fixed-size latency
// histogram (so the benchmark's own memory does not grow with throughput and
// skew peak RSS), a running mean, and a tiny JSON object writer for results.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline std::int64_t nanos_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

/// Log-linear histogram of nanosecond durations: 128 linear sub-buckets per
/// power of two (< 0.8% relative bucket width). Percentiles interpolate
/// linearly inside the bucket holding the rank. Single-writer; merge
/// per-thread instances after the threads join.
class LatencyHistogram {
 public:
  void record(std::int64_t nanos) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(nanos, 1));
    ++counts_[index_of(v)];
    ++count_;
    sum_ += static_cast<double>(v);
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return count_; }
  double mean_nanos() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  /// Rank-q estimate in nanoseconds; 0 when empty.
  double percentile_nanos(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const auto in_bucket = static_cast<double>(counts_[i]);
      if (seen + in_bucket > rank) {
        const double lo = lower_bound_of(i);
        const double hi = lower_bound_of(i + 1);
        return lo + (hi - lo) * (rank - seen + 0.5) / in_bucket;
      }
      seen += in_bucket;
    }
    return lower_bound_of(counts_.size());
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr int kOctaves = 40;  // 1 ns .. ~18 minutes

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const auto octave = static_cast<std::size_t>(shift + 1);
    const std::size_t sub = static_cast<std::size_t>(v >> shift) - kSub;
    return std::min(octave * kSub + sub, kSub * (kOctaves + 1) - 1);
  }
  static double lower_bound_of(std::size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const std::size_t octave = index / kSub;
    const std::size_t sub = index % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(octave) - 1);
  }

  std::array<std::uint64_t, kSub*(kOctaves + 1)> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Running sum/count; mean() is 0 with no samples.
struct Mean {
  double sum = 0.0;
  std::uint64_t count = 0;
  void add(double v) {
    sum += v;
    ++count;
  }
  void merge(const Mean& other) {
    sum += other.sum;
    count += other.count;
  }
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One named, unit-tagged value of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// {"name": {"value": v, "unit": "u"}, ...}
inline std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
