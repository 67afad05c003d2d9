// Mean / standard-error accumulation for benchmark reporting (the paper
// reports mean and standard error over 10 repetitions), a log-bucketed
// latency histogram for tail percentiles (p50/p95/p99) under concurrency,
// and the per-op store-work tallies every system is compared by.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace synergy {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  /// Standard error of the mean.
  double stderr_mean() const {
    return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
  }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Store work done by one op (or, as a running total, by one client
/// session): the figures the paper compares systems by next to response
/// time. hbase::Session::counts() returns the session totals; an op's share
/// is the difference of two readings.
struct OpCounts {
  uint64_t rpcs = 0;            // RPC attempts at the region-server boundary
  uint64_t retries = 0;         // retries granted by the client retry policy
  uint64_t degraded_reads = 0;  // reads served at bounded staleness
  uint64_t scan_errors_dropped = 0;  // scanners dropped with unchecked errors

  OpCounts& operator+=(const OpCounts& o) {
    rpcs += o.rpcs;
    retries += o.retries;
    degraded_reads += o.degraded_reads;
    scan_errors_dropped += o.scan_errors_dropped;
    return *this;
  }
  friend OpCounts operator-(OpCounts a, const OpCounts& b) {
    a.rpcs -= b.rpcs;
    a.retries -= b.retries;
    a.degraded_reads -= b.degraded_reads;
    a.scan_errors_dropped -= b.scan_errors_dropped;
    return a;
  }
  bool operator==(const OpCounts&) const = default;
};

/// Log-bucketed histogram for latency percentiles (p50/p95/p99). Buckets are
/// geometric with 32 per octave (~2.2% relative resolution), covering
/// [2^-10, 2^38) in whatever unit the caller records (negative or zero
/// values land in the first bucket, larger ones in the last). Add is a few
/// arithmetic ops + one array increment and never allocates, so per-thread
/// instances can sit on a benchmark's hot path; Merge combines thread-local
/// histograms after the workers join.
class LatencyHistogram {
 public:
  void Add(double value) {
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    ++buckets_[BucketIndex(value)];
  }

  void Merge(const LatencyHistogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  size_t count() const { return count_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Value at percentile `p` in [0, 100]: the representative (geometric
  /// midpoint) of the bucket holding the rank-⌈p/100·n⌉ sample, clamped to
  /// the exact observed min/max so p0/p100 are exact.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    if (p <= 0.0) return min_;
    if (p >= 100.0) return max_;
    const double rank = p / 100.0 * static_cast<double>(count_);
    const auto target = static_cast<uint64_t>(std::ceil(rank));
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target && buckets_[i] > 0) {
        return std::clamp(BucketValue(i), min_, max_);
      }
    }
    return max_;
  }

 private:
  static constexpr int kBucketsPerOctave = 32;
  static constexpr int kMinExponent = -10;  // smallest bucket ~ 2^-10
  static constexpr size_t kNumBuckets = 48U * kBucketsPerOctave;

  static size_t BucketIndex(double value) {
    if (!(value > 0.0)) return 0;  // also catches NaN
    const double idx =
        (std::log2(value) - kMinExponent) * kBucketsPerOctave;
    if (idx < 0.0) return 0;
    if (idx >= static_cast<double>(kNumBuckets - 1)) return kNumBuckets - 1;
    return static_cast<size_t>(idx);
  }

  /// Geometric midpoint of bucket i's [lo, 2^(1/32)·lo) range.
  static double BucketValue(size_t i) {
    return std::exp2((static_cast<double>(i) + 0.5) / kBucketsPerOctave +
                     kMinExponent);
  }

  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<uint64_t, kNumBuckets> buckets_{};
};

}  // namespace synergy
