// Metrics registry — named, labeled instruments for the Clara pipeline.
//
// Three instrument kinds:
//   * Counter — monotonically increasing uint64 (atomic, relaxed);
//   * Gauge   — last-written double (atomic);
//   * LatencyHistogram — power-of-two bucketed distribution plus exact
//     moments via common/stats Accumulator (mutex-protected; observe()
//     is a short critical section).
//
// The registry itself is find-or-create under a mutex; returned
// references stay valid for the registry's lifetime, so hot paths look
// an instrument up once and then touch only the lock-free atomics:
//
//   static auto& pkts = obs::metrics().counter("nicsim/packets");
//   pkts.inc();
//
// Naming convention: "<module>/<noun>[_<unit>]", labels as a single
// "key=value,key=value" string (see docs/observability.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace clara::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram: bucket i counts samples in [2^(i-1), 2^i)
/// (bucket 0 holds x < 1). No a-priori bounds needed, which suits
/// cycle-latency series whose range varies per NF by orders of
/// magnitude. Exact mean/min/max come from the embedded Accumulator.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double x);
  /// observe() of each of `xs` in order, under one lock.
  void observe_all(std::span<const double> xs);
  /// Merge another histogram into this one (parallel reduction).
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] Accumulator moments() const;
  /// Approximate quantile from the log buckets (geometric bucket
  /// midpoint); q is clamped to [0,1].
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const;
  void reset();

 private:
  mutable std::mutex mu_;
  Accumulator acc_;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& labels = {});
  Gauge& gauge(const std::string& name, const std::string& labels = {});
  LatencyHistogram& histogram(const std::string& name, const std::string& labels = {});

  /// "name{labels} value" lines, sorted by name, one instrument per
  /// line; histograms render count/mean/p50/p99/max.
  [[nodiscard]] std::string render_text() const;
  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  [[nodiscard]] std::string to_json() const;
  /// Prometheus text exposition format (--metrics-format=prom): names
  /// prefixed "clara_" and sanitized ("ilp/solves" -> clara_ilp_solves),
  /// counters suffixed _total, histograms as cumulative le-buckets at
  /// the log2 bucket bounds plus _sum/_count.
  [[nodiscard]] std::string to_prometheus() const;

  /// Zeroes every instrument's value. References handed out earlier stay
  /// valid (instruments are never destroyed while the registry lives).
  void reset();

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Process-wide registry used by the built-in instrumentation.
MetricsRegistry& metrics();

}  // namespace clara::obs
