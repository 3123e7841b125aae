// Metrics registry: named counters, gauges, and log-bucketed latency histograms for
// every layer of the bus (paper: the installations ran operations dashboards fed by
// the bus monitoring the bus). Counters and gauges are the substrate behind the
// protocol stats structs (DaemonStats, ReliableSenderStats, ...) and always compile
// to a single add. Histograms and everything trace-related are telemetry proper and
// compile to no-ops when the tree is configured with -DIB_TELEMETRY=OFF, keeping the
// hot path at seed cost (see docs/TELEMETRY.md).
#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

// Defined to 0 by CMake when configured with -DIB_TELEMETRY=OFF.
#ifndef IBUS_TELEMETRY
#define IBUS_TELEMETRY 1
#endif

namespace ibus::telemetry {

// Monotonic event count. Always functional: counters back the protocol-visible
// stats that control logic and tests consume.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_; }

 private:
  uint64_t v_ = 0;
};

// Point-in-time level (subscription counts, queue depths). Always functional.
class Gauge {
 public:
  void Set(int64_t v) { v_ = v; }
  void Add(int64_t d) { v_ += d; }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

// Log-bucketed latency histogram: bucket i holds values whose bit width is i, i.e.
// the range [2^(i-1), 2^i - 1] microseconds. 64 buckets cover the whole int64 range
// with one increment per Record and no allocation. Percentile extraction returns the
// upper bound of the bucket containing the requested rank, so reported percentiles
// are conservative (never below the true value, at most 2x above).
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  // Bucket index for a latency value (negative values clamp to bucket 0).
  static size_t BucketOf(int64_t us);
  // Largest value falling in bucket `b` (the value Percentile reports).
  static int64_t BucketUpper(size_t b);

  void Record(int64_t us) {
#if IBUS_TELEMETRY
    size_t b = BucketOf(us);
    counts_[b]++;
    total_++;
    sum_ = SaturatingAdd(sum_, us < 0 ? 0 : us);
    if (total_ == 1 || us < min_) {
      min_ = us;
    }
    if (total_ == 1 || us > max_) {
      max_ = us;
    }
#else
    (void)us;
#endif
  }

  // Folds another histogram in: log buckets from different nodes line up exactly,
  // so bucket counts, totals, and sums add and min/max combine — per-node
  // histograms merge losslessly into fleet quantiles (busstat's StatsAggregator).
  // Not gated on IBUS_TELEMETRY: merging decoded wire records must work even in a
  // telemetry-off aggregator process.
  void Merge(const LatencyHistogram& other);

  // Restore path for the busstat wire codec: adds `count` observations to bucket
  // `b` (clamped) and bumps the total, without touching sum/min/max — the decoder
  // restores those separately via RestoreStats once all buckets are in.
  void RestoreBucket(size_t b, uint64_t count);
  void RestoreStats(int64_t sum, int64_t min, int64_t max);

  uint64_t count() const { return total_; }
  int64_t min() const { return total_ == 0 ? 0 : min_; }
  int64_t max() const { return total_ == 0 ? 0 : max_; }
  int64_t sum() const { return sum_; }
  double Mean() const;

  // Upper bound of the bucket holding the q-quantile (q in [0,1]); 0 when empty.
  int64_t Percentile(double q) const;
  int64_t p50() const { return Percentile(0.50); }
  int64_t p90() const { return Percentile(0.90); }
  int64_t p99() const { return Percentile(0.99); }

  uint64_t bucket_count(size_t b) const { return b < kBuckets ? counts_[b] : 0; }

 private:
  // The sum pins at the int64 limits instead of overflowing (Mean() degrades, the
  // buckets stay exact).
  static int64_t SaturatingAdd(int64_t a, int64_t b) {
    int64_t out = 0;
    if (__builtin_add_overflow(a, b, &out)) {
      return b > 0 ? INT64_MAX : INT64_MIN;
    }
    return out;
  }

  uint64_t counts_[kBuckets] = {};
  uint64_t total_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Queue occupancy instrument: a depth gauge paired with a monotone high-watermark.
// Components resolve it once (the paired gauges live in the registry under
// "<name>" and "<name>.hwm") and call Set at every queue mutation; Set is two
// stores and a compare, so it is safe on the hot path. Always functional, like
// Gauge: queue depths feed the stats plane, not just telemetry.
class QueueDepthGauge {
 public:
  QueueDepthGauge(Gauge* depth, Gauge* hwm) : depth_(depth), hwm_(hwm) {}

  void Set(int64_t v) {
    depth_->Set(v);
    if (v > hwm_->value()) {
      hwm_->Set(v);
    }
  }
  void Add(int64_t d) { Set(depth_->value() + d); }

  int64_t depth() const { return depth_->value(); }
  int64_t high_watermark() const { return hwm_->value(); }

 private:
  Gauge* depth_;
  Gauge* hwm_;
};

// Owns named metrics with stable pointers: components resolve their instruments once
// at construction and increment through the pointer on the hot path. Iteration order
// is the name order (std::map), so rendered output is deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  // Resolves the "<name>" / "<name>.hwm" gauge pair behind a QueueDepthGauge.
  QueueDepthGauge GetQueueDepth(const std::string& name) {
    return QueueDepthGauge(GetGauge(name), GetGauge(name + ".hwm"));
  }

  // Read-side lookups for reporters/dashboards; absent names read as zero/null.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const { return gauges_; }
  const std::map<std::string, std::unique_ptr<LatencyHistogram>>& histograms() const {
    return histograms_;
  }

  // One metric per line: "name 42" / "name count=.. p50=.. p90=.. p99=..".
  std::string RenderText() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace ibus::telemetry

#endif  // SRC_TELEMETRY_METRICS_H_
