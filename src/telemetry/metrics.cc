#include "src/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

namespace ibus::telemetry {

size_t LatencyHistogram::BucketOf(int64_t us) {
  if (us <= 0) {
    return 0;
  }
  size_t width = static_cast<size_t>(std::bit_width(static_cast<uint64_t>(us)));
  return width < kBuckets ? width : kBuckets - 1;
}

int64_t LatencyHistogram::BucketUpper(size_t b) {
  if (b == 0) {
    return 0;
  }
  if (b >= kBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return (int64_t{1} << b) - 1;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.total_ == 0) {
    return;
  }
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (size_t b = 0; b < kBuckets; b++) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
  sum_ = SaturatingAdd(sum_, other.sum_);
}

void LatencyHistogram::RestoreBucket(size_t b, uint64_t count) {
  if (b >= kBuckets) {
    b = kBuckets - 1;
  }
  counts_[b] += count;
  total_ += count;
}

void LatencyHistogram::RestoreStats(int64_t sum, int64_t min, int64_t max) {
  sum_ = sum;
  min_ = min;
  max_ = max;
}

double LatencyHistogram::Mean() const {
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(sum_) / static_cast<double>(total_);
}

int64_t LatencyHistogram::Percentile(double q) const {
  if (total_ == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t needed = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_)));
  if (needed == 0) {
    needed = 1;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; b++) {
    cumulative += counts_[b];
    if (cumulative >= needed) {
      return BucketUpper(b);
    }
  }
  return max_;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return slot.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

const LatencyHistogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::RenderText() const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << name << " count=" << h->count() << " min=" << h->min() << " max=" << h->max()
        << " p50=" << h->p50() << " p90=" << h->p90() << " p99=" << h->p99() << "\n";
  }
  return out.str();
}

}  // namespace ibus::telemetry
