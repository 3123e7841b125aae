// Small, dependency-free statistics used by the benchmark and unit-tested on their
// own (tests/perfbench_test.cc): the percentile rule, the sustainable-rate rule of
// the offered-rate ladder, and self-time arithmetic over nested spans.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank percentile: the smallest sample with at least q*n samples at or below
// it. Returns the index into the sorted sample vector (n must be > 0).
inline size_t NearestRankIndex(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n));
  size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, q);
}

// True when n samples support reporting the q-percentile.
inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

// Nearest-rank q-percentile of `xs` (sorted in place). NaN when empty.
inline double Percentile(std::vector<double>* xs, double q) {
  if (xs->empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(xs->begin(), xs->end());
  return (*xs)[NearestRankIndex(xs->size(), q)];
}

inline double Median(std::vector<double> xs) { return Percentile(&xs, 0.5); }

// --- Sustainable-rate ladder ----------------------------------------------------------

// One rung of the offered-rate ladder, measured in simulated time.
struct Rung {
  double rate = 0;          // offered publishes per simulated second
  double p99_us = 0;        // p99 publish->upcall latency; +inf when >1% never arrived
  size_t samples = 0;       // expected deliveries (missing ones count as +inf)
  double backlog_end = 0;   // deliveries still outstanding when publishing stopped
  double backlog_allowed = 0;  // offered delivery rate x latency limit (Little's law)
  bool aborted = false;     // exceeded the rung's event budget
};

// A rung is sustainable when its p99 (supported by enough samples) is under the limit,
// the backlog when publishing stops is no more than a system meeting the limit can
// hold in flight, and the rung finished within its event budget.
inline bool RungSustainable(const Rung& r, double limit_us) {
  return !r.aborted && PercentileSupported(r.samples, 0.99) && r.p99_us < limit_us &&
         r.backlog_end <= r.backlog_allowed;
}

struct LadderOutcome {
  double sustainable_rate = 0;  // 0 when even the first rung fails
  bool exhausted = false;       // every rung passed: the ladder did not reach collapse
  std::vector<Rung> trail;      // every rung measured, in order
};

// The offered-rate rule. Rungs of the fixed ladder (ascending rates) are measured in
// order until the first unsustainable one. The bracket between the last sustainable
// rung and that one is then narrowed by `refine_steps` geometric bisections. The result
// is the bracket's sustainable end, moved toward its failing end by log-log
// interpolation of p99 against the limit when the failing end missed on latency alone
// (finite p99; backlog and budget fine). It never exceeds the failing end, and the
// refinement keeps it continuous across seeds instead of a step between rungs.
template <typename Measure>
LadderOutcome FindSustainableRate(const std::vector<double>& rates, int refine_steps,
                                  double limit_us, Measure measure) {
  LadderOutcome out;
  size_t i = 0;
  for (; i < rates.size(); ++i) {
    out.trail.push_back(measure(rates[i]));
    if (!RungSustainable(out.trail.back(), limit_us)) {
      break;
    }
  }
  if (i == rates.size()) {
    out.exhausted = !rates.empty();
    out.sustainable_rate = rates.empty() ? 0 : rates.back();
    return out;
  }
  if (i == 0) {
    return out;
  }
  Rung lo = out.trail[out.trail.size() - 2];
  Rung hi = out.trail.back();
  for (int k = 0; k < refine_steps; ++k) {
    out.trail.push_back(measure(std::sqrt(lo.rate * hi.rate)));
    (RungSustainable(out.trail.back(), limit_us) ? lo : hi) = out.trail.back();
  }
  out.sustainable_rate = lo.rate;
  const bool latency_only = !hi.aborted && PercentileSupported(hi.samples, 0.99) &&
                            std::isfinite(hi.p99_us) && hi.backlog_end <= hi.backlog_allowed;
  if (latency_only && lo.p99_us > 0 && lo.p99_us < limit_us && hi.p99_us > lo.p99_us) {
    double x = (std::log(limit_us) - std::log(lo.p99_us)) /
               (std::log(hi.p99_us) - std::log(lo.p99_us));
    x = std::clamp(x, 0.0, 1.0);
    out.sustainable_rate = std::exp(std::log(lo.rate) + x * (std::log(hi.rate) - std::log(lo.rate)));
  }
  return out;
}

// --- Self time over nested spans ---------------------------------------------------------

// Accumulates per-key totals for properly nested spans: a span's self time (and self
// allocation count) is its duration minus what its direct children covered.
class SpanStack {
 public:
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t self_allocs = 0;
  };

  explicit SpanStack(size_t keys = 0) : totals_(keys) {}

  void Open(size_t key, int64_t ns, uint64_t allocs) {
    open_.push_back(Open_{key, ns, allocs, 0, 0});
  }

  struct Closed {
    int64_t start_ns;
    int64_t dur_ns;
    uint64_t allocs;  // allocations inside the span, children included
  };

  // Closes the innermost span, optionally filing it under another key (decided only
  // once the span ended).
  Closed Close(int64_t ns, uint64_t allocs, size_t key_override = kSameKey) {
    Open_ o = open_.back();
    open_.pop_back();
    const size_t key = key_override == kSameKey ? o.key : key_override;
    if (key >= totals_.size()) {
      totals_.resize(key + 1);
    }
    const int64_t dur = ns - o.start_ns;
    const uint64_t used = allocs - o.start_allocs;
    Totals& t = totals_[key];
    t.count++;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    t.self_allocs += used - o.child_allocs;
    if (!open_.empty()) {
      open_.back().child_ns += dur;
      open_.back().child_allocs += used;
    }
    return Closed{o.start_ns, dur, used};
  }

  size_t depth() const { return open_.size(); }
  size_t innermost_key() const { return open_.back().key; }
  const std::vector<Totals>& totals() const { return totals_; }
  void Reserve(size_t depth) { open_.reserve(depth); }

  static constexpr size_t kSameKey = static_cast<size_t>(-1);

 private:
  struct Open_ {
    size_t key;
    int64_t start_ns;
    uint64_t start_allocs;
    int64_t child_ns;
    uint64_t child_allocs;
  };
  std::vector<Open_> open_;
  std::vector<Totals> totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
