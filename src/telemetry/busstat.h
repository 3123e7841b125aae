// busstat: the scale-ready stats plane (docs/TELEMETRY.md, "Sampling & sketches").
//
// Per-message trace spans are full-fidelity, which cannot survive Internet scale.
// busstat bounds the cost three ways: fixed-memory sketches (sketch.h),
// publisher-side trace sampling (trace.h), and this file's periodic time series:
// each node runs a BusStatReporter that publishes delta-encoded samples of its
// metrics registry, histograms, and heavy-hitter sketches on the reserved
// "_ibus.stats.ts.<node>" subject; a StatsAggregator anywhere on the bus decodes the
// streams and merges sketches and histograms across nodes into one fleet view. The plane observes itself: the
// overhead ratio (telemetry.self.bytes / bus.publish_bytes) rides in every sample.
//
// Wire discipline: sample records lead with kTsWireVersion (0xB5). Counters and
// gauges travel as a name dictionary established by periodic keyframes plus
// zigzag-varint deltas for changed values in between; histograms travel as sparse
// log-bucket deltas; sketches are small and ride whole. A decoder that joins late
// or desyncs waits for the next keyframe.
#ifndef SRC_TELEMETRY_BUSSTAT_H_
#define SRC_TELEMETRY_BUSSTAT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/client.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sketch.h"

namespace ibus::telemetry {

// Leading byte of every time-series record.
inline constexpr uint8_t kTsWireVersion = 0xB5;
// A keyframe carries the full dictionary + absolute values; a delta only changes.
inline constexpr uint8_t kTsKindKeyframe = 1;
inline constexpr uint8_t kTsKindDelta = 2;

// Registry-independent decoded form of one node's latest state.
struct DecodedSample {
  std::string node;
  uint64_t seq = 0;
  int64_t at_us = 0;
  uint32_t sample_period = 0;  // the node's trace sampling period (0=off, 1=all)
  // Counters and gauges, reconstructed to absolute values (gauges may be negative).
  std::map<std::string, int64_t> values;
  std::map<std::string, LatencyHistogram> histograms;
  TopKSketch subject_sketch{TopKSketch::kDefaultCapacity};
  TopKSketch peer_sketch{TopKSketch::kDefaultCapacity};
};

// Per-node encoder: owns the dictionary and last-sent values, decides keyframe vs
// delta by sequence number. One instance per publishing node (inside the reporter).
class StatSeriesEncoder {
 public:
  StatSeriesEncoder(std::string node, size_t keyframe_every)
      : node_(std::move(node)),
        keyframe_every_(keyframe_every == 0 ? 1 : keyframe_every) {}

  // Encodes the next sample. Values snapshot the registry at call time; the two
  // sketches may be null (encoded as empty).
  Bytes EncodeSample(const MetricsRegistry& registry, const TopKSketch* subject_sketch,
                     const TopKSketch* peer_sketch, int64_t at_us, uint32_t sample_period);

  uint64_t seq() const { return seq_; }

 private:
  std::string node_;
  size_t keyframe_every_;
  uint64_t seq_ = 0;
  // Dictionary state mirrored by decoders: entry i is ("c"/"g" tag, name); values
  // are the last encoded absolutes, parallel to the dictionary.
  std::vector<std::pair<uint8_t, std::string>> dict_;
  std::vector<int64_t> last_;
  // Histogram dictionary + last-sent bucket counts (sparse deltas need them).
  std::vector<std::string> hist_dict_;
  std::vector<std::vector<uint64_t>> hist_last_;
};

// Per-node decoder: rebuilds absolute state from the keyframe/delta stream. Joins
// (or re-joins after loss) at the next keyframe; out-of-sync deltas are counted
// and dropped, never misapplied.
class StatSeriesDecoder {
 public:
  // Applies one record. Returns kUnimplemented for foreign version bytes (the
  // payload is input from outside the program; callers skip those quietly),
  // kDataLoss for truncation, kFailedPrecondition for a delta that cannot be
  // applied (no keyframe yet, or a sequence gap).
  Status DecodeSample(const Bytes& record);

  const DecodedSample& latest() const { return latest_; }
  bool synced() const { return synced_; }
  uint64_t desyncs() const { return desyncs_; }

 private:
  bool synced_ = false;
  uint64_t desyncs_ = 0;
  DecodedSample latest_;
  // Mirror of the encoder's dictionaries; delta records index into these.
  std::vector<std::pair<uint8_t, std::string>> dict_;
  std::vector<std::string> hist_dict_;
};

struct BusStatReporterOptions {
  SimTime interval_us = kSecond;
  // A keyframe every N samples bounds how long a late-joining aggregator waits.
  size_t keyframe_every = 8;
  // Advertised trace sampling period (BusConfig::trace_sample_period).
  uint32_t sample_period = kDefaultTraceSamplePeriod;
};

// Publishes one node's metric stream on "_ibus.stats.ts.<node>" every interval.
// Works for daemons and routers alike: pass the component's registry and sketches.
// The registry pointer must outlive the reporter.
class BusStatReporter {
 public:
  static Result<std::unique_ptr<BusStatReporter>> Create(
      BusClient* bus, const std::string& node, const MetricsRegistry* registry,
      const TopKSketch* subject_sketch, const TopKSketch* peer_sketch,
      const BusStatReporterOptions& options = {});
  ~BusStatReporter();
  BusStatReporter(const BusStatReporter&) = delete;
  BusStatReporter& operator=(const BusStatReporter&) = delete;

  uint64_t samples_published() const { return samples_; }

 private:
  BusStatReporter(BusClient* bus, const std::string& node, const MetricsRegistry* registry,
                  const TopKSketch* subject_sketch, const TopKSketch* peer_sketch,
                  const BusStatReporterOptions& options);

  void PublishSample();

  BusClient* bus_;
  std::string node_;
  const MetricsRegistry* registry_;
  const TopKSketch* subject_sketch_;
  const TopKSketch* peer_sketch_;
  BusStatReporterOptions options_;
  StatSeriesEncoder encoder_;
  uint64_t samples_ = 0;
  std::shared_ptr<bool> alive_;
};

// One node's recent history: a fixed ring of (seq, at_us, value-map) snapshots.
inline constexpr size_t kStatsRingDepth = 32;

// Merges every node's time series into one fleet view. Either subscribe it on a
// bus (Create) or embed it and feed records by hand (Consume) — busmon does the
// latter from its own stats subscription.
class StatsAggregator {
 public:
  StatsAggregator() = default;
  StatsAggregator(const StatsAggregator&) = delete;
  StatsAggregator& operator=(const StatsAggregator&) = delete;

  static Result<std::unique_ptr<StatsAggregator>> Create(BusClient* bus);
  ~StatsAggregator();

  // Feeds one "_ibus.stats.ts.*" payload. Foreign-version records are skipped.
  void Consume(const Bytes& record);

  // Nodes seen so far, name-ordered.
  std::vector<std::string> Nodes() const;
  // Latest decoded state for a node; null when unknown.
  const DecodedSample* Latest(const std::string& node) const;

  struct RingEntry {
    uint64_t seq = 0;
    int64_t at_us = 0;
    std::map<std::string, int64_t> values;
  };
  // Up to kStatsRingDepth most recent samples for a node, oldest first.
  std::vector<RingEntry> History(const std::string& node) const;

  // Fleet roll-ups over each node's latest sample.
  int64_t FleetValue(const std::string& metric) const;   // sum across nodes
  LatencyHistogram MergedHistogram(const std::string& name) const;
  TopKSketch MergedSubjectSketch() const;
  TopKSketch MergedPeerSketch() const;
  // telemetry.self.bytes / bus.publish_bytes across the fleet; 0 when no traffic.
  double OverheadRatio() const;

  uint64_t samples_consumed() const { return samples_; }
  uint64_t decode_errors() const { return decode_errors_; }
  uint64_t desyncs() const;

  // Deterministic renderings: same stream of records -> same bytes, any node order
  // of arrival. The JSON carries {"schema": "BUSSTAT_1", ...}.
  std::string RenderJson() const;
  std::string RenderTable() const;
  // FNV-1a over RenderJson(): the replay-check fingerprint.
  uint64_t Hash() const;

 private:
  struct NodeState {
    StatSeriesDecoder decoder;
    std::vector<RingEntry> ring;  // bounded at kStatsRingDepth
    size_t ring_next = 0;
    uint64_t ring_seen = 0;
  };

  BusClient* bus_ = nullptr;
  uint64_t sub_ = 0;
  uint64_t samples_ = 0;
  uint64_t decode_errors_ = 0;
  std::map<std::string, NodeState> nodes_;
};

}  // namespace ibus::telemetry

#endif  // SRC_TELEMETRY_BUSSTAT_H_
