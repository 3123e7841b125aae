// The canonical busstat scenario: the WAN testbed (src/scenario/testbed.h) under
// 10% loss + 300µs jitter, carrying a plain pub/sub workload with publisher-side
// trace sampling on, a BusStatReporter beside every daemon and router, and a
// StatsAggregator + TraceCollector on the far LAN merging the fleet. Shared by
// tools/busstat, the stats tests, sim_replay_check's busstat scenario, and
// bench/telemetry_overhead, so the CLI output, the unit assertions, the replay
// hashes, and the overhead series all describe the same bytes.
#ifndef SRC_SCENARIO_BUSSTAT_DEMO_H_
#define SRC_SCENARIO_BUSSTAT_DEMO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ibus::scenario {

struct BusStatScenarioOptions {
  // Publisher-side trace sampling period (BusConfig::trace_sample_period):
  // 1 = trace everything, 64 = the default 1/64 sample, 0 = tracing off.
  uint32_t sample_period = 64;
  // Application workload: `messages` publishes of `payload_bytes` each.
  int messages = 300;
  size_t payload_bytes = 1024;
  int64_t publish_interval_us = 5000;
  // busstat reporter cadence.
  int64_t stats_interval_us = 1000000;
  size_t keyframe_every = 8;
};

struct BusStatScenario {
  // Deterministic event log: deliveries, per-node sample summaries, fleet stat
  // lines — the replay spine (first line is "error: ..." on setup failure).
  std::vector<std::string> trace;
  // StatsAggregator::RenderJson(): {"schema": "BUSSTAT_1", ...}, byte-stable per seed.
  std::string json;
  // StatsAggregator::RenderTable(): the operator console view.
  std::string table;
  // StatsAggregator::Hash() — FNV-1a over the JSON; bit-identical across replays.
  uint64_t hash = 0;

  // Workload + overhead accounting (the bench series).
  uint64_t delivered = 0;          // consumer deliveries observed
  uint64_t publish_bytes = 0;      // fleet bus.publish_bytes
  uint64_t self_bytes = 0;         // fleet telemetry.self.bytes
  uint64_t self_msgs = 0;          // fleet telemetry.self.msgs
  double overhead_ratio = 0.0;     // self_bytes / publish_bytes
  uint64_t samples_consumed = 0;   // aggregator-decoded time-series records
  uint64_t desyncs = 0;
  uint64_t traces_collected = 0;   // distinct sampled trace ids at the collector
  uint64_t trace_records = 0;      // hop spans received by the collector
};

BusStatScenario RunBusstatWanScenario(uint64_t seed,
                                      const BusStatScenarioOptions& options = {});

}  // namespace ibus::scenario

#endif  // SRC_SCENARIO_BUSSTAT_DEMO_H_
