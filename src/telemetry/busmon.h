// BusMon: the operator's cluster console, itself just a bus client (the paper's
// service-application pattern — the bus monitoring the bus). It subscribes to the
// three reserved observability feeds — "_ibus.stats.ts.>" busstat samples,
// "_ibus.health.>" alert transitions, "_ibus.trace.>" spans — and renders a
// fleet-wide view: per-host stats table and queue occupancy (depth/high-watermark
// per daemon protocol queue), both read from each node's latest busstat sample;
// the merged heavy-hitter sketches; active alerts; per-stage latency derived from
// buffered trace spans (src/prof back-chain decomposition); and excerpts from any
// locally attached flight recorders. RenderSnapshot() is deterministic under the
// simulator, so replay checks can hash the whole frame.
#ifndef SRC_TELEMETRY_BUSMON_H_
#define SRC_TELEMETRY_BUSMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/bus/client.h"
#include "src/telemetry/busstat.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/trace.h"

namespace ibus::telemetry {

struct BusMonOptions {
  size_t recorder_tail = 4;  // events shown per attached flight recorder
  // Hop-record buffer bound: the console keeps the most recent traces (by trace
  // id) for the per-stage latency section and evicts the oldest beyond this.
  size_t max_traces = 256;
};

class BusMon {
 public:
  // Subscribes to the stats/health/trace feeds. Works under -DIB_TELEMETRY=OFF too:
  // the stats table stays live, health/trace sections simply stay empty (those
  // feeds are never published in an OFF build).
  static Result<std::unique_ptr<BusMon>> Create(BusClient* bus,
                                                const BusMonOptions& options = BusMonOptions());
  ~BusMon();
  BusMon(const BusMon&) = delete;
  BusMon& operator=(const BusMon&) = delete;

  // Flight recorders are per-process state, not bus traffic; a console co-hosted
  // with daemons/routers can attach theirs to get a post-mortem excerpt section.
  void AttachRecorder(const FlightRecorder* recorder);

  // The embedded busstat aggregator fed by the stats subscription: every node's
  // latest sample (the host tables), merged sketches, and sampling rates.
  const StatsAggregator& timeseries() const { return timeseries_; }
  // Raised-and-not-yet-cleared alerts, keyed (kind, node, subject).
  size_t active_alert_count() const { return active_alerts_.size(); }
  // Every alert transition seen, in arrival order.
  const std::vector<HealthEvent>& alert_history() const { return alert_history_; }
  uint64_t spans_seen() const { return spans_seen_; }
  // Buffered hop records per trace id (arrival order; bounded by max_traces).
  const std::map<uint64_t, std::vector<HopRecord>>& traces() const { return traces_; }

  // The full console frame. Deterministic under the simulator (hashable).
  std::string RenderSnapshot() const;
  // FNV-1a hash of RenderSnapshot(), for replay checks.
  uint64_t SnapshotHash() const;

 private:
  BusMon(BusClient* bus, const BusMonOptions& options) : bus_(bus), options_(options) {}

  void HandleStats(const Message& m);
  void HandleHealth(const Message& m);
  void HandleTrace(const Message& m);

  BusClient* bus_;
  BusMonOptions options_;
  std::vector<uint64_t> subs_;

  StatsAggregator timeseries_;
  std::map<std::tuple<uint8_t, std::string, std::string>, HealthEvent> active_alerts_;
  std::vector<HealthEvent> alert_history_;
  uint64_t spans_seen_ = 0;
  std::map<uint64_t, std::vector<HopRecord>> traces_;
  std::vector<const FlightRecorder*> recorders_;
};

}  // namespace ibus::telemetry

#endif  // SRC_TELEMETRY_BUSMON_H_
