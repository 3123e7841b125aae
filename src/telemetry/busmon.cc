#include "src/telemetry/busmon.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "src/bus/daemon.h"
#include "src/prof/stages.h"
#include "src/proto/reliable.h"
#include "src/telemetry/trace.h"

namespace ibus::telemetry {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// A registry value from a node's latest sample; a metric the node never set reads 0.
long long ValueOf(const DecodedSample& s, const std::string& name) {
  auto it = s.values.find(name);
  return it == s.values.end() ? 0 : static_cast<long long>(it->second);
}

}  // namespace

Result<std::unique_ptr<BusMon>> BusMon::Create(BusClient* bus, const BusMonOptions& options) {
  auto mon = std::unique_ptr<BusMon>(new BusMon(bus, options));
  struct Feed {
    std::string pattern;
    void (BusMon::*handler)(const Message&);
  };
  const Feed feeds[] = {
      {std::string(kReservedStatsTsPrefix) + ">", &BusMon::HandleStats},
      {kHealthPattern, &BusMon::HandleHealth},
      {kTracePattern, &BusMon::HandleTrace},
  };
  for (const Feed& feed : feeds) {
    auto sub = mon->bus_->Subscribe(
        feed.pattern, [m = mon.get(), h = feed.handler](const Message& msg) { (m->*h)(msg); });
    if (!sub.ok()) {
      return sub.status();
    }
    mon->subs_.push_back(*sub);
  }
  return mon;
}

BusMon::~BusMon() {
  for (uint64_t sub : subs_) {
    bus_->Unsubscribe(sub);
  }
}

void BusMon::AttachRecorder(const FlightRecorder* recorder) {
  recorders_.push_back(recorder);
}

void BusMon::HandleStats(const Message& m) { timeseries_.Consume(m.payload); }

void BusMon::HandleHealth(const Message& m) {
  if (m.type_name != kHealthEventType) {
    return;
  }
  auto e = HealthEvent::Unmarshal(m.payload);
  if (!e.ok()) {
    return;
  }
  auto key = std::make_tuple(static_cast<uint8_t>(e->kind), e->node, e->subject);
  if (e->severity == HealthSeverity::kClear) {
    active_alerts_.erase(key);
  } else {
    active_alerts_[key] = *e;
  }
  alert_history_.push_back(e.take());
}

void BusMon::HandleTrace(const Message& m) {
  if (m.type_name != kHopRecordType) {
    return;
  }
  spans_seen_++;
  auto rec = HopRecord::Unmarshal(m.payload);
  if (!rec.ok()) {
    return;
  }
  traces_[rec->trace_id].push_back(rec.take());
  // Bounded buffer: evict the lowest trace id (ids are allocated monotonically per
  // client, so the lowest is the oldest publish).
  while (traces_.size() > options_.max_traces) {
    traces_.erase(traces_.begin());
  }
}

std::string BusMon::RenderSnapshot() const {
  std::ostringstream out;
  out << "== busmon @ " << bus_->sim()->Now() << "us ==\n";

  // Host tables: each node's latest busstat sample, read by registry name.
  std::vector<const DecodedSample*> hosts;
  for (const std::string& node : timeseries_.Nodes()) {
    if (const DecodedSample* s = timeseries_.Latest(node)) {
      hosts.push_back(s);
    }
  }
  out << "hosts (" << hosts.size() << "):\n";
  out << "  host             pubs   disp  deliv   subs  churn  retrans  gaps\n";
  char line[200];
  for (const DecodedSample* s : hosts) {
    std::snprintf(line, sizeof(line), "  %-14s %6lld %6lld %6lld %6lld %6lld %8lld %5lld\n",
                  s->node.c_str(), ValueOf(*s, kMetricPublishes),
                  ValueOf(*s, kMetricDispatched), ValueOf(*s, kMetricDeliveries),
                  ValueOf(*s, kMetricSubscriptions), ValueOf(*s, kMetricSubChurn),
                  ValueOf(*s, kMetricSenderRetransmits), ValueOf(*s, kMetricReceiverGaps));
    out << line;
  }

  // Queue occupancy: live depth / monotone high-watermark for each daemon-side
  // protocol queue (the "<depth>" and "<depth>.hwm" gauge pairs).
  out << "queue occupancy (depth/hwm):\n";
  out << "  host            retained      batch      ready   partials\n";
  const std::string queues[4] = {kMetricSenderRetainedDepth, kMetricSenderBatchDepth,
                                 kMetricReceiverReadyDepth, kMetricReceiverPartialsDepth};
  for (const DecodedSample* s : hosts) {
    char cell[4][24];
    for (int i = 0; i < 4; ++i) {
      std::snprintf(cell[i], sizeof(cell[i]), "%lld/%lld", ValueOf(*s, queues[i]),
                    ValueOf(*s, queues[i] + ".hwm"));
    }
    std::snprintf(line, sizeof(line), "  %-14s %9s %10s %10s %10s\n", s->node.c_str(),
                  cell[0], cell[1], cell[2], cell[3]);
    out << line;
  }

  // The busstat time-series plane: per-node sampling rates plus the merged
  // heavy-hitter sketches. All map-ordered, so the frame stays byte-deterministic.
  const size_t ts_nodes = timeseries_.Nodes().size();
  if (ts_nodes == 0) {
    out << "stats time series: none\n";
  } else {
    out << "stats time series (" << ts_nodes << " nodes, " << timeseries_.samples_consumed()
        << " samples, " << timeseries_.desyncs() << " desyncs):\n";
    for (const DecodedSample* s : hosts) {
      const char* sampling = s->sample_period == 0   ? "off"
                             : s->sample_period == 1 ? "all"
                                                     : "1/";
      out << "  " << s->node << " seq=" << s->seq << " sampling=" << sampling;
      if (s->sample_period > 1) {
        out << s->sample_period;
      }
      out << "\n";
    }
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.6f", timeseries_.OverheadRatio());
    out << "telemetry overhead ratio: " << ratio << "\n";
    struct SketchSection {
      const char* title;
      TopKSketch sketch;
    };
    const SketchSection sections[] = {
        {"top subjects (heavy-hitter sketch):", timeseries_.MergedSubjectSketch()},
        {"top peers (heavy-hitter sketch):", timeseries_.MergedPeerSketch()},
    };
    for (const SketchSection& sec : sections) {
      out << sec.title << "\n";
      std::istringstream tbl(sec.sketch.RenderTable());
      std::string tbl_line;
      while (std::getline(tbl, tbl_line)) {
        out << "  " << tbl_line << "\n";
      }
    }
  }

  if (active_alerts_.empty()) {
    out << "active alerts: none\n";
  } else {
    out << "active alerts (" << active_alerts_.size() << "):\n";
    for (const auto& [key, e] : active_alerts_) {
      out << "  " << e.ToString() << "\n";
    }
  }
  out << "alert transitions seen: " << alert_history_.size() << "\n";
  out << "trace spans seen: " << spans_seen_ << "\n";

  // Per-stage latency from the buffered trace spans, via the profiler's back-chain
  // decomposition. Hop-only split: the console has no wire capture, so the whole
  // wire interval lands in medium_transit (see docs/TELEMETRY.md "Profiling").
  MetricsRegistry stage_registry;
  prof::StageAccumulator acc(&stage_registry);
  for (const auto& [id, unsorted] : traces_) {
    std::vector<HopRecord> timeline = unsorted;
    std::sort(timeline.begin(), timeline.end(), [](const HopRecord& a, const HopRecord& b) {
      return std::tie(a.at_us, a.hop, a.kind, a.node, a.subject) <
             std::tie(b.at_us, b.hop, b.kind, b.node, b.subject);
    });
    for (const prof::PathProfile& p : prof::DecomposeTimeline(timeline)) {
      acc.Add(p);
    }
  }
  out << "stage latency (" << acc.paths() << " paths over " << traces_.size()
      << " traces):\n";
  for (size_t i = 0; i < prof::kStageCount; ++i) {
    auto k = static_cast<prof::StageKind>(i);
    const LatencyHistogram* h = acc.histogram(k);
    if (acc.total_us(k) == 0 && (h == nullptr || h->count() == 0)) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-18s count=%llu p50=%lldus p90=%lldus p99=%lldus total=%lldus\n",
                  prof::StageName(k), static_cast<unsigned long long>(h ? h->count() : 0),
                  static_cast<long long>(h ? h->p50() : 0),
                  static_cast<long long>(h ? h->p90() : 0),
                  static_cast<long long>(h ? h->p99() : 0),
                  static_cast<long long>(acc.total_us(k)));
    out << line;
  }

  for (const FlightRecorder* rec : recorders_) {
    out << "flight recorder " << rec->node() << " (" << rec->total_recorded()
        << " recorded, tail " << options_.recorder_tail << "):\n";
    std::istringstream tail(rec->RenderTail(options_.recorder_tail));
    std::string tail_line;
    while (std::getline(tail, tail_line)) {
      out << "  " << tail_line << "\n";
    }
  }
  return out.str();
}

uint64_t BusMon::SnapshotHash() const {
  uint64_t h = kFnvOffset;
  for (char c : RenderSnapshot()) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace ibus::telemetry
