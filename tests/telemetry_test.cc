// Tests for the telemetry subsystem: histogram bucket/percentile math, the metrics
// registry, trace-context propagation through the wire format, reserved-namespace
// enforcement at the publish boundary, and end-to-end hop timelines reconstructed by
// a TraceCollector from spans carried over the bus itself.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/bus/certified.h"
#include "src/journal/journal.h"
#include "src/scenario/testbed.h"
#include "src/sim/stable_store.h"
#include "src/telemetry/collector.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "tests/bus_fixture.h"

namespace ibus {
namespace {

using telemetry::HopKind;
using telemetry::HopRecord;
using telemetry::LatencyHistogram;
using telemetry::MetricsRegistry;
using telemetry::TraceCollector;

// --- Histogram math ----------------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::BucketOf(-5), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 11u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketUpper(2), 3);
  EXPECT_EQ(LatencyHistogram::BucketUpper(10), 1023);
  // Every value lands in the bucket whose upper bound is >= the value.
  for (int64_t v : {0, 1, 7, 100, 4096, 1000000}) {
    EXPECT_GE(LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(v)), v);
  }
}

TEST(LatencyHistogramTest, PercentilesAreBucketUpperBounds) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 8; ++v) {
    h.Record(v);
  }
  // Buckets: {1}, {2,3}, {4..7}, {8}. The median rank (4) falls in the [4,7] bucket.
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 8);
  EXPECT_EQ(h.p50(), 7);
  EXPECT_EQ(h.p90(), 15);
  EXPECT_EQ(h.p99(), 15);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.5);
}

TEST(LatencyHistogramTest, EmptyHistogramReadsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleDrivesEveryPercentile) {
  LatencyHistogram h;
  h.Record(300);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 300);
  EXPECT_EQ(h.max(), 300);
  // Every percentile reports the one occupied bucket's upper bound ([256, 511]).
  EXPECT_EQ(h.p50(), 511);
  EXPECT_EQ(h.p90(), 511);
  EXPECT_EQ(h.p99(), 511);
  EXPECT_DOUBLE_EQ(h.Mean(), 300.0);

  // A single zero/negative sample stays pinned to bucket 0.
  LatencyHistogram z;
  z.Record(-7);
  EXPECT_EQ(z.count(), 1u);
  EXPECT_EQ(z.p50(), 0);
  EXPECT_EQ(z.p99(), 0);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneInRank) {
  // Skewed population across several buckets: quantile ordering must hold.
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.Record(100);
  }
  for (int i = 0; i < 9; ++i) {
    h.Record(5000);
  }
  h.Record(200000);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.Percentile(1.0));
  EXPECT_LE(h.Percentile(0.0), h.p50());
  // The tail sample is only visible at the very top of the distribution.
  EXPECT_LT(h.p90(), LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(200000)));
  EXPECT_EQ(h.Percentile(1.0), LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(200000)));
}

// --- Registry ----------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsHaveStableIdentity) {
  MetricsRegistry reg;
  telemetry::Counter* c = reg.GetCounter("bus.publishes");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(reg.GetCounter("bus.publishes"), c);  // same name -> same instrument
  EXPECT_EQ(reg.CounterValue("bus.publishes"), 5u);
  EXPECT_EQ(reg.CounterValue("no.such.counter"), 0u);

  telemetry::Gauge* g = reg.GetGauge("bus.subscriptions");
  g->Set(3);
  g->Add(-1);
  EXPECT_EQ(reg.GaugeValue("bus.subscriptions"), 2);

  LatencyHistogram* h = reg.GetHistogram("rmi.rtt");
  h->Record(10);
  ASSERT_NE(reg.FindHistogram("rmi.rtt"), nullptr);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("bus.publishes 5"), std::string::npos) << text;
  EXPECT_NE(text.find("bus.subscriptions 2"), std::string::npos) << text;
  EXPECT_NE(text.find("rmi.rtt"), std::string::npos) << text;
}

// --- Hop records over the wire -----------------------------------------------------

TEST(HopRecordTest, RoundTrip) {
  HopRecord rec;
  rec.trace_id = 0xDEADBEEF01ull;
  rec.hop = 2;
  rec.kind = HopKind::kRouterForward;
  rec.node = "_router:A";
  rec.subject = "news.equity.gmc";
  rec.at_us = 123456;
  rec.certified_id = 9;
  auto back = HopRecord::Unmarshal(rec.Marshal());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->trace_id, rec.trace_id);
  EXPECT_EQ(back->hop, 2);
  EXPECT_EQ(back->kind, HopKind::kRouterForward);
  EXPECT_EQ(back->node, "_router:A");
  EXPECT_EQ(back->subject, "news.equity.gmc");
  EXPECT_EQ(back->at_us, 123456);
  EXPECT_EQ(back->certified_id, 9u);
  EXPECT_NE(back->ToString().find("router_forward"), std::string::npos);
}

TEST(HopRecordTest, TruncationAndBadKindRejected) {
  HopRecord rec;
  rec.kind = HopKind::kDeliver;
  Bytes wire = rec.Marshal();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(HopRecord::Unmarshal(wire).ok());

  Bytes bad_kind = rec.Marshal();
  bad_kind[8 + 1] = 99;  // kind byte follows the u64 trace id and u8 hop
  EXPECT_FALSE(HopRecord::Unmarshal(bad_kind).ok());
}

// --- Reserved namespace at the publish boundary ------------------------------------

class TelemetryBusTest : public BusFixture {};

TEST_F(TelemetryBusTest, ApplicationPublishesCannotEnterReservedNamespace) {
  SetUpBus(1);
  auto client = MakeClient(0, "app");
  EXPECT_FALSE(client->Publish(std::string(kReservedStatsPrefix) + "x", ToBytes("p")).ok());
  EXPECT_FALSE(client->Publish(std::string(kReservedTracePrefix) + "hop.publish",
                               ToBytes("p")).ok());
  // Lookalike roots are ordinary application subjects.
  EXPECT_TRUE(client->Publish("_ibusx.foo", ToBytes("p")).ok());

  Message internal;
  internal.subject = std::string(kReservedStatsPrefix) + "x";
  internal.payload = ToBytes("p");
  EXPECT_TRUE(client->PublishInternal(std::move(internal)).ok());
}

#if IBUS_TELEMETRY

// --- End-to-end tracing on one LAN -------------------------------------------------

TEST_F(TelemetryBusTest, TracedPublishYieldsFullHopTimeline) {
  BusConfig config;
  config.trace_sample_period = 1;
  SetUpBus(3, config);
  auto monitor = MakeClient(0, "monitor");
  auto collector = TraceCollector::Create(monitor.get());
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();

  auto sub = MakeClient(2, "consumer");
  int got = 0;
  ASSERT_TRUE(sub->Subscribe("news.>", [&](const Message&) { ++got; }).ok());
  Settle(200 * kMillisecond);

  auto pub = MakeClient(1, "producer");
  ASSERT_TRUE(pub->Publish("news.equity.gmc", ToBytes("GM +3%")).ok());
  Settle();

  EXPECT_EQ(got, 1);
  ASSERT_EQ((*collector)->trace_count(), 1u);
  uint64_t id = (*collector)->trace_ids()[0];
  std::vector<HopRecord> timeline = (*collector)->Timeline(id);
  ASSERT_GE(timeline.size(), 4u) << (*collector)->RenderTimeline(id);

  std::set<HopKind> kinds;
  for (const HopRecord& h : timeline) {
    kinds.insert(h.kind);
    EXPECT_EQ(h.trace_id, id);
    EXPECT_EQ(h.subject, "news.equity.gmc");
  }
  EXPECT_TRUE(kinds.count(HopKind::kPublish));
  EXPECT_TRUE(kinds.count(HopKind::kWireSend));
  EXPECT_TRUE(kinds.count(HopKind::kDispatch));
  EXPECT_TRUE(kinds.count(HopKind::kDeliver));
  // Timestamps are monotone along the path and the first hop is the publish.
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1].at_us, timeline[i].at_us);
  }
  EXPECT_EQ(timeline.front().kind, HopKind::kPublish);
  EXPECT_EQ(timeline.front().node, "producer");

  auto hists = (*collector)->HopLatencyHistograms();
  EXPECT_GE(hists[HopKind::kDeliver].count(), 1u);

  std::string rendered = (*collector)->RenderTimeline(id);
  EXPECT_NE(rendered.find("publish"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("deliver"), std::string::npos) << rendered;
}

TEST_F(TelemetryBusTest, UntracedAndInternalTrafficEmitsNoSpans) {
  BusConfig config;
  config.trace_sample_period = 1;
  SetUpBus(2, config);
  auto monitor = MakeClient(0, "monitor");
  auto collector = TraceCollector::Create(monitor.get());
  ASSERT_TRUE(collector.ok());

  auto pub = MakeClient(1, "producer");
  // '_'-rooted application subjects (inboxes etc.) are never auto-traced, and
  // internal publishes never originate a trace.
  ASSERT_TRUE(pub->Publish("_inbox.h1.p5000.1", ToBytes("r")).ok());
  Message m;
  m.subject = std::string(kReservedStatsPrefix) + "host1";
  m.payload = ToBytes("s");
  ASSERT_TRUE(pub->PublishInternal(std::move(m)).ok());
  Settle();
  EXPECT_EQ((*collector)->trace_count(), 0u);
  EXPECT_EQ((*collector)->records_received(), 0u);
}

TEST_F(TelemetryBusTest, CollectorEvictsLeastRecentTraceAtCap) {
  BusConfig config;
  config.trace_sample_period = 1;
  SetUpBus(2, config);
  auto monitor = MakeClient(0, "monitor");
  telemetry::TraceCollectorOptions options;
  options.max_traces = 0;
  EXPECT_EQ(TraceCollector::Create(monitor.get(), options).status().code(),
            StatusCode::kInvalidArgument);

  options.max_traces = 2;
  auto collector = TraceCollector::Create(monitor.get(), options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();

  auto sub = MakeClient(1, "consumer");
  ASSERT_TRUE(sub->Subscribe("news.>", [](const Message&) {}).ok());
  Settle(200 * kMillisecond);

  auto pub = MakeClient(1, "producer");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pub->Publish("news.item" + std::to_string(i), ToBytes("x")).ok());
    Settle(1 * kSecond);  // each trace completes before the next starts
  }

  // Three traces flowed through a 2-deep collector: the oldest was evicted.
  EXPECT_EQ((*collector)->trace_count(), 2u);
  EXPECT_EQ((*collector)->evictions(), 1u);
  std::set<std::string> kept_subjects;
  for (uint64_t id : (*collector)->trace_ids()) {
    for (const HopRecord& h : (*collector)->Timeline(id)) {
      kept_subjects.insert(h.subject);
    }
  }
  EXPECT_EQ(kept_subjects.count("news.item0"), 0u);
  EXPECT_EQ(kept_subjects.count("news.item1"), 1u);
  EXPECT_EQ(kept_subjects.count("news.item2"), 1u);
}

TEST_F(TelemetryBusTest, CollectorEvictionUnderSamplingTracksSampledSubsetOnly) {
  BusConfig config;
  config.trace_sample_period = 4;
  SetUpBus(2, config);
  auto monitor = MakeClient(0, "monitor");
  telemetry::TraceCollectorOptions options;
  options.max_traces = 2;
  auto collector = TraceCollector::Create(monitor.get(), options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();

  auto sub = MakeClient(1, "consumer");
  ASSERT_TRUE(sub->Subscribe("news.>", [](const Message&) {}).ok());
  Settle(200 * kMillisecond);

  auto pub = MakeClient(1, "producer");
  constexpr int kPublishes = 64;
  for (int i = 0; i < kPublishes; ++i) {
    ASSERT_TRUE(pub->Publish("news.item" + std::to_string(i), ToBytes("x")).ok());
    Settle(1 * kSecond);  // each trace completes before the next starts
  }

  // Mirror the publisher's candidate-id scheme (stable client id, 1-based ordinal)
  // to predict exactly which publishes the hash sampled.
  uint64_t sampled = 0;
  for (uint64_t ordinal = 1; ordinal <= kPublishes; ++ordinal) {
    const uint64_t candidate = (pub->client_id() << 20) | ordinal;
    if (telemetry::ShouldSampleTrace(candidate, config.trace_sample_period)) {
      sampled++;
    }
  }
  EXPECT_GT(sampled, options.max_traces);  // enough sampled traffic to force eviction
  EXPECT_LT(sampled, kPublishes / 2u);     // but the sampler really did thin the stream

  // The cap and the eviction counter see only the sampled subset: untraced
  // publishes never reach the collector, so they neither occupy slots nor evict.
  EXPECT_EQ((*collector)->trace_count(), options.max_traces);
  EXPECT_EQ((*collector)->evictions(), sampled - options.max_traces);
  for (uint64_t id : (*collector)->trace_ids()) {
    EXPECT_TRUE(telemetry::ShouldSampleTrace(id, config.trace_sample_period)) << id;
  }
}

// --- Certified publish across the WAN under loss -----------------------------------

TEST(TelemetryWanTest, CertifiedWanTraceIsComplete) {
  BusConfig config;
  config.trace_sample_period = 1;
  auto bed = scenario::WanTestbed::Start(42, config).take();
  Simulator& sim = bed->sim();
  auto connect = [&](HostId h, const std::string& name) {
    auto c = BusClient::Connect(&bed->net(), h, name, config);
    EXPECT_TRUE(c.ok());
    return c.take();
  };
  ASSERT_TRUE(bed->ConnectRouters().ok());
  sim.RunFor(200 * kMillisecond);

  auto monitor_bus = connect(bed->b0(), "monitor");
  auto collector = TraceCollector::Create(monitor_bus.get());
  ASSERT_TRUE(collector.ok());

  auto sub_bus = connect(bed->b1(), "consumer");
  int got = 0;
  auto sub = CertifiedSubscriber::Create(sub_bus.get(), "orders.>", "consumer",
                                         [&](const Message&) { ++got; });
  ASSERT_TRUE(sub.ok());
  sim.RunFor(500 * kMillisecond);  // subscription + advert cross the WAN

  // Loss goes up only after the control plane settles, as in sim_replay_check.
  FaultPlan faults;
  faults.drop_prob = 0.10;
  faults.jitter_us = 300;
  bed->SetFaults(faults);

  auto pub_bus = connect(bed->a1(), "producer");
  MemoryStableStore store;
  journal::JournalConfig ledger_config;
  ledger_config.sim = &sim;  // write-through: legacy stable-write timing
  auto ledger = journal::Journal::Open(&store, ledger_config).take();
  auto pub = CertifiedPublisher::Create(pub_bus.get(), ledger.get(), "orders-ledger");
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE((*pub)->Publish("orders.new", ToBytes("order0")).ok());
  sim.RunFor(5 * kSecond);

  EXPECT_EQ(got, 1);
  EXPECT_EQ((*pub)->pending(), 0u);  // retired: the ack crossed back over the WAN
  EXPECT_GE((*pub)->retire_latency().count(), 1u);

  // At least one trace must show the complete client -> daemon -> router -> daemon
  // -> subscriber path (retransmissions may add additional partial traces).
  ASSERT_GE((*collector)->trace_count(), 1u);
  bool complete = false;
  for (uint64_t id : (*collector)->trace_ids()) {
    std::set<HopKind> kinds;
    for (const HopRecord& h : (*collector)->Timeline(id)) {
      kinds.insert(h.kind);
    }
    if (kinds.count(HopKind::kPublish) && kinds.count(HopKind::kWireSend) &&
        kinds.count(HopKind::kRouterForward) && kinds.count(HopKind::kRouterRepublish) &&
        kinds.count(HopKind::kDispatch) && kinds.count(HopKind::kDeliver)) {
      complete = true;
      EXPECT_GT((*collector)->TimelineHash(id), 0u);
    }
  }
  EXPECT_TRUE(complete) << "no complete WAN timeline; traces:\n"
                        << [&] {
                             std::string all;
                             for (uint64_t id : (*collector)->trace_ids()) {
                               all += (*collector)->RenderTimeline(id) + "\n";
                             }
                             return all;
                           }();
}

#endif  // IBUS_TELEMETRY

}  // namespace
}  // namespace ibus
