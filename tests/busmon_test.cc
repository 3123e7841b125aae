// Always-on pieces of the health plane: the flight recorder ring buffer and JSONL
// dump, the daemon's churn and publish accounting, and the busmon console's
// stats/queue/stage views over the busstat feed.
// These must all work with -DIB_TELEMETRY=OFF too — only the evaluator/alert tests
// (health_test.cc) need telemetry compiled in.
#include <gtest/gtest.h>

#include "src/telemetry/busmon.h"
#include "src/telemetry/flight_recorder.h"
#include "tests/bus_fixture.h"

namespace ibus {
namespace {

using telemetry::FlightEventKind;
using telemetry::FlightRecorder;

// --- Flight recorder ---------------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsInOrder) {
  FlightRecorder rec("daemon@0", 8);
  rec.Record(100, FlightEventKind::kPublish, "market.equity.gmc", "bytes=32");
  rec.Record(250, FlightEventKind::kGap, "", "stream=1 first=4 last=6");
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.total_recorded(), 2u);
  EXPECT_EQ(rec.overwritten(), 0u);

  auto events = rec.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at_us, 100);
  EXPECT_EQ(events[0].kind, FlightEventKind::kPublish);
  EXPECT_EQ(events[1].detail, "stream=1 first=4 last=6");

  const std::string dump = rec.DumpJsonl();
  EXPECT_NE(dump.find("{\"t\":100,\"node\":\"daemon@0\",\"kind\":\"publish\","
                      "\"subject\":\"market.equity.gmc\",\"detail\":\"bytes=32\"}"),
            std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"gap\""), std::string::npos);
}

TEST(FlightRecorderTest, RingOverwritesOldestAtCapacity) {
  FlightRecorder rec("r", 4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(i, FlightEventKind::kPublish, "s" + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);
  auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving event first.
  EXPECT_EQ(events.front().subject, "s6");
  EXPECT_EQ(events.back().subject, "s9");
}

TEST(FlightRecorderTest, DumpHashIsStableAndContentSensitive) {
  FlightRecorder a("n", 8);
  FlightRecorder b("n", 8);
  a.Record(1, FlightEventKind::kRetransmit, "", "stream=1 seq=2");
  b.Record(1, FlightEventKind::kRetransmit, "", "stream=1 seq=2");
  EXPECT_EQ(a.DumpHash(), b.DumpHash());
  b.Record(2, FlightEventKind::kGap, "", "stream=1 first=3 last=3");
  EXPECT_NE(a.DumpHash(), b.DumpHash());
}

TEST(FlightRecorderTest, JsonEscapesControlAndQuoteCharacters) {
  FlightRecorder rec("n", 4);
  rec.Record(5, FlightEventKind::kDrop, "a.b", "bad \"frame\"\n\ttail");
  const std::string dump = rec.DumpJsonl();
  EXPECT_NE(dump.find("bad \\\"frame\\\"\\n\\ttail"), std::string::npos);
}

TEST(FlightRecorderTest, RenderTailShowsMostRecent) {
  FlightRecorder rec("n", 8);
  for (int i = 0; i < 6; ++i) {
    rec.Record(i * 10, FlightEventKind::kPublish, "sub" + std::to_string(i));
  }
  const std::string tail = rec.RenderTail(2);
  EXPECT_EQ(tail.find("sub3"), std::string::npos);
  EXPECT_NE(tail.find("sub4"), std::string::npos);
  EXPECT_NE(tail.find("sub5"), std::string::npos);
}

// --- Daemon churn and publish accounting -------------------------------------------

class FlowAccountingTest : public BusFixture {};

TEST_F(FlowAccountingTest, SubscriptionChurnIsCounted) {
  SetUpBus(1);
  auto client = MakeClient(0, "churner");
  Settle(500 * kMillisecond);
  const uint64_t before = daemons_[0]->stats().sub_churn;
  auto sub = client->Subscribe("a.b", [](const Message&) {});
  ASSERT_TRUE(sub.ok());
  Settle(500 * kMillisecond);
  ASSERT_TRUE(client->Unsubscribe(*sub).ok());
  Settle(500 * kMillisecond);
  EXPECT_EQ(daemons_[0]->stats().sub_churn, before + 2);
}

TEST_F(FlowAccountingTest, DaemonRecordsPublishesInFlightRecorder) {
  SetUpBus(1);
  auto pub = MakeClient(0, "pub");
  ASSERT_TRUE(pub->Publish("fab5.cc.litho8", ToBytes("reading")).ok());
  Settle();
  bool saw_publish = false;
  for (const auto& e : daemons_[0]->flight_recorder()->Events()) {
    if (e.kind == FlightEventKind::kPublish && e.subject == "fab5.cc.litho8") {
      saw_publish = true;
    }
  }
  EXPECT_TRUE(saw_publish);
  EXPECT_NE(daemons_[0]->flight_recorder()->DumpJsonl().find("fab5.cc.litho8"),
            std::string::npos);
}

// --- BusMon console ----------------------------------------------------------------

class BusMonTest : public BusFixture {};

TEST_F(BusMonTest, RendersFleetStatsAndTopFlows) {
  SetUpBus(2);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  ASSERT_TRUE(sub->Subscribe("market.>", [](const Message&) {}).ok());

  // The console subscribes before the reporters start, so it sees their keyframes.
  auto mon_bus = MakeClient(0, "busmon");
  auto mon = telemetry::BusMon::Create(mon_bus.get());
  ASSERT_TRUE(mon.ok()) << mon.status().ToString();
  (*mon)->AttachRecorder(daemons_[0]->flight_recorder());
  std::vector<std::unique_ptr<BusClient>> ops;
  std::vector<std::unique_ptr<telemetry::BusStatReporter>> reporters;
  for (int i = 0; i < 2; ++i) {
    ops.push_back(MakeClient(i, "ops" + std::to_string(i)));
    reporters.push_back(StartStatReporter(ops.back().get(), i, 500 * kMillisecond));
  }

  Settle();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pub->Publish("market.equity.gmc", ToBytes("t" + std::to_string(i))).ok());
  }
  Settle();

  ASSERT_EQ((*mon)->timeseries().Nodes().size(), 2u);
  const std::string frame = (*mon)->RenderSnapshot();
  EXPECT_NE(frame.find("hosts (2):"), std::string::npos);
  EXPECT_NE(frame.find("\n  host0 "), std::string::npos);
  EXPECT_NE(frame.find("\n  host1 "), std::string::npos);
  EXPECT_NE(frame.find("top subjects (heavy-hitter sketch):"), std::string::npos);
  EXPECT_NE(frame.find("market.equity.gmc"), std::string::npos);
  EXPECT_NE(frame.find("flight recorder daemon@0"), std::string::npos);
#if IBUS_TELEMETRY
  EXPECT_NE(frame.find("active alerts: none"), std::string::npos);
#endif
  // Rendering is pure: same state, same frame, same hash.
  EXPECT_EQ(frame, (*mon)->RenderSnapshot());
  EXPECT_EQ((*mon)->SnapshotHash(), (*mon)->SnapshotHash());
}

TEST_F(BusMonTest, RendersQueueOccupancyFromSnapshots) {
  SetUpBus(2);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  ASSERT_TRUE(sub->Subscribe("fab5.>", [](const Message&) {}).ok());

  auto mon_bus = MakeClient(0, "busmon");
  auto mon = telemetry::BusMon::Create(mon_bus.get());
  ASSERT_TRUE(mon.ok()) << mon.status().ToString();
  std::vector<std::unique_ptr<BusClient>> ops;
  std::vector<std::unique_ptr<telemetry::BusStatReporter>> reporters;
  for (int i = 0; i < 2; ++i) {
    ops.push_back(MakeClient(i, "ops" + std::to_string(i)));
    reporters.push_back(StartStatReporter(ops.back().get(), i, 500 * kMillisecond));
  }

  Settle();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(pub->Publish("fab5.cc.litho8", ToBytes("r" + std::to_string(i))).ok());
  }
  Settle();

  ASSERT_EQ((*mon)->timeseries().Nodes().size(), 2u);
  const std::string frame = (*mon)->RenderSnapshot();
  EXPECT_NE(frame.find("queue occupancy (depth/hwm):"), std::string::npos);
  EXPECT_NE(frame.find("retained"), std::string::npos);
  EXPECT_NE(frame.find("partials"), std::string::npos);
#if IBUS_TELEMETRY
  // The publisher host retains unacked packets, so its retained hwm is nonzero.
  const telemetry::DecodedSample* s0 = (*mon)->timeseries().Latest("host0");
  ASSERT_NE(s0, nullptr);
  EXPECT_GT(s0->values.at(std::string(kMetricSenderRetainedDepth) + ".hwm"), 0);
#endif
}

#if IBUS_TELEMETRY
TEST_F(BusMonTest, DerivesStageLatencyFromBufferedTraceSpans) {
  BusConfig config;
  config.trace_sample_period = 1;
  SetUpBus(2, config);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  ASSERT_TRUE(sub->Subscribe("orders.>", [](const Message&) {}).ok());

  telemetry::BusMonOptions options;
  options.max_traces = 2;
  auto mon_bus = MakeClient(1, "busmon");
  auto mon = telemetry::BusMon::Create(mon_bus.get(), options);
  ASSERT_TRUE(mon.ok()) << mon.status().ToString();

  Settle();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pub->Publish("orders.new", ToBytes("o" + std::to_string(i))).ok());
  }
  Settle();

  EXPECT_GT((*mon)->spans_seen(), 0u);
  // The hop buffer is bounded: 3 traces published, only max_traces retained.
  EXPECT_EQ((*mon)->traces().size(), 2u);

  const std::string frame = (*mon)->RenderSnapshot();
  EXPECT_NE(frame.find("stage latency ("), std::string::npos);
  // Hop-only decomposition of a LAN path: marshal, transit, and dispatch stages.
  EXPECT_NE(frame.find("publish_loopback"), std::string::npos);
  EXPECT_NE(frame.find("medium_transit"), std::string::npos);
  EXPECT_NE(frame.find("deliver_loopback"), std::string::npos);
  EXPECT_EQ(frame.find("unattributed"), std::string::npos);
}
#endif

}  // namespace
}  // namespace ibus
