// busprof: the critical-path stage decomposition, its reconciliation invariant
// (stage sums == measured end-to-end latency, integer µs, every path), the
// capture join that splits wire intervals into queue/repair/transit, the
// event-core profiler, and the end-to-end profiled WAN scenario.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bus/message.h"
#include "src/scenario/prof_demo.h"
#include "src/prof/profiler.h"
#include "src/prof/sim_profiler.h"
#include "src/prof/stages.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace ibus::prof {
namespace {

using scenario::ProfiledScenario;
using scenario::RunProfiledWanScenario;
using telemetry::HopKind;
using telemetry::HopRecord;

HopRecord Hop(uint64_t trace_id, uint8_t hop, HopKind kind, const std::string& node,
              int64_t at_us) {
  HopRecord r;
  r.trace_id = trace_id;
  r.hop = hop;
  r.kind = kind;
  r.node = node;
  r.subject = "orders.new";
  r.at_us = at_us;
  return r;
}

TEST(StageTaxonomyTest, NamesAreStableAndDistinct) {
  std::vector<std::string> seen;
  for (size_t i = 0; i < kStageCount; ++i) {
    std::string name = StageName(static_cast<StageKind>(i));
    EXPECT_FALSE(name.empty());
    for (const std::string& prior : seen) {
      EXPECT_NE(name, prior);
    }
    seen.push_back(name);
    EXPECT_EQ(StageMetricName(static_cast<StageKind>(i)), "prof.stage." + name);
  }
  EXPECT_STREQ(StageName(StageKind::kPublishLoopback), "publish_loopback");
  EXPECT_STREQ(StageName(StageKind::kUnattributed), "unattributed");
}

TEST(StageBreakdownTest, TotalSumsAllStages) {
  StageBreakdown b;
  b[StageKind::kPublishLoopback] = 10;
  b[StageKind::kMediumTransit] = 200;
  b[StageKind::kUnattributed] = 3;
  EXPECT_EQ(b.total_us(), 213);
  EXPECT_EQ(b.at(StageKind::kMediumTransit), 200);
  EXPECT_EQ(b.at(StageKind::kDaemonQueue), 0);
}

TEST(DecomposeTest, EmptyTimelineYieldsNoPaths) {
  EXPECT_TRUE(DecomposeTimeline({}).empty());
}

TEST(DecomposeTest, OriginLanPathReconcilesExactly) {
  std::vector<HopRecord> tl = {
      Hop(7, 0, HopKind::kPublish, "producer", 100),
      Hop(7, 0, HopKind::kWireSend, "daemon@0", 150),
      Hop(7, 0, HopKind::kDispatch, "daemon@1", 400),
      Hop(7, 0, HopKind::kDeliver, "consumer", 450),
  };
  auto paths = DecomposeTimeline(tl);
  ASSERT_EQ(paths.size(), 1u);
  const PathProfile& p = paths[0];
  EXPECT_EQ(p.trace_id, 7u);
  EXPECT_EQ(p.dest, "consumer");
  EXPECT_EQ(p.end_to_end_us, 350);
  EXPECT_EQ(p.stages.at(StageKind::kPublishLoopback), 50);
  EXPECT_EQ(p.stages.at(StageKind::kMediumTransit), 250);  // default split
  EXPECT_EQ(p.stages.at(StageKind::kDeliverLoopback), 50);
  EXPECT_EQ(p.stages.at(StageKind::kUnattributed), 0);
  EXPECT_EQ(p.stages.total_us(), p.end_to_end_us);
}

TEST(DecomposeTest, WanPathWalksRouterChain) {
  std::vector<HopRecord> tl = {
      Hop(9, 0, HopKind::kPublish, "producer", 100),
      Hop(9, 0, HopKind::kWireSend, "daemon@0", 120),
      Hop(9, 0, HopKind::kDispatch, "daemon@0", 200),
      Hop(9, 0, HopKind::kDeliver, "_router:A", 230),
      Hop(9, 1, HopKind::kRouterForward, "_router:A", 260),
      Hop(9, 2, HopKind::kRouterRepublish, "_router:B", 500),
      Hop(9, 2, HopKind::kWireSend, "daemon@2", 520),
      Hop(9, 2, HopKind::kDispatch, "daemon@3", 640),
      Hop(9, 2, HopKind::kDeliver, "consumer", 700),
  };
  auto paths = DecomposeTimeline(tl);
  ASSERT_EQ(paths.size(), 2u);  // router-client deliver at hop 0 + consumer at hop 2
  const PathProfile& wan = paths[1];
  EXPECT_EQ(wan.dest, "consumer");
  EXPECT_EQ(wan.hop, 2);
  EXPECT_EQ(wan.end_to_end_us, 600);
  EXPECT_EQ(wan.stages.at(StageKind::kDeliverLoopback), 60);   // 640 -> 700
  // Far-LAN wire 520->640 plus WAN link 260->500 plus origin wire 120->200.
  EXPECT_EQ(wan.stages.at(StageKind::kMediumTransit), 120 + 240 + 80);
  EXPECT_EQ(wan.stages.at(StageKind::kRouterRepublish), 20);   // 500 -> 520
  EXPECT_EQ(wan.stages.at(StageKind::kRouterForward), 60);     // 200 -> 260
  EXPECT_EQ(wan.stages.at(StageKind::kPublishLoopback), 20);   // 100 -> 120
  EXPECT_EQ(wan.stages.at(StageKind::kUnattributed), 0);
  EXPECT_EQ(wan.stages.total_us(), wan.end_to_end_us);

  const PathProfile& local = paths[0];
  EXPECT_EQ(local.dest, "_router:A");
  EXPECT_EQ(local.end_to_end_us, 130);
  EXPECT_EQ(local.stages.total_us(), local.end_to_end_us);
}

TEST(DecomposeTest, MissingHopFoldsRemainderIntoUnattributed) {
  std::vector<HopRecord> tl = {
      Hop(5, 0, HopKind::kPublish, "producer", 100),
      Hop(5, 0, HopKind::kDispatch, "daemon@1", 300),  // no wire_send record
      Hop(5, 0, HopKind::kDeliver, "consumer", 350),
  };
  auto paths = DecomposeTimeline(tl);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].stages.at(StageKind::kDeliverLoopback), 50);
  EXPECT_EQ(paths[0].stages.at(StageKind::kUnattributed), 200);
  EXPECT_EQ(paths[0].stages.total_us(), paths[0].end_to_end_us);
}

TEST(DecomposeTest, CustomSplitterKeepsReconciliation) {
  std::vector<HopRecord> tl = {
      Hop(3, 0, HopKind::kPublish, "producer", 0),
      Hop(3, 0, HopKind::kWireSend, "daemon@0", 10),
      Hop(3, 0, HopKind::kDispatch, "daemon@1", 110),
      Hop(3, 0, HopKind::kDeliver, "consumer", 120),
  };
  WireSplitFn split = [](const HopRecord& ws, const HopRecord& disp, StageBreakdown* out) {
    int64_t span = disp.at_us - ws.at_us;
    (*out)[StageKind::kDaemonQueue] += 30;
    (*out)[StageKind::kRetransmitRepair] += 20;
    (*out)[StageKind::kMediumTransit] += span - 50;
  };
  auto paths = DecomposeTimeline(tl, split);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].stages.at(StageKind::kDaemonQueue), 30);
  EXPECT_EQ(paths[0].stages.at(StageKind::kRetransmitRepair), 20);
  EXPECT_EQ(paths[0].stages.at(StageKind::kMediumTransit), 50);
  EXPECT_EQ(paths[0].stages.total_us(), paths[0].end_to_end_us);
}

TEST(StageAccumulatorTest, TotalsAndShareTrackAddedPaths) {
  telemetry::MetricsRegistry registry;
  StageAccumulator acc(&registry);
  EXPECT_EQ(acc.paths(), 0u);
  EXPECT_EQ(acc.UnattributedShare(), 0.0);

  PathProfile a;
  a.end_to_end_us = 100;
  a.stages[StageKind::kMediumTransit] = 90;
  a.stages[StageKind::kUnattributed] = 10;
  PathProfile b;
  b.end_to_end_us = 300;
  b.stages[StageKind::kMediumTransit] = 300;
  acc.Add(a);
  acc.Add(b);
  EXPECT_EQ(acc.paths(), 2u);
  EXPECT_EQ(acc.total_us(StageKind::kMediumTransit), 390);
  EXPECT_EQ(acc.end_to_end_total_us(), 400);
  EXPECT_DOUBLE_EQ(acc.UnattributedShare(), 10.0 / 400.0);
#if IBUS_TELEMETRY
  EXPECT_EQ(acc.histogram(StageKind::kMediumTransit)->count(), 2u);
  EXPECT_EQ(acc.histogram(StageKind::kDaemonQueue)->count(), 0u);
#endif
}

TEST(PeekTraceContextTest, ReadsHeaderAndSurvivesPayloadTruncation) {
  Message m;
  m.subject = "orders.new";
  m.sender = "producer";
  m.trace_id = 0xBEEF;
  m.trace_hop = 2;
  m.payload = ToBytes(std::string(4096, 'x'));
  Bytes full = m.Marshal();

  TraceContext ctx = PeekTraceContext(full);
  ASSERT_TRUE(ctx.ok);
  EXPECT_EQ(ctx.trace_id, 0xBEEFu);
  EXPECT_EQ(ctx.trace_hop, 2);

  // A frag-0 chunk carries only a prefix of the marshalled message; the header
  // still parses because every header field precedes the payload bytes.
  Bytes prefix(full.begin(), full.begin() + 256);
  TraceContext chunk_ctx = PeekTraceContext(prefix);
  ASSERT_TRUE(chunk_ctx.ok);
  EXPECT_EQ(chunk_ctx.trace_id, 0xBEEFu);

  Bytes too_short(full.begin(), full.begin() + 8);
  EXPECT_FALSE(PeekTraceContext(too_short).ok);
}

TEST(ParseDaemonNodeTest, AcceptsDaemonNamesRejectsOthers) {
  HostId h = 0;
  EXPECT_TRUE(ParseDaemonNode("daemon@7", &h));
  EXPECT_EQ(h, 7u);
  EXPECT_TRUE(ParseDaemonNode("daemon@0", &h));
  EXPECT_EQ(h, 0u);
  EXPECT_FALSE(ParseDaemonNode("consumer", &h));
  EXPECT_FALSE(ParseDaemonNode("daemon@", &h));
  EXPECT_FALSE(ParseDaemonNode("daemon@7x", &h));
  EXPECT_FALSE(ParseDaemonNode("_router:A", &h));
}

TEST(EventCoreProfilerTest, CountsKindsAndRates) {
  EventCoreProfiler prof;
  EXPECT_EQ(prof.total_events(), 0u);
  prof.OnEventDispatched("net.datagram_deliver", 1000);
  prof.OnEventDispatched("net.datagram_deliver", 2000);
  prof.OnEventDispatched("proto.heartbeat", 2000000);
  EXPECT_EQ(prof.total_events(), 3u);
  EXPECT_EQ(prof.first_at_us(), 1000);
  EXPECT_EQ(prof.last_at_us(), 2000000);
  EXPECT_EQ(prof.counts().at("net.datagram_deliver"), 2u);
  EXPECT_GT(prof.RatePerSec("net.datagram_deliver"), 0.0);
  EXPECT_EQ(prof.RatePerSec("unknown.kind"), 0.0);
  std::string json = prof.RenderJson();
  EXPECT_NE(json.find("\"total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"proto.heartbeat\""), std::string::npos);
  EXPECT_NE(prof.RenderText().find("net.datagram_deliver"), std::string::npos);
}

TEST(ProfilerRenderTest, EmptyProfileStillRendersValidReport) {
  CriticalPathProfiler prof;
  EXPECT_TRUE(prof.Reconciled());
  std::string json = prof.RenderJson({{"extra", "{\"k\":1}"}});
  EXPECT_NE(json.find("\"schema\":\"BUSPROF_1\""), std::string::npos);
  EXPECT_NE(json.find("\"path_count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"extra\":{\"k\":1}"), std::string::npos);
  EXPECT_TRUE(prof.RenderCollapsed().empty());
  EXPECT_EQ(prof.Hash(), prof.Hash());
}

#if IBUS_TELEMETRY
// End-to-end: the canonical profiled WAN scenario must produce reconciled,
// low-residue, replay-stable profiles.
TEST(ProfiledScenarioTest, StageSumsReconcileExactlyPerPath) {
  ProfiledScenario run = RunProfiledWanScenario(42);
  ASSERT_FALSE(run.trace.empty());
  ASSERT_TRUE(run.trace.front().rfind("error:", 0) != 0) << run.trace.front();
  ASSERT_GT(run.paths.size(), 0u);
  EXPECT_TRUE(run.reconciled);
  for (const PathProfile& p : run.paths) {
    EXPECT_EQ(p.stages.total_us(), p.end_to_end_us)
        << "trace " << p.trace_id << " dest " << p.dest;
    EXPECT_GE(p.end_to_end_us, 0);
  }
  // Acceptance bar: the unattributed residue stays under 1% on stock scenarios.
  EXPECT_LT(run.unattributed_share, 0.01);
  EXPECT_GT(run.frames_captured, 0u);
}

TEST(ProfiledScenarioTest, ReportsAreBitIdenticalAcrossReplays) {
  ProfiledScenario a = RunProfiledWanScenario(42);
  ProfiledScenario b = RunProfiledWanScenario(42);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.collapsed, b.collapsed);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.trace, b.trace);

  ProfiledScenario c = RunProfiledWanScenario(43);
  EXPECT_NE(a.hash, c.hash) << "profile is not sensitive to the replay seed";
}

TEST(ProfiledScenarioTest, JsonCarriesQueueAndEventCoreSections) {
  ProfiledScenario run = RunProfiledWanScenario(42);
  EXPECT_NE(run.json.find("\"queues\""), std::string::npos);
  EXPECT_NE(run.json.find("\"event_core\""), std::string::npos);
  EXPECT_NE(run.json.find("proto.receiver.ready_depth.hwm"), std::string::npos);
  EXPECT_NE(run.json.find("router.link_backlog_us.hwm"), std::string::npos);
  EXPECT_NE(run.json.find("\"reconciled\":true"), std::string::npos);
}
#endif  // IBUS_TELEMETRY

}  // namespace
}  // namespace ibus::prof
