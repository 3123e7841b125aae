// The health plane end to end (requires IB_TELEMETRY=ON): HealthEvent wire format,
// the HealthEvaluator's hysteretic rules driven through a live simulated bus, and the
// busmon console tracking raise/clear transitions off "_ibus.health.>". The
// loss-driven SLOW_CONSUMER path is exercised in sim_replay_check scenario 5.
#include <gtest/gtest.h>

#include "src/services/health_monitor.h"
#include "src/telemetry/busmon.h"
#include "src/telemetry/health.h"
#include "tests/bus_fixture.h"

namespace ibus {
namespace {

using telemetry::HealthEvent;
using telemetry::HealthEventKind;
using telemetry::HealthSeverity;

// --- HealthEvent wire format -------------------------------------------------------

TEST(HealthEventTest, RoundTrips) {
  HealthEvent e;
  e.kind = HealthEventKind::kSlowConsumer;
  e.severity = HealthSeverity::kCritical;
  e.node = "host2";
  e.subject = "market.equity.gmc";
  e.value = 12;
  e.threshold = 3;
  e.at_us = 4500000;

  auto back = HealthEvent::Unmarshal(e.Marshal());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, HealthEventKind::kSlowConsumer);
  EXPECT_EQ(back->severity, HealthSeverity::kCritical);
  EXPECT_EQ(back->node, "host2");
  EXPECT_EQ(back->subject, "market.equity.gmc");
  EXPECT_EQ(back->value, 12);
  EXPECT_EQ(back->threshold, 3);
  EXPECT_EQ(back->at_us, 4500000);
}

TEST(HealthEventTest, RejectsUnknownVersionWithTypedError) {
  HealthEvent e;
  e.kind = HealthEventKind::kRetransmitStorm;
  e.node = "n";
  Bytes b = e.Marshal();
  ASSERT_FALSE(b.empty());
  b[0] = 42;
  auto back = HealthEvent::Unmarshal(b);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kUnimplemented);
}

TEST(HealthEventTest, RejectsBadEnumAndTruncation) {
  HealthEvent e;
  e.kind = HealthEventKind::kPartitionSuspected;
  e.node = "n";
  Bytes b = e.Marshal();
  Bytes bad_kind = b;
  bad_kind[1] = 0;  // kind 0 is not a valid HealthEventKind
  auto r1 = HealthEvent::Unmarshal(bad_kind);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kDataLoss);

  Bytes truncated(b.begin(), b.begin() + 3);
  auto r2 = HealthEvent::Unmarshal(truncated);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDataLoss);
}

TEST(HealthEventTest, NamesAndSubjects) {
  EXPECT_EQ(HealthEventKindName(HealthEventKind::kSlowConsumer), "slow_consumer");
  EXPECT_EQ(HealthEventKindName(HealthEventKind::kPartitionSuspected),
            "partition_suspected");
  EXPECT_EQ(HealthSeverityName(HealthSeverity::kClear), "clear");
  EXPECT_EQ(HealthSeverityName(HealthSeverity::kCritical), "critical");
  EXPECT_EQ(telemetry::HealthSubject(HealthEventKind::kRetransmitStorm, "host7"),
            "_ibus.health.retransmit_storm.host7");  // buslint: allow(reserved-subject)
  const std::string text = HealthEvent{}.ToString();
  EXPECT_NE(text.find("value="), std::string::npos);
}

// --- HealthEvaluator ---------------------------------------------------------------

class HealthEvaluatorTest : public BusFixture {};

TEST_F(HealthEvaluatorTest, CreateRejectsBadConfig) {
  SetUpBus(1);
  auto ops = MakeClient(0, "ops");
  HealthConfig bad_interval;
  bad_interval.interval_us = 0;
  EXPECT_EQ(HealthEvaluator::Create(ops.get(), daemons_[0].get(), bad_interval)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  HealthConfig bad_hold;
  bad_hold.clear_hold_intervals = 0;
  EXPECT_EQ(
      HealthEvaluator::Create(ops.get(), daemons_[0].get(), bad_hold).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(HealthEvaluatorTest, ChurnAlertRaisesOnceClearsOnceAndReachesBusmon) {
  SetUpBus(1);
  auto ops = MakeClient(0, "ops");
  HealthConfig hc;
  hc.interval_us = 250 * kMillisecond;
  hc.churn_raise = 8;  // above the setup churn from busmon/evaluator subscriptions
  hc.churn_clear = 0;
  hc.clear_hold_intervals = 2;
  hc.critical_factor = 0;  // never escalate in this test
  auto ev = HealthEvaluator::Create(ops.get(), daemons_[0].get(), hc);
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();

  auto mon_bus = MakeClient(0, "busmon");
  auto mon = telemetry::BusMon::Create(mon_bus.get());
  ASSERT_TRUE(mon.ok()) << mon.status().ToString();

  // Let the setup-time subscription churn wash through a few intervals.
  Settle(1 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 0u);

  // The churn burst: 5 subscribe/unsubscribe pairs inside one evaluation interval.
  auto churner = MakeClient(0, "churner");
  for (int i = 0; i < 5; ++i) {
    auto sub = churner->Subscribe("flap.s" + std::to_string(i), [](const Message&) {});
    ASSERT_TRUE(sub.ok());
    sim_.RunFor(5 * kMillisecond);
    ASSERT_TRUE(churner->Unsubscribe(*sub).ok());
    sim_.RunFor(5 * kMillisecond);
  }
  Settle(500 * kMillisecond);
  ASSERT_EQ((*ev)->events_published(), 1u);
  EXPECT_EQ((*ev)->events()[0].kind, HealthEventKind::kSubscriptionChurn);
  EXPECT_EQ((*ev)->events()[0].severity, HealthSeverity::kWarning);
  EXPECT_EQ((*ev)->active_alerts(), 1u);
  EXPECT_EQ((*mon)->active_alert_count(), 1u);

  // Quiet again: exactly one clear after clear_hold_intervals clean intervals.
  Settle(2 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 2u);
  EXPECT_EQ((*ev)->events()[1].kind, HealthEventKind::kSubscriptionChurn);
  EXPECT_EQ((*ev)->events()[1].severity, HealthSeverity::kClear);
  EXPECT_EQ((*ev)->active_alerts(), 0u);
  EXPECT_EQ((*mon)->active_alert_count(), 0u);
  EXPECT_EQ((*mon)->alert_history().size(), 2u);

  // The transitions rode the bus as typed events on the reserved namespace.
  const std::string frame = (*mon)->RenderSnapshot();
  EXPECT_NE(frame.find("alert transitions seen: 2"), std::string::npos);

  // And the daemon's flight recorder kept the episode for the post-mortem.
  EXPECT_NE(daemons_[0]->flight_recorder()->DumpJsonl().find("subscription_churn"),
            std::string::npos);
}

TEST_F(HealthEvaluatorTest, ChurnBurstEscalatesToCritical) {
  SetUpBus(1);
  auto ops = MakeClient(0, "ops");
  HealthConfig hc;
  hc.interval_us = 250 * kMillisecond;
  hc.churn_raise = 4;
  hc.churn_clear = 0;
  hc.critical_factor = 2;  // 8+ churn ops in one interval goes critical
  auto ev = HealthEvaluator::Create(ops.get(), daemons_[0].get(), hc);
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  Settle(1 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 0u);

  auto churner = MakeClient(0, "churner");
  for (int i = 0; i < 6; ++i) {
    auto sub = churner->Subscribe("flap.s" + std::to_string(i), [](const Message&) {});
    ASSERT_TRUE(sub.ok());
    sim_.RunFor(2 * kMillisecond);
    ASSERT_TRUE(churner->Unsubscribe(*sub).ok());
    sim_.RunFor(2 * kMillisecond);
  }
  Settle(500 * kMillisecond);
  ASSERT_GE((*ev)->events_published(), 1u);
  EXPECT_EQ((*ev)->events()[0].severity, HealthSeverity::kCritical);
}

TEST_F(HealthEvaluatorTest, PartitionSuspectedWhenPeerStatsGoSilent) {
  SetUpBus(2);
  auto ops0 = MakeClient(0, "ops0");
  auto ops1 = MakeClient(1, "ops1");

  HealthConfig hc;
  hc.interval_us = 250 * kMillisecond;
  hc.peer_silence_us = 2 * kSecond;
  hc.clear_hold_intervals = 2;
  auto ev = HealthEvaluator::Create(ops0.get(), daemons_[0].get(), hc);
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();

  auto reporter = StartStatReporter(ops1.get(), 1, 500 * kMillisecond);
  ASSERT_NE(reporter, nullptr);

  Settle(2 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 0u);

  // host1's stats feed dies; after peer_silence_us host0 suspects a partition.
  reporter.reset();
  Settle(3 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 1u);
  const HealthEvent& raised = (*ev)->events()[0];
  EXPECT_EQ(raised.kind, HealthEventKind::kPartitionSuspected);
  EXPECT_EQ(raised.subject, "host1");
  EXPECT_NE(raised.severity, HealthSeverity::kClear);
  EXPECT_EQ((*ev)->active_alerts(), 1u);

  // The feed comes back; the alert retires after the hysteresis hold.
  reporter = StartStatReporter(ops1.get(), 1, 500 * kMillisecond);
  ASSERT_NE(reporter, nullptr);
  Settle(3 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 2u);
  EXPECT_EQ((*ev)->events()[1].kind, HealthEventKind::kPartitionSuspected);
  EXPECT_EQ((*ev)->events()[1].severity, HealthSeverity::kClear);
  EXPECT_EQ((*ev)->active_alerts(), 0u);
}

// The partition rule names a peer by its busstat node, and never suspects the
// evaluating host's own feed.
TEST_F(HealthEvaluatorTest, PartitionAlertNamesPeerNodeAndIgnoresOwnFeed) {
  SetUpBus(2);
  auto ops0 = MakeClient(0, "ops0");
  auto ops1 = MakeClient(1, "ops1");

  HealthConfig hc;
  hc.interval_us = 250 * kMillisecond;
  hc.peer_silence_us = 2 * kSecond;
  auto ev = HealthEvaluator::Create(ops0.get(), daemons_[0].get(), hc);
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  auto own = StartStatReporter(ops0.get(), 0, 500 * kMillisecond);
  auto peer = StartStatReporter(ops1.get(), 1, 500 * kMillisecond);
  ASSERT_NE(own, nullptr);
  ASSERT_NE(peer, nullptr);
  Settle(2 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 0u);

  // host1's feed dies: exactly one alert, naming the node, not the feed suffix.
  peer.reset();
  Settle(3 * kSecond);
  ASSERT_EQ((*ev)->events_published(), 1u);
  EXPECT_EQ((*ev)->events()[0].kind, HealthEventKind::kPartitionSuspected);
  EXPECT_EQ((*ev)->events()[0].subject, "host1");

  // host0's own feed dies: the evaluating host is not its own peer.
  own.reset();
  Settle(3 * kSecond);
  EXPECT_EQ((*ev)->events_published(), 1u);
  EXPECT_EQ((*ev)->active_alerts(), 1u);
}

}  // namespace
}  // namespace ibus
