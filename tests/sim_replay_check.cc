// sim_replay_check: enforces the simulator's determinism contract. Each scenario is
// run twice from identical seeds; the ordered trace of every observable event
// (deliveries with simulated timestamps, final protocol stats) is hashed, and any
// divergence fails the test. This is what makes the appendix-figure reproductions
// (Fig 5-8) and the fault-injection tests trustworthy: if a nondeterminism primitive
// sneaks into src/sim, src/bus, or src/router (see tools/buslint), the traces drift
// and this gate trips.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/bus/certified.h"
#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/capture/bandwidth.h"
#include "src/capture/capture.h"
#include "src/capture/reassembly.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/journal/journal.h"
#include "src/prof/stages.h"
#include "src/router/router.h"
#include "src/scenario/busstat_demo.h"
#include "src/scenario/capture_demo.h"
#include "src/scenario/journal_demo.h"
#include "src/scenario/prof_demo.h"
#include "src/scenario/testbed.h"
#include "src/services/health_monitor.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/stable_store.h"
#include "src/telemetry/busmon.h"
#include "src/telemetry/busstat.h"
#include "src/telemetry/health.h"

namespace ibus {
namespace {

using scenario::DeliveryLine;

// FNV-1a over the concatenated trace records (order-sensitive by construction).
uint64_t HashTrace(const std::vector<std::string>& events) {
  uint64_t h = kFnvOffset;
  for (const std::string& e : events) {
    h = Fnv1a("\n", Fnv1a(e, h));
  }
  return h;
}

std::unique_ptr<BusClient> MustConnect(Network* net, HostId host, const std::string& name) {
  auto c = BusClient::Connect(net, host, name);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return c.take();
}

// --- Scenario 1: LAN bus delivery under jitter/dup/loss faults ---------------------

std::vector<std::string> RunBusDeliveryScenario(uint64_t seed) {
  Simulator sim;
  Network net(&sim, seed);
  SegmentId seg = net.AddSegment();
  std::vector<HostId> hosts;
  std::vector<std::unique_ptr<BusDaemon>> daemons;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(net.AddHost("host" + std::to_string(i), seg));
    auto d = BusDaemon::Start(&net, hosts.back(), BusConfig());
    EXPECT_TRUE(d.ok());
    daemons.push_back(d.take());
  }
  FaultPlan faults;
  faults.drop_prob = 0.02;
  faults.dup_prob = 0.01;
  faults.jitter_us = 200;
  net.SetFaultPlan(seg, faults);

  std::vector<std::string> trace;
  auto wide = MustConnect(&net, hosts[1], "wide");
  auto narrow = MustConnect(&net, hosts[2], "narrow");
  EXPECT_TRUE(wide->Subscribe("market.>", [&](const Message& m) {
                    trace.push_back(DeliveryLine(sim.Now(), "wide", m));
                  }).ok());
  EXPECT_TRUE(narrow->Subscribe("market.*.gmc", [&](const Message& m) {
                      trace.push_back(DeliveryLine(sim.Now(), "narrow", m));
                    }).ok());
  sim.RunFor(200 * kMillisecond);

  auto pub = MustConnect(&net, hosts[0], "pub");
  Rng workload(seed + 1);
  const char* kTickers[] = {"gmc", "ibm", "att"};
  const char* kCategories[] = {"equity", "bond"};
  for (int i = 0; i < 40; ++i) {
    std::string subject = std::string("market.") + kCategories[workload.NextBelow(2)] + "." +
                          kTickers[workload.NextBelow(3)];
    EXPECT_TRUE(pub->Publish(subject, ToBytes("msg" + std::to_string(i))).ok());
    sim.RunFor(workload.NextInRange(100, 3000));
  }
  sim.RunFor(2 * kSecond);
  trace.push_back("published=" + std::to_string(pub->stats().published) +
                  " wide_received=" + std::to_string(wide->stats().received) +
                  " narrow_received=" + std::to_string(narrow->stats().received));
  return trace;
}

// --- Scenario 2: two LANs joined by an information-router pair over the WAN --------

std::vector<std::string> RunRouterWanScenario(uint64_t seed) {
  auto bed = scenario::WanTestbed::Start(seed, BusConfig()).take();
  Simulator& sim = bed->sim();
  FaultPlan jitter;
  jitter.jitter_us = 150;
  bed->SetFaults(jitter);  // on before the handshake: the routers connect under jitter
  EXPECT_TRUE(bed->ConnectRouters().ok());
  sim.RunFor(200 * kMillisecond);

  std::vector<std::string> trace;
  auto sub = MustConnect(&bed->net(), bed->b1(), "consumer-b");
  EXPECT_TRUE(sub->Subscribe("news.>", [&](const Message& m) {
                   trace.push_back(DeliveryLine(sim.Now(), "consumer-b", m));
                 }).ok());
  sim.RunFor(500 * kMillisecond);  // subscription event + advert cross the WAN

  auto pub = MustConnect(&bed->net(), bed->a1(), "publisher-a");
  Rng workload(seed + 2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(pub->Publish(i % 3 == 0 ? "news.equity.gmc" : "news.bond.att",
                             ToBytes("story" + std::to_string(i)))
                    .ok());
    sim.RunFor(workload.NextInRange(500, 5000));
  }
  sim.RunFor(2 * kSecond);
  const RouterStats& sa = bed->router_a()->stats();
  const RouterStats& sb = bed->router_b()->stats();
  trace.push_back("routerA forwarded=" + std::to_string(sa.forwarded) +
                  " republished=" + std::to_string(sa.republished) +
                  " adverts=" + std::to_string(sa.adverts_sent));
  trace.push_back("routerB forwarded=" + std::to_string(sb.forwarded) +
                  " republished=" + std::to_string(sb.republished) +
                  " adverts=" + std::to_string(sb.adverts_sent));
  return trace;
}

// --- Scenario 3: certified (guaranteed) delivery over a lossy segment --------------

std::vector<std::string> RunCertifiedScenario(uint64_t seed) {
  Simulator sim;
  Network net(&sim, seed);
  SegmentId seg = net.AddSegment();
  std::vector<HostId> hosts;
  std::vector<std::unique_ptr<BusDaemon>> daemons;
  for (int i = 0; i < 2; ++i) {
    hosts.push_back(net.AddHost("host" + std::to_string(i), seg));
    auto d = BusDaemon::Start(&net, hosts.back(), BusConfig());
    EXPECT_TRUE(d.ok());
    daemons.push_back(d.take());
  }

  std::vector<std::string> trace;
  auto sub_client = MustConnect(&net, hosts[1], "consumer");
  auto sub = CertifiedSubscriber::Create(
      sub_client.get(), "orders.>", "consumer",
      [&](const Message& m) { trace.push_back(DeliveryLine(sim.Now(), "consumer", m)); });
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
  sim.RunFor(200 * kMillisecond);

  // Faults go up only after the control-plane handshake so every run starts aligned.
  FaultPlan faults;
  faults.drop_prob = 0.15;
  faults.jitter_us = 500;
  net.SetFaultPlan(seg, faults);

  auto pub_client = MustConnect(&net, hosts[0], "producer");
  MemoryStableStore store;
  journal::JournalConfig ledger_config;
  ledger_config.sim = &sim;  // write-through: legacy stable-write timing
  auto ledger = journal::Journal::Open(&store, ledger_config).take();
  auto pub = CertifiedPublisher::Create(pub_client.get(), ledger.get(), "orders-ledger");
  EXPECT_TRUE(pub.ok()) << pub.status().ToString();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*pub)->Publish("orders.new", ToBytes("order" + std::to_string(i))).ok());
    sim.RunFor(50 * kMillisecond);
  }
  sim.RunFor(5 * kSecond);
  trace.push_back("publisher published=" + std::to_string((*pub)->stats().published) +
                  " retransmits=" + std::to_string((*pub)->stats().retransmits) +
                  " retired=" + std::to_string((*pub)->stats().retired) +
                  " pending=" + std::to_string((*pub)->pending()));
  trace.push_back("subscriber delivered=" + std::to_string((*sub)->stats().delivered) +
                  " dup_dropped=" + std::to_string((*sub)->stats().duplicates_dropped) +
                  " acks=" + std::to_string((*sub)->stats().acks_sent));
  return trace;
}

// --- Scenario 5: the health plane under a loss episode ------------------------------
//
// A 3-host LAN with a deliberately tiny sender retain buffer rides through a burst of
// 30% loss: retransmits age out, receivers declare gaps, and every host's
// HealthEvaluator must raise (and later clear) alerts on "_ibus.health.>" — exactly
// once per episode, thanks to hysteresis. The trace captures the live alert feed, the
// per-daemon flight-recorder dump hashes, and the full busmon console frame, all of
// which must replay bit-identically.

#if IBUS_TELEMETRY
std::vector<std::string> RunHealthPlaneScenario(uint64_t seed) {
  Simulator sim;
  Network net(&sim, seed);
  SegmentId seg = net.AddSegment();
  BusConfig config;
  // A 2-deep retransmit buffer turns dropped retransmits into receiver gaps fast —
  // the raw material for slow-consumer alerts.
  config.reliable.retain_messages = 2;
  std::vector<HostId> hosts;
  std::vector<std::unique_ptr<BusDaemon>> daemons;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(net.AddHost("host" + std::to_string(i), seg));
    auto d = BusDaemon::Start(&net, hosts.back(), config);
    EXPECT_TRUE(d.ok());
    daemons.push_back(d.take());
  }

  // The observability plane: every host reports stats and evaluates health rules.
  HealthConfig hc;
  hc.retransmit_raise = 4;
  hc.clear_hold_intervals = 4;  // 1s of clean intervals before an alert retires
  std::vector<std::unique_ptr<BusClient>> ops;
  std::vector<std::unique_ptr<telemetry::BusStatReporter>> reporters;
  std::vector<std::unique_ptr<HealthEvaluator>> evaluators;
  for (int i = 0; i < 3; ++i) {
    ops.push_back(MustConnect(&net, hosts[i], "ops" + std::to_string(i)));
    telemetry::BusStatReporterOptions ro;
    ro.interval_us = 500 * kMillisecond;
    auto rep = telemetry::BusStatReporter::Create(
        ops.back().get(), "host" + std::to_string(i), daemons[i]->metrics(),
        &daemons[i]->subject_sketch(), &daemons[i]->peer_sketch(), ro);
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    reporters.push_back(rep.take());
    auto ev = HealthEvaluator::Create(ops.back().get(), daemons[i].get(), hc);
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    evaluators.push_back(ev.take());
  }

  // The operator console, co-hosted with host0; it also borrows the consumer host's
  // flight recorder for the post-mortem excerpt section.
  auto mon_bus = MustConnect(&net, hosts[0], "busmon");
  auto mon = telemetry::BusMon::Create(mon_bus.get());
  EXPECT_TRUE(mon.ok()) << mon.status().ToString();
  (*mon)->AttachRecorder(daemons[2]->flight_recorder());

  std::vector<std::string> trace;
  EXPECT_TRUE(mon_bus->Subscribe(telemetry::kHealthPattern, [&](const Message& m) {
                     auto e = telemetry::HealthEvent::Unmarshal(m.payload);
                     if (e.ok()) {
                       trace.push_back("t=" + std::to_string(sim.Now()) + " alert " +
                                       e->ToString());
                     }
                   }).ok());

  auto consumer = MustConnect(&net, hosts[2], "consumer");
  uint64_t received = 0;
  EXPECT_TRUE(consumer->Subscribe("market.>", [&](const Message&) { received++; }).ok());
  sim.RunFor(1 * kSecond);  // control plane settles, first stats snapshots land

  auto pub = MustConnect(&net, hosts[0], "producer");
  Rng workload(seed + 3);
  // Clean warm-up.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pub->Publish("market.equity.gmc", ToBytes("tick" + std::to_string(i))).ok());
    sim.RunFor(workload.NextInRange(5000, 15000));
  }
  // The loss episode: heavy drop while publishing fast enough that dropped
  // retransmits age out of the 2-deep retain buffer.
  FaultPlan faults;
  faults.drop_prob = 0.30;
  faults.jitter_us = 300;
  net.SetFaultPlan(seg, faults);
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(pub->Publish("market.equity.gmc", ToBytes("lossy" + std::to_string(i))).ok());
    sim.RunFor(workload.NextInRange(5000, 10000));
  }
  // Heal and keep publishing cleanly so gap/retransmit rates fall back to zero.
  net.SetFaultPlan(seg, FaultPlan());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pub->Publish("market.equity.gmc", ToBytes("calm" + std::to_string(i))).ok());
    sim.RunFor(100 * kMillisecond);
  }
  sim.RunFor(5 * kSecond);

  trace.push_back("consumer received=" + std::to_string(received));
  for (int i = 0; i < 3; ++i) {
    // Per-kind transition counts: the hysteresis contract is one raise + one clear
    // per episode, never a flap.
    size_t slow_raises = 0, slow_clears = 0, storm_raises = 0, storm_clears = 0;
    for (const telemetry::HealthEvent& e : evaluators[i]->events()) {
      const bool clear = e.severity == telemetry::HealthSeverity::kClear;
      if (e.kind == telemetry::HealthEventKind::kSlowConsumer) {
        (clear ? slow_clears : slow_raises)++;
      } else if (e.kind == telemetry::HealthEventKind::kRetransmitStorm) {
        (clear ? storm_clears : storm_raises)++;
      }
    }
    trace.push_back("health host" + std::to_string(i) + " slow_raises=" +
                    std::to_string(slow_raises) + " slow_clears=" + std::to_string(slow_clears) +
                    " storm_raises=" + std::to_string(storm_raises) + " storm_clears=" +
                    std::to_string(storm_clears) + " active_end=" +
                    std::to_string(evaluators[i]->active_alerts()));
    trace.push_back("recorder host" + std::to_string(i) + " total=" +
                    std::to_string(daemons[i]->flight_recorder()->total_recorded()) +
                    " dump_hash=" + std::to_string(daemons[i]->flight_recorder()->DumpHash()));
  }
  trace.push_back((*mon)->RenderSnapshot());
  trace.push_back("busmon hash=" + std::to_string((*mon)->SnapshotHash()) + " transitions=" +
                  std::to_string((*mon)->alert_history().size()) + " active=" +
                  std::to_string((*mon)->active_alert_count()));
  return trace;
}
#endif  // IBUS_TELEMETRY

// --- Scenario 6: wire capture of the certified-WAN run -----------------------------
//
// The capture plane must itself be deterministic: identical seeds yield bit-identical
// capture hashes, fault fates included, and the analyzers (reassembler, bandwidth
// accountant) render byte-identical reports. The scenario trace folds in the capture
// hash plus the analyzer summaries so any drift in tap emission order, fate
// classification, or report formatting trips the gate.

std::vector<std::string> RunCaptureScenario(uint64_t seed) {
  capture::CaptureBuffer buf;
  std::vector<std::string> trace = scenario::RunCertifiedWanCaptureScenario(seed, &buf);
  trace.push_back("capture records=" + std::to_string(buf.frames().size()) +
                  " seen=" + std::to_string(buf.frames_seen()) +
                  " hash=" + std::to_string(buf.Hash()));
  capture::ReassemblyReport r = capture::Reassemble(buf.frames());
  trace.push_back(capture::RenderReassemblyText(r));
  trace.push_back(capture::RenderBandwidthText(capture::AccountBandwidth(buf.frames(), r)));
  return trace;
}

// --- Scenarios 7-9: the journal crash/recovery family (src/scenario/journal_demo.cc)
//
// Each scenario kills components mid-flight (daemon, routers, publisher), recovers
// from the surviving journal device, and folds deliveries, recovery health events,
// final stats, and the journal verify report into the replay-hashed trace.

std::vector<std::string> RunJournalDaemonCrashScenario(uint64_t seed) {
  MemoryStableStore device;
  return scenario::RunDaemonCrashScenario(seed, &device);
}

std::vector<std::string> RunJournalRouterCrashScenario(uint64_t seed) {
  MemoryStableStore device;
  return scenario::RunRouterCrashScenario(seed, &device);
}

std::vector<std::string> RunJournalTailTruncationScenario(uint64_t seed) {
  return scenario::RunTailTruncationScenario(seed);
}

// --- Scenario 10: busprof critical-path profiles (src/scenario/prof_demo.cc) ----------
//
// The profiler joins three deterministic planes — hop timelines, capture fates, and
// queue gauges — so its JSON and collapsed-stack reports must be bit-identical per
// seed. The trace folds in the complete reports (not just their hash) so any drift
// in stage attribution, rendering, or gauge values trips the gate with a diff.
// The trace also carries the consumer deliveries, every hop timeline, and the
// collector's records/all_hash line, so this is also the traced certified-WAN
// replay gate.

#if IBUS_TELEMETRY
std::vector<std::string> RunBusprofScenario(uint64_t seed) {
  scenario::ProfiledScenario run = scenario::RunProfiledWanScenario(seed);
  std::vector<std::string> trace = run.trace;
  trace.push_back("busprof json=" + run.json);
  trace.push_back("busprof collapsed=" + run.collapsed);
  return trace;
}
#endif  // IBUS_TELEMETRY

// --- Scenario 11: the busstat stats plane (src/scenario/busstat_demo.cc) -----------
//
// The scale-ready telemetry plane joins sketches, delta-encoded time series, and
// publisher-side trace sampling — all of which must replay bit-identically: the
// trace folds in the full merged JSON and console table (not just their hash) so
// any drift in sketch tie-breaking, delta encoding, or sampling decisions trips
// the gate with a readable diff. Runs with sampling ON (the default 1/64): the
// determinism contract must hold under sampling, not just with tracing saturated.

std::vector<std::string> RunBusstatScenario(uint64_t seed) {
  scenario::BusStatScenario run = scenario::RunBusstatWanScenario(seed);
  std::vector<std::string> trace = run.trace;
  trace.push_back("busstat json=" + run.json);
  trace.push_back("busstat table=" + run.table);
  return trace;
}

// --- The replay gate ---------------------------------------------------------------

using ScenarioFn = std::vector<std::string> (*)(uint64_t seed);

void CheckReplay(const char* name, ScenarioFn fn, uint64_t seed) {
  std::vector<std::string> first = fn(seed);
  std::vector<std::string> second = fn(seed);
  ASSERT_GT(first.size(), 1u) << name << ": scenario produced no deliveries";
  EXPECT_EQ(HashTrace(first), HashTrace(second))
      << name << ": divergent replay with identical seed " << seed;
  EXPECT_EQ(first, second) << name << ": trace contents diverged";
  // A different seed must actually steer the run (guards against hashing nothing).
  std::vector<std::string> other = fn(seed + 17);
  EXPECT_NE(HashTrace(first), HashTrace(other))
      << name << ": trace is seed-insensitive; the fault RNG is not being exercised";
}

TEST(SimReplayCheck, BusDeliveryIsDeterministic) {
  CheckReplay("bus_delivery", &RunBusDeliveryScenario, 42);
  CheckReplay("bus_delivery", &RunBusDeliveryScenario, 1993);
}

TEST(SimReplayCheck, RouterWanIsDeterministic) {
  CheckReplay("router_wan", &RunRouterWanScenario, 42);
  CheckReplay("router_wan", &RunRouterWanScenario, 7);
}

TEST(SimReplayCheck, CertifiedDeliveryIsDeterministic) {
  CheckReplay("certified_delivery", &RunCertifiedScenario, 42);
  CheckReplay("certified_delivery", &RunCertifiedScenario, 2024);
}

#if IBUS_TELEMETRY
TEST(SimReplayCheck, HealthPlaneIsDeterministic) {
  CheckReplay("health_plane", &RunHealthPlaneScenario, 42);
  CheckReplay("health_plane", &RunHealthPlaneScenario, 1993);
}

// The hysteresis contract under a single loss episode: the consumer host raises
// SLOW_CONSUMER exactly once and clears it exactly once — no flapping while the gap
// rate oscillates during the episode — and the publisher host sees the retransmit
// storm. By the end every alert has retired.
TEST(SimReplayCheck, HealthAlertsRaiseOnceAndClearOncePerEpisode) {
  auto trace = RunHealthPlaneScenario(42);
  bool saw_consumer_line = false, saw_publisher_line = false;
  for (const std::string& e : trace) {
    if (e.rfind("health host2 ", 0) == 0) {
      saw_consumer_line = true;
      EXPECT_NE(e.find("slow_raises=1 slow_clears=1"), std::string::npos) << e;
      EXPECT_NE(e.find("active_end=0"), std::string::npos) << e;
    }
    if (e.rfind("health host0 ", 0) == 0) {
      saw_publisher_line = true;
      EXPECT_EQ(e.find("storm_raises=0"), std::string::npos) << e;
      EXPECT_NE(e.find("active_end=0"), std::string::npos) << e;
    }
  }
  EXPECT_TRUE(saw_consumer_line);
  EXPECT_TRUE(saw_publisher_line);
  // The live "_ibus.health.>" feed must actually have carried the transitions.
  size_t live_alerts = 0;
  for (const std::string& e : trace) {
    if (e.find(" alert t=") != std::string::npos) {
      ++live_alerts;
    }
  }
  EXPECT_GE(live_alerts, 4u);  // >= raise+clear on both the consumer and publisher
}
#endif

TEST(SimReplayCheck, WireCaptureIsDeterministic) {
  CheckReplay("wire_capture", &RunCaptureScenario, 42);
  CheckReplay("wire_capture", &RunCaptureScenario, 1993);
}

// The lossy certified-WAN capture must show the NAK protocol on the wire: dropped
// frames, retransmits attributed to the specific drops they repaired, and a nonzero
// retransmit share in the bandwidth breakdown.
TEST(SimReplayCheck, CaptureShowsRetransmitShareAttributedToDrops) {
  capture::CaptureBuffer buf;
  auto trace = scenario::RunCertifiedWanCaptureScenario(42, &buf);
  ASSERT_FALSE(trace.empty());
  ASSERT_NE(trace.front().rfind("error:", 0), 0u) << trace.front();

  capture::ReassemblyReport r = capture::Reassemble(buf.frames());
  EXPECT_GT(r.total_drops, 0u);
  ASSERT_GT(r.retransmitted_seqs, 0u);
  bool attributed = false;
  for (const auto& [key, tl] : r.seqs) {
    attributed = attributed || (tl.retransmitted && !tl.caused_by_drops.empty());
  }
  EXPECT_TRUE(attributed) << "no retransmit traced back to a dropped frame";

  capture::BandwidthReport bw = capture::AccountBandwidth(buf.frames(), r);
  EXPECT_GT(bw.total.retransmit.us, 0u);
  EXPECT_GT(bw.total.goodput.bytes, 0u);
}

#if IBUS_TELEMETRY
TEST(SimReplayCheck, BusprofProfileIsDeterministic) {
  CheckReplay("busprof_profile", &RunBusprofScenario, 42);
  CheckReplay("busprof_profile", &RunBusprofScenario, 1993);
}

// The acceptance invariant: for every traced delivery the integer-µs stage
// decomposition sums exactly to the measured end-to-end latency, and the explicit
// unattributed residue stays under 1% on the stock scenario.
TEST(SimReplayCheck, BusprofStagesReconcileWithEndToEndLatency) {
  scenario::ProfiledScenario run = scenario::RunProfiledWanScenario(42);
  ASSERT_GT(run.paths.size(), 0u);
  for (const prof::PathProfile& p : run.paths) {
    EXPECT_EQ(p.stages.total_us(), p.end_to_end_us)
        << "trace " << p.trace_id << " -> " << p.dest << " (hop " << int(p.hop) << ")";
  }
  EXPECT_TRUE(run.reconciled);
  EXPECT_LT(run.unattributed_share, 0.01);
}
#endif  // IBUS_TELEMETRY

TEST(SimReplayCheck, JournalDaemonCrashIsDeterministic) {
  CheckReplay("journal_daemon_crash", &RunJournalDaemonCrashScenario, 42);
  CheckReplay("journal_daemon_crash", &RunJournalDaemonCrashScenario, 1993);
}

TEST(SimReplayCheck, JournalRouterCrashIsDeterministic) {
  CheckReplay("journal_router_crash", &RunJournalRouterCrashScenario, 42);
  CheckReplay("journal_router_crash", &RunJournalRouterCrashScenario, 1993);
}

TEST(SimReplayCheck, JournalTailTruncationIsDeterministic) {
  CheckReplay("journal_tail_truncation", &RunJournalTailTruncationScenario, 42);
  CheckReplay("journal_tail_truncation", &RunJournalTailTruncationScenario, 1993);
}

// The daemon-crash recovery must re-arm the ledger, announce itself on the health
// plane, deliver every certified message exactly once to the surviving consumer
// (dedup absorbs the post-recovery resends), and leave a verifiably clean journal.
TEST(SimReplayCheck, JournalDaemonCrashRecoversExactlyOnce) {
  MemoryStableStore device;
  auto trace = scenario::RunDaemonCrashScenario(42, &device);
  ASSERT_FALSE(trace.empty());
  ASSERT_NE(trace.front().rfind("error:", 0), 0u) << trace.front();
  for (int i = 0; i < 8; ++i) {
    const std::string payload = "payload=order" + std::to_string(i);
    size_t deliveries = 0;
    for (const std::string& e : trace) {
      if (e.find(" consumer subj=") != std::string::npos &&
          e.find(payload) != std::string::npos) {
        ++deliveries;
      }
    }
    EXPECT_EQ(deliveries, 1u) << "order" << i;
  }
  bool saw_reopen = false, saw_recovery_event = false, saw_clean_verify = false;
  for (const std::string& e : trace) {
    if (e.rfind("reopen recovered_records=", 0) == 0) {
      saw_reopen = true;
      EXPECT_EQ(e.find("recovered_records=0"), std::string::npos) << e;
    }
    if (e.find(" health ") != std::string::npos &&
        e.find("recovery") != std::string::npos) {
      saw_recovery_event = true;
    }
    if (e.rfind("journal verify:", 0) == 0) {
      saw_clean_verify = e.find(" clean") != std::string::npos;
      EXPECT_NE(e.find(" clean"), std::string::npos) << e;
    }
  }
  EXPECT_TRUE(saw_reopen);
  EXPECT_TRUE(saw_recovery_event);
  EXPECT_TRUE(saw_clean_verify);
}

// The WAN outage plus publisher crash must still end with every certified message
// across the routers exactly once: queued traffic rides the recovered retransmits.
TEST(SimReplayCheck, JournalRouterCrashDrainsQueuedTraffic) {
  MemoryStableStore device;
  auto trace = scenario::RunRouterCrashScenario(42, &device);
  ASSERT_FALSE(trace.empty());
  ASSERT_NE(trace.front().rfind("error:", 0), 0u) << trace.front();
  for (int i = 0; i < 8; ++i) {
    const std::string payload = "payload=order" + std::to_string(i);
    size_t deliveries = 0;
    for (const std::string& e : trace) {
      if (e.find(" consumer subj=") != std::string::npos &&
          e.find(payload) != std::string::npos) {
        ++deliveries;
      }
    }
    EXPECT_EQ(deliveries, 1u) << "order" << i;
  }
  bool saw_pending_zero = false;
  for (const std::string& e : trace) {
    if (e.rfind("publisher published=", 0) == 0) {
      saw_pending_zero = e.find(" pending=0") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_pending_zero) << "certified backlog did not drain after the outage";
}

// Every fuzzed cut must be detected (exactly one torn block), repaired, and leave a
// clean device; the final cut recovers end to end and new publishes still flow.
TEST(SimReplayCheck, JournalTailTruncationStopsAtLastValidLsn) {
  auto trace = scenario::RunTailTruncationScenario(42);
  ASSERT_FALSE(trace.empty());
  ASSERT_NE(trace.front().rfind("error:", 0), 0u) << trace.front();
  size_t fuzz_lines = 0;
  for (const std::string& e : trace) {
    if (e.rfind("fuzz k=", 0) == 0 && e.find("torn_tail=") != std::string::npos) {
      ++fuzz_lines;
      EXPECT_NE(e.find("torn_tail=1"), std::string::npos) << e;
    }
    if (e.rfind("fuzz k=", 0) == 0 && e.find("journal verify:") != std::string::npos) {
      EXPECT_NE(e.find(" clean"), std::string::npos) << e;
    }
  }
  EXPECT_EQ(fuzz_lines, 3u);
  // The post-recovery publish lands despite the truncated ledger tail.
  size_t order8 = 0;
  for (const std::string& e : trace) {
    if (e.find(" consumer2 subj=") != std::string::npos &&
        e.find("payload=order8") != std::string::npos) {
      ++order8;
    }
  }
  EXPECT_EQ(order8, 1u);
}

TEST(SimReplayCheck, BusstatStatsPlaneIsDeterministic) {
  CheckReplay("busstat_stats_plane", &RunBusstatScenario, 42);
  CheckReplay("busstat_stats_plane", &RunBusstatScenario, 1993);
}

// The stats plane's acceptance invariants on the stock scenario: the aggregator
// decodes samples from every node without a single delta desync (loss repair is
// below it), the fleet self-overhead stays under the 5% budget at the default
// 1/64 sampling, and the workload itself is unharmed (all 300 publishes land).
TEST(SimReplayCheck, BusstatOverheadStaysUnderBudget) {
  scenario::BusStatScenario run = scenario::RunBusstatWanScenario(42);
  ASSERT_FALSE(run.trace.empty());
  ASSERT_NE(run.trace.front().rfind("error:", 0), 0u) << run.trace.front();
  EXPECT_EQ(run.delivered, 300u);
  EXPECT_GT(run.samples_consumed, 0u);
  EXPECT_EQ(run.desyncs, 0u);
  EXPECT_GT(run.publish_bytes, 0u);
  EXPECT_LT(run.overhead_ratio, 0.05) << "telemetry self-overhead above the 5% budget";
  EXPECT_NE(run.hash, 0u);
#if IBUS_TELEMETRY
  // Sampling at 1/64 must still let some traces through on 300 publishes.
  EXPECT_GT(run.traces_collected, 0u);
  EXPECT_LT(run.traces_collected, 30u) << "1/64 sampling is not thinning traces";
#endif
}

TEST(SimReplayCheck, CertifiedDeliveryCompletesDespiteLoss) {
  auto trace = RunCertifiedScenario(42);
  ASSERT_FALSE(trace.empty());
  // All 10 published messages must eventually be delivered exactly once.
  size_t deliveries = 0;
  for (const std::string& e : trace) {
    if (e.find("consumer subj=orders.new") != std::string::npos) {
      ++deliveries;
    }
  }
  EXPECT_EQ(deliveries, 10u);
}

}  // namespace
}  // namespace ibus
