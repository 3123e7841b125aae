#include "src/scenario/journal_demo.h"

#include "src/common/rng.h"
#include "src/scenario/testbed.h"
#include "src/telemetry/health.h"

namespace ibus::scenario {

using journal::Journal;
using journal::JournalConfig;
using journal::VerifyDevice;

namespace {

// Group-commit config shared by the scenarios: small blocks and segments so a short
// run still exercises batching, rotation, and compaction.
JournalConfig ScenarioJournalConfig(Simulator* sim) {
  JournalConfig jc;
  jc.flush_max_bytes = 192;
  jc.flush_deadline_us = 2 * kMillisecond;
  jc.segment_max_bytes = 512;
  jc.sim = sim;
  return jc;
}

// Subscribes `bus` to the health plane and appends every event to the trace —
// the recovery announcements are part of the replay-hashed output.
Status WatchHealth(BusClient* bus, Simulator* sim, std::vector<std::string>* trace) {
  auto sub = bus->Subscribe(telemetry::kHealthPattern, [sim, trace](const Message& m) {
    auto event = telemetry::HealthEvent::Unmarshal(m.payload);
    trace->push_back("t=" + std::to_string(sim->Now()) + " health " +
                     (event.ok() ? event->ToString() : "unparseable"));
  });
  return sub.ok() ? OkStatus() : sub.status();
}

void TracePublisherStats(const CertifiedPublisher& pub, const CertifiedSubscriber* sub,
                         std::vector<std::string>* trace) {
  trace->push_back("publisher published=" + std::to_string(pub.stats().published) +
                   " retransmits=" + std::to_string(pub.stats().retransmits) +
                   " retired=" + std::to_string(pub.stats().retired) +
                   " recovered=" + std::to_string(pub.stats().recovered) +
                   " pending=" + std::to_string(pub.pending()));
  if (sub != nullptr) {
    trace->push_back("subscriber delivered=" + std::to_string(sub->stats().delivered) +
                     " dup_dropped=" + std::to_string(sub->stats().duplicates_dropped) +
                     " acks=" + std::to_string(sub->stats().acks_sent));
  }
}

void TraceDevice(const StableStore& device, std::vector<std::string>* trace) {
  trace->push_back("device blocks=" + std::to_string(device.NextSeq()) +
                   " syncs=" + std::to_string(device.syncs()));
  trace->push_back(VerifyDevice(device).ToString());
}

}  // namespace

std::vector<std::string> RunDaemonCrashScenario(uint64_t seed, StableStore* device) {
  std::vector<std::string> trace;
  auto fail = [&trace](const std::string& what, const Status& s) {
    trace.clear();
    trace.push_back("error: " + what + ": " + s.ToString());
    return trace;
  };

  Simulator sim;
  Network net(&sim, seed);
  SegmentId lan = net.AddSegment();
  HostId h_pub = net.AddHost("producer-host", lan);
  HostId h_con = net.AddHost("consumer-host", lan);

  // The consumer side survives the whole scenario: its dedup state is what turns
  // post-recovery retransmits into exactly-once application deliveries.
  auto daemon_con = BusDaemon::Start(&net, h_con, BusConfig());
  if (!daemon_con.ok()) {
    return fail("consumer daemon", daemon_con.status());
  }
  auto con_bus = BusClient::Connect(&net, h_con, "consumer");
  if (!con_bus.ok()) {
    return fail("consumer bus", con_bus.status());
  }
  auto sub = CertifiedSubscriber::Create(
      con_bus->get(), "orders.>", "consumer",
      [&](const Message& m) { trace.push_back(DeliveryLine(sim.Now(), "consumer", m)); });
  if (!sub.ok()) {
    return fail("certified subscriber", sub.status());
  }
  Status watch = WatchHealth(con_bus->get(), &sim, &trace);
  if (!watch.ok()) {
    return fail("health watch", watch);
  }

  // --- Phase 1: journaled certified traffic, then a daemon crash mid-retire ------
  auto daemon_pub = BusDaemon::Start(&net, h_pub, BusConfig());
  if (!daemon_pub.ok()) {
    return fail("producer daemon", daemon_pub.status());
  }
  sim.RunFor(200 * kMillisecond);  // discovery handshake before faults
  FaultPlan faults;
  faults.drop_prob = 0.05;
  faults.jitter_us = 300;
  net.SetFaultPlan(lan, faults);

  auto pub_bus = BusClient::Connect(&net, h_pub, "producer");
  if (!pub_bus.ok()) {
    return fail("producer bus", pub_bus.status());
  }
  auto ledger = Journal::Open(device, ScenarioJournalConfig(&sim));
  if (!ledger.ok()) {
    return fail("journal open", ledger.status());
  }
  auto pub = CertifiedPublisher::Create(pub_bus->get(), ledger->get(), "orders-ledger");
  if (!pub.ok()) {
    return fail("certified publisher", pub.status());
  }
  for (int i = 0; i < 6; ++i) {
    Status s = (*pub)->Publish("orders.new", ToBytes("order" + std::to_string(i)));
    if (!s.ok()) {
      return fail("publish", s);
    }
    if (i < 5) {
      sim.RunFor(30 * kMillisecond);
    }
  }
  // Just long enough for the last publishes' acks to be in flight: the crash lands
  // mid-retire, with retire records racing the group-commit deadline.
  sim.RunFor(3 * kMillisecond);
  trace.push_back("phase1 published=" + std::to_string((*pub)->stats().published) +
                  " retired=" + std::to_string((*pub)->stats().retired) +
                  " pending=" + std::to_string((*pub)->pending()));

  // Crash: publisher, journal handle, client, and daemon all die. Only the block
  // device (the "disk") survives; buffered-but-unflushed ledger tail is lost.
  pub->reset();
  ledger->reset();
  pub_bus->reset();
  daemon_pub->reset();
  trace.push_back("crash blocks=" + std::to_string(device->NextSeq()) +
                  " syncs=" + std::to_string(device->syncs()));
  sim.RunFor(300 * kMillisecond);

  // --- Phase 2: reboot, replay the ledger, re-arm, keep publishing ---------------
  auto daemon_pub2 = BusDaemon::Start(&net, h_pub, BusConfig());
  if (!daemon_pub2.ok()) {
    return fail("producer daemon restart", daemon_pub2.status());
  }
  sim.RunFor(200 * kMillisecond);
  auto pub_bus2 = BusClient::Connect(&net, h_pub, "producer");
  if (!pub_bus2.ok()) {
    return fail("producer bus restart", pub_bus2.status());
  }
  auto ledger2 = Journal::Open(device, ScenarioJournalConfig(&sim));
  if (!ledger2.ok()) {
    return fail("journal reopen", ledger2.status());
  }
  trace.push_back("reopen recovered_records=" +
                  std::to_string((*ledger2)->stats().recovered_records) + " torn_tail=" +
                  std::to_string((*ledger2)->stats().torn_tail_blocks) + " next_lsn=" +
                  std::to_string((*ledger2)->next_lsn()));
  auto pub2 = CertifiedPublisher::Create(pub_bus2->get(), ledger2->get(), "orders-ledger");
  if (!pub2.ok()) {
    return fail("certified publisher restart", pub2.status());
  }
  Status rec = (*pub2)->Recover();
  if (!rec.ok()) {
    return fail("recover", rec);
  }
  for (int i = 6; i < 8; ++i) {
    Status s = (*pub2)->Publish("orders.new", ToBytes("order" + std::to_string(i)));
    if (!s.ok()) {
      return fail("publish after recovery", s);
    }
    sim.RunFor(30 * kMillisecond);
  }
  sim.RunFor(6 * kSecond);

  TracePublisherStats(**pub2, sub->get(), &trace);
  TraceDevice(*device, &trace);
  return trace;
}

std::vector<std::string> RunRouterCrashScenario(uint64_t seed, StableStore* device) {
  std::vector<std::string> trace;
  auto fail = [&trace](const std::string& what, const Status& s) {
    trace.clear();
    trace.push_back("error: " + what + ": " + s.ToString());
    return trace;
  };

  auto started = WanTestbed::Start(seed, BusConfig());
  if (!started.ok()) {
    return fail("testbed", started.status());
  }
  WanTestbed& bed = **started;
  Simulator& sim = bed.sim();
  Network& net = bed.net();
  Status routers = bed.ConnectRouters();
  if (!routers.ok()) {
    return fail("routers", routers);
  }
  sim.RunFor(200 * kMillisecond);

  auto con_bus = BusClient::Connect(&net, bed.b1(), "consumer");
  if (!con_bus.ok()) {
    return fail("consumer bus", con_bus.status());
  }
  auto sub = CertifiedSubscriber::Create(
      con_bus->get(), "orders.>", "consumer",
      [&](const Message& m) { trace.push_back(DeliveryLine(sim.Now(), "consumer", m)); });
  if (!sub.ok()) {
    return fail("certified subscriber", sub.status());
  }
  // The recovery announcement happens while the WAN is down, so watch it on the
  // publisher's own LAN.
  auto monitor_bus = BusClient::Connect(&net, bed.a0(), "monitor");
  if (!monitor_bus.ok()) {
    return fail("monitor bus", monitor_bus.status());
  }
  Status watch = WatchHealth(monitor_bus->get(), &sim, &trace);
  if (!watch.ok()) {
    return fail("health watch", watch);
  }
  sim.RunFor(500 * kMillisecond);  // control plane (subs, adverts) crosses the WAN

  FaultPlan faults;
  faults.drop_prob = 0.05;
  faults.jitter_us = 300;
  bed.SetFaults(faults);

  auto pub_bus = BusClient::Connect(&net, bed.a1(), "producer");
  if (!pub_bus.ok()) {
    return fail("producer bus", pub_bus.status());
  }
  auto ledger = Journal::Open(device, ScenarioJournalConfig(&sim));
  if (!ledger.ok()) {
    return fail("journal open", ledger.status());
  }
  auto pub = CertifiedPublisher::Create(pub_bus->get(), ledger->get(), "orders-ledger");
  if (!pub.ok()) {
    return fail("certified publisher", pub.status());
  }
  for (int i = 0; i < 4; ++i) {
    Status s = (*pub)->Publish("orders.new", ToBytes("order" + std::to_string(i)));
    if (!s.ok()) {
      return fail("publish", s);
    }
    sim.RunFor(40 * kMillisecond);
  }

  // Both routers die with certified traffic and acks queued across the WAN.
  bed.StopRouters();
  trace.push_back("routers crashed at t=" + std::to_string(sim.Now()));
  for (int i = 4; i < 8; ++i) {
    Status s = (*pub)->Publish("orders.new", ToBytes("order" + std::to_string(i)));
    if (!s.ok()) {
      return fail("publish during outage", s);
    }
    sim.RunFor(40 * kMillisecond);
  }

  // The publisher crashes during the outage and recovers from its journal; the
  // pending WAN-bound messages ride on the recovered retransmit machinery.
  pub->reset();
  ledger->reset();
  pub_bus->reset();
  trace.push_back("publisher crashed blocks=" + std::to_string(device->NextSeq()) +
                  " syncs=" + std::to_string(device->syncs()));
  sim.RunFor(400 * kMillisecond);
  auto pub_bus2 = BusClient::Connect(&net, bed.a1(), "producer");
  if (!pub_bus2.ok()) {
    return fail("producer bus restart", pub_bus2.status());
  }
  auto ledger2 = Journal::Open(device, ScenarioJournalConfig(&sim));
  if (!ledger2.ok()) {
    return fail("journal reopen", ledger2.status());
  }
  trace.push_back("reopen recovered_records=" +
                  std::to_string((*ledger2)->stats().recovered_records) + " torn_tail=" +
                  std::to_string((*ledger2)->stats().torn_tail_blocks) + " next_lsn=" +
                  std::to_string((*ledger2)->next_lsn()));
  auto pub2 = CertifiedPublisher::Create(pub_bus2->get(), ledger2->get(), "orders-ledger");
  if (!pub2.ok()) {
    return fail("certified publisher restart", pub2.status());
  }
  Status rec = (*pub2)->Recover();
  if (!rec.ok()) {
    return fail("recover", rec);
  }
  sim.RunFor(200 * kMillisecond);

  // Routers come back on the same port; retries finally drain across the WAN.
  Status restarted = bed.ConnectRouters();
  if (!restarted.ok()) {
    return fail("router restart", restarted);
  }
  trace.push_back("routers restarted at t=" + std::to_string(sim.Now()));
  sim.RunFor(8 * kSecond);

  TracePublisherStats(**pub2, sub->get(), &trace);
  TraceDevice(*device, &trace);
  return trace;
}

std::vector<std::string> RunTailTruncationScenario(uint64_t seed) {
  std::vector<std::string> trace;
  auto fail = [&trace](const std::string& what, const Status& s) {
    trace.clear();
    trace.push_back("error: " + what + ": " + s.ToString());
    return trace;
  };

  Simulator sim;
  Network net(&sim, seed);
  SegmentId lan = net.AddSegment();
  HostId h_pub = net.AddHost("producer-host", lan);
  HostId h_con = net.AddHost("consumer-host", lan);
  auto daemon_pub = BusDaemon::Start(&net, h_pub, BusConfig());
  auto daemon_con = BusDaemon::Start(&net, h_con, BusConfig());
  if (!daemon_pub.ok() || !daemon_con.ok()) {
    return fail("daemon", daemon_pub.ok() ? daemon_con.status() : daemon_pub.status());
  }
  sim.RunFor(200 * kMillisecond);
  FaultPlan faults;
  faults.drop_prob = 0.05;
  faults.jitter_us = 300;
  net.SetFaultPlan(lan, faults);

  // --- Phase 1: build up a journal with retired history and a pending tail -------
  auto con_bus = BusClient::Connect(&net, h_con, "consumer");
  if (!con_bus.ok()) {
    return fail("consumer bus", con_bus.status());
  }
  auto sub = CertifiedSubscriber::Create(
      con_bus->get(), "orders.>", "consumer",
      [&](const Message& m) { trace.push_back(DeliveryLine(sim.Now(), "consumer", m)); });
  if (!sub.ok()) {
    return fail("certified subscriber", sub.status());
  }
  auto pub_bus = BusClient::Connect(&net, h_pub, "producer");
  if (!pub_bus.ok()) {
    return fail("producer bus", pub_bus.status());
  }
  MemoryStableStore pristine;
  auto ledger = Journal::Open(&pristine, ScenarioJournalConfig(&sim));
  if (!ledger.ok()) {
    return fail("journal open", ledger.status());
  }
  auto pub = CertifiedPublisher::Create(pub_bus->get(), ledger->get(), "orders-ledger");
  if (!pub.ok()) {
    return fail("certified publisher", pub.status());
  }
  for (int i = 0; i < 8; ++i) {
    Status s = (*pub)->Publish("orders.new", ToBytes("order" + std::to_string(i)));
    if (!s.ok()) {
      return fail("publish", s);
    }
    sim.RunFor(25 * kMillisecond);
  }
  trace.push_back("phase1 published=" + std::to_string((*pub)->stats().published) +
                  " retired=" + std::to_string((*pub)->stats().retired) +
                  " pending=" + std::to_string((*pub)->pending()) +
                  " blocks=" + std::to_string(pristine.NextSeq()));
  // Everything crashes — including the consumer, whose dedup state is allowed to
  // die with it: the gated property here is determinism of the recovery, not
  // exactly-once across a torn tail (certified delivery is at-least-once).
  pub->reset();
  ledger->reset();
  pub_bus->reset();
  sub->reset();
  con_bus->reset();

  // --- Tail fuzzing: three seed-derived mid-block cuts of the device tail --------
  auto blocks = pristine.ReadFrom(0);
  if (!blocks.ok() || blocks->empty()) {
    return fail("device read", blocks.ok() ? DataLoss("no blocks flushed") : blocks.status());
  }
  std::vector<std::unique_ptr<MemoryStableStore>> devices;
  std::unique_ptr<Journal> recovered;
  for (int k = 0; k < 3; ++k) {
    Rng rng(seed * 31 + 1700 + static_cast<uint64_t>(k));
    const Bytes& last = blocks->back();
    const size_t cut = 1 + static_cast<size_t>(rng.NextBelow(last.size() - 1));
    auto device = std::make_unique<MemoryStableStore>();
    for (size_t b = 0; b + 1 < blocks->size(); ++b) {
      (void)device->Append((*blocks)[b]);
    }
    (void)device->Append(Bytes(last.begin(), last.begin() + static_cast<ptrdiff_t>(cut)));
    auto reopened = Journal::Open(device.get(), ScenarioJournalConfig(&sim));
    if (!reopened.ok()) {
      return fail("journal reopen after cut", reopened.status());
    }
    trace.push_back("fuzz k=" + std::to_string(k) + " cut=" + std::to_string(cut) +
                    " recovered_records=" +
                    std::to_string((*reopened)->stats().recovered_records) + " torn_tail=" +
                    std::to_string((*reopened)->stats().torn_tail_blocks) + " next_lsn=" +
                    std::to_string((*reopened)->next_lsn()));
    trace.push_back("fuzz k=" + std::to_string(k) + " " + VerifyDevice(*device).ToString());
    devices.push_back(std::move(device));
    recovered = reopened.take();  // keep the last cut's journal for live recovery
  }

  // --- Live recovery on the bus from the last truncated device -------------------
  auto con_bus2 = BusClient::Connect(&net, h_con, "consumer");
  if (!con_bus2.ok()) {
    return fail("consumer bus restart", con_bus2.status());
  }
  auto sub2 = CertifiedSubscriber::Create(
      con_bus2->get(), "orders.>", "consumer",
      [&](const Message& m) { trace.push_back(DeliveryLine(sim.Now(), "consumer2", m)); });
  if (!sub2.ok()) {
    return fail("certified subscriber restart", sub2.status());
  }
  Status watch = WatchHealth(con_bus2->get(), &sim, &trace);
  if (!watch.ok()) {
    return fail("health watch", watch);
  }
  auto pub_bus2 = BusClient::Connect(&net, h_pub, "producer");
  if (!pub_bus2.ok()) {
    return fail("producer bus restart", pub_bus2.status());
  }
  auto pub2 = CertifiedPublisher::Create(pub_bus2->get(), recovered.get(), "orders-ledger");
  if (!pub2.ok()) {
    return fail("certified publisher restart", pub2.status());
  }
  Status rec = (*pub2)->Recover();
  if (!rec.ok()) {
    return fail("recover", rec);
  }
  Status s = (*pub2)->Publish("orders.new", ToBytes("order8"));
  if (!s.ok()) {
    return fail("publish after recovery", s);
  }
  sim.RunFor(5 * kSecond);

  TracePublisherStats(**pub2, sub2->get(), &trace);
  TraceDevice(*devices.back(), &trace);
  return trace;
}

}  // namespace ibus::scenario
