#include "src/scenario/busstat_demo.h"

#include <cstdio>

#include "src/scenario/testbed.h"
#include "src/telemetry/busstat.h"
#include "src/telemetry/collector.h"

namespace ibus::scenario {

namespace {

using telemetry::BusStatReporter;
using telemetry::BusStatReporterOptions;
using telemetry::DecodedSample;
using telemetry::StatsAggregator;
using telemetry::TraceCollector;

std::string Record(SimTime t, const std::string& who, const Message& m) {
  return "t=" + std::to_string(t) + " " + who + " subj=" + m.subject +
         " bytes=" + std::to_string(m.payload.size());
}

}  // namespace

BusStatScenario RunBusstatWanScenario(uint64_t seed,
                                      const BusStatScenarioOptions& options) {
  BusStatScenario result;
  auto fail = [&result](const std::string& what, const Status& s) {
    result.trace.clear();
    result.trace.push_back("error: " + what + ": " + s.ToString());
    return result;
  };

  BusConfig config;
  config.trace_sample_period = options.sample_period;
  auto started = WanTestbed::Start(seed, config);
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

  // Fleet view + trace collector on the far LAN: busstat time-series records and
  // sampled spans cross the WAN via the routers' reserved-prefix forwarding.
  auto monitor_bus = BusClient::Connect(&net, bed.b0(), "monitor");
  if (!monitor_bus.ok()) {
    return fail("monitor bus", monitor_bus.status());
  }
  auto aggregator = StatsAggregator::Create(monitor_bus->get());
  if (!aggregator.ok()) {
    return fail("aggregator", aggregator.status());
  }
  auto collector = TraceCollector::Create(monitor_bus->get());
  const bool telemetry_on = collector.ok();  // false under IB_TELEMETRY=OFF

  auto sub_bus = BusClient::Connect(&net, bed.b1(), "consumer", config);
  if (!sub_bus.ok()) {
    return fail("consumer bus", sub_bus.status());
  }
  uint64_t delivered = 0;
  SimTime last_delivery_at = 0;
  auto sub = sub_bus.value()->Subscribe("orders.>", [&](const Message& m) {
    delivered++;
    last_delivery_at = sim.Now();
    // Log a bounded prefix of deliveries: enough for the replay spine without the
    // trace growing linearly in the bench's message count.
    if (delivered <= 20) {
      result.trace.push_back(Record(sim.Now(), "consumer", m));
    }
  });
  if (!sub.ok()) {
    return fail("subscribe", sub.status());
  }
  sim.RunFor(500 * kMillisecond);  // control plane (subs, adverts) crosses the WAN

  // One busstat reporter beside every daemon and router. Each daemon's reporter
  // publishes through a client on its own host so the sample bytes run the same
  // client->daemon->bus path (and self-overhead accounting) as any other message.
  BusStatReporterOptions ropts;
  ropts.interval_us = options.stats_interval_us;
  ropts.keyframe_every = options.keyframe_every;
  ropts.sample_period = options.sample_period;
  std::vector<std::unique_ptr<BusClient>> reporter_buses;
  std::vector<std::unique_ptr<BusStatReporter>> reporters;
  for (const auto& daemon : bed.daemons()) {
    auto bus = BusClient::Connect(&net, daemon->host(), "_busstat");
    if (!bus.ok()) {
      return fail("reporter bus", bus.status());
    }
    std::string node = net.HostName(daemon->host());
    auto rep = BusStatReporter::Create(bus->get(), node, daemon->metrics(),
                                       &daemon->subject_sketch(), &daemon->peer_sketch(),
                                       ropts);
    if (!rep.ok()) {
      return fail("reporter", rep.status());
    }
    reporter_buses.push_back(bus.take());
    reporters.push_back(rep.take());
  }
  struct RouterRep {
    InfoRouter* router;
    BusClient* bus;
    const char* node;
  };
  for (const RouterRep& rr : {RouterRep{bed.router_a(), bed.router_bus_a(), "routerA"},
                              RouterRep{bed.router_b(), bed.router_bus_b(), "routerB"}}) {
    auto rep = BusStatReporter::Create(rr.bus, rr.node, rr.router->metrics(),
                                       &rr.router->subject_sketch(),
                                       &rr.router->peer_sketch(), ropts);
    if (!rep.ok()) {
      return fail("router reporter", rep.status());
    }
    reporters.push_back(rep.take());
  }

  // Faults only after the handshake so every replay starts aligned.
  FaultPlan faults;
  faults.drop_prob = 0.10;
  faults.jitter_us = 300;
  bed.SetFaults(faults);

  auto pub_bus = BusClient::Connect(&net, bed.a1(), "producer", config);
  if (!pub_bus.ok()) {
    return fail("producer bus", pub_bus.status());
  }
  Bytes payload(options.payload_bytes, 0x5A);
  for (int i = 0; i < options.messages; ++i) {
    Status s = pub_bus.value()->Publish("orders.new", payload);
    if (!s.ok()) {
      return fail("publish", s);
    }
    sim.RunFor(options.publish_interval_us);
  }
  // Drain: repairs retire and at least one more stats interval fires everywhere.
  sim.RunFor(2 * options.stats_interval_us + kSecond);

  result.delivered = delivered;
  result.samples_consumed = (*aggregator)->samples_consumed();
  result.desyncs = (*aggregator)->desyncs();
  result.publish_bytes = static_cast<uint64_t>((*aggregator)->FleetValue(kMetricPublishBytes));
  result.self_bytes = static_cast<uint64_t>((*aggregator)->FleetValue(kMetricSelfBytes));
  result.self_msgs = static_cast<uint64_t>((*aggregator)->FleetValue(kMetricSelfMsgs));
  result.overhead_ratio = (*aggregator)->OverheadRatio();
  if (telemetry_on) {
    result.traces_collected = (*collector)->trace_count();
    result.trace_records = (*collector)->records_received();
  }

  for (const std::string& node : (*aggregator)->Nodes()) {
    const DecodedSample* s = (*aggregator)->Latest(node);
    if (s == nullptr) {
      continue;
    }
    result.trace.push_back("node " + node + " seq=" + std::to_string(s->seq) +
                           " sample_period=" + std::to_string(s->sample_period) +
                           " subjects_offered=" + std::to_string(s->subject_sketch.offered()));
  }
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.6f", result.overhead_ratio);
  result.trace.push_back(
      "busstat delivered=" + std::to_string(result.delivered) +
      " last_delivery_at=" + std::to_string(last_delivery_at) +
      " samples=" + std::to_string(result.samples_consumed) +
      " desyncs=" + std::to_string(result.desyncs) +
      " publish_bytes=" + std::to_string(result.publish_bytes) +
      " self_bytes=" + std::to_string(result.self_bytes) + " overhead=" + ratio +
      " traces=" + std::to_string(result.traces_collected) +
      " trace_records=" + std::to_string(result.trace_records));

  result.json = (*aggregator)->RenderJson();
  result.table = (*aggregator)->RenderTable();
  result.hash = (*aggregator)->Hash();
  result.trace.push_back("busstat hash=" + std::to_string(result.hash));
  return result;
}

}  // namespace ibus::scenario
