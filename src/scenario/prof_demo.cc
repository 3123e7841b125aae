#include "src/scenario/prof_demo.h"

#include <cstdio>

#include "src/capture/capture.h"
#include "src/common/hash.h"
#include "src/prof/profiler.h"
#include "src/prof/sim_profiler.h"
#include "src/proto/reliable.h"
#include "src/scenario/testbed.h"
#include "src/telemetry/collector.h"

namespace ibus::scenario {

namespace {

// One registry's queue gauges as a JSON object: each depth with its ".hwm" twin.
std::string QueueGaugesJson(const telemetry::MetricsRegistry& registry,
                            const std::vector<std::string>& names) {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : names) {
    for (const std::string& n : {name, name + ".hwm"}) {
      if (!first) {
        out += ",";
      }
      first = false;
      out += "\"" + n + "\":" + std::to_string(registry.GaugeValue(n));
    }
  }
  out += "}";
  return out;
}

}  // namespace

ProfiledScenario RunProfiledWanScenario(uint64_t seed) {
  ProfiledScenario result;
  auto fail = [&result](const std::string& what, const Status& s) {
    result.trace.clear();
    result.trace.push_back("error: " + what + ": " + s.ToString());
    return result;
  };

  BusConfig config;
  config.trace_sample_period = 1;  // profiling wants every path, not a sample
  prof::EventCoreProfiler event_core;  // outlives the testbed it observes
  capture::CaptureBuffer tap;
  auto started = WanTestbed::Start(seed, config);
  if (!started.ok()) {
    return fail("testbed", started.status());
  }
  WanTestbed& bed = **started;
  Simulator& sim = bed.sim();
  Network& net = bed.net();
  sim.SetObserver(&event_core);
  net.AttachTap(&tap);
  Status routers = bed.ConnectRouters();
  if (!routers.ok()) {
    return fail("routers", routers);
  }
  sim.RunFor(200 * kMillisecond);

  // Trace collector on the far LAN: spans cross the WAN via the routers'
  // reserved-prefix forwarding, so one collector sees the whole path.
  auto monitor_bus = BusClient::Connect(&net, bed.b0(), "monitor");
  if (!monitor_bus.ok()) {
    return fail("monitor bus", monitor_bus.status());
  }
  auto collector = telemetry::TraceCollector::Create(monitor_bus->get());
  const bool telemetry_on = collector.ok();  // false under IB_TELEMETRY=OFF

  auto sub_bus = BusClient::Connect(&net, bed.b1(), "consumer");
  if (!sub_bus.ok()) {
    return fail("consumer bus", sub_bus.status());
  }
  auto sub = CertifiedSubscriber::Create(sub_bus->get(), "orders.>", "consumer",
                                         [&](const Message& m) {
                                           result.trace.push_back(
                                               DeliveryLine(sim.Now(), "consumer", m));
                                         });
  if (!sub.ok()) {
    return fail("certified subscriber", sub.status());
  }
  sim.RunFor(500 * kMillisecond);  // control plane (subs, adverts) crosses the WAN

  // The loss is what populates the retransmit_repair stage and the NAK/partials
  // queues.
  auto orders = CertifiedOrders::Run(&bed, config);
  if (!orders.ok()) {
    return fail("certified orders", orders.status());
  }
  const CertifiedPublisher& pub = (*orders)->publisher();

  // Join the hop timelines against the capture and decompose.
  prof::CriticalPathProfiler profiler;
  profiler.IndexCapture(tap.frames());
  if (telemetry_on) {
    profiler.AddCollector(**collector);
    for (uint64_t id : (*collector)->trace_ids()) {
      result.trace.push_back((*collector)->RenderTimeline(id));
    }
    result.trace.push_back("records=" + std::to_string((*collector)->records_received()) +
                           " traces=" + std::to_string((*collector)->trace_count()) +
                           " all_hash=" + std::to_string((*collector)->AllTracesHash()));
  }

  // Queue-occupancy plane: the daemons' proto.* depth gauges and the routers'
  // link/mirror gauges, final values + high-watermarks.
  const std::vector<std::string> daemon_queues = {
      kMetricSenderRetainedDepth, kMetricSenderBatchDepth, kMetricReceiverReadyDepth,
      kMetricReceiverPartialsDepth};
  const std::vector<std::string> router_queues = {kMetricRouterLinkBacklogUs,
                                                  kMetricRouterPeerSubs};
  std::string queues = "{";
  for (const auto& daemon : bed.daemons()) {
    queues += "\"daemon@" + std::to_string(daemon->host()) + "\":" +
              QueueGaugesJson(*daemon->metrics(), daemon_queues) + ",";
  }
  queues += "\"_router:A\":" + QueueGaugesJson(*bed.router_a()->metrics(), router_queues);
  queues += ",\"_router:B\":" + QueueGaugesJson(*bed.router_b()->metrics(), router_queues);
  queues += "}";

  result.json = profiler.RenderJson({{"telemetry", telemetry_on ? "true" : "false"},
                                     {"event_core", event_core.RenderJson()},
                                     {"queues", queues}});
  result.collapsed = profiler.RenderCollapsed();
  result.hash = Fnv1a(result.collapsed, Fnv1a(result.json));
  result.paths = profiler.paths();
  result.reconciled = profiler.Reconciled();
  result.unattributed_share = profiler.accumulator().UnattributedShare();
  result.frames_captured = tap.frames_kept();

  result.trace.push_back("publisher published=" + std::to_string(pub.stats().published) +
                         " retransmits=" + std::to_string(pub.stats().retransmits) +
                         " retired=" + std::to_string(pub.stats().retired));
  char share[32];
  std::snprintf(share, sizeof(share), "%.6f", result.unattributed_share);
  result.trace.push_back("busprof paths=" + std::to_string(result.paths.size()) +
                         " reconciled=" + (result.reconciled ? "1" : "0") +
                         " unattributed_share=" + share +
                         " frames=" + std::to_string(result.frames_captured) +
                         " hash=" + std::to_string(result.hash));

  net.DetachTap(&tap);
  sim.SetObserver(nullptr);
  return result;
}

}  // namespace ibus::scenario
