// busmon: the operator's live console for a bus fleet, demonstrated against a
// self-contained simulated LAN that rides through a lossy episode. Every host runs a
// BusStatReporter and (when telemetry is compiled in) a HealthEvaluator; busmon
// subscribes to the reserved stats/health/trace feeds and renders the fleet table,
// top subjects, active alerts, and a flight-recorder excerpt.
//
//   busmon --snapshot            # one deterministic frame at the end of the run
//   busmon --live                # a frame every simulated second
//   busmon --seed 7 --snapshot   # different fault timings, still deterministic
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/services/health_monitor.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/telemetry/busmon.h"
#include "src/telemetry/busstat.h"

using namespace ibus;  // NOLINT: tool brevity

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--snapshot | --live] [--seed N]\n"
               "  --snapshot  print one frame after the simulated run (default)\n"
               "  --live      print a frame every simulated second\n"
               "  --seed N    fault/workload RNG seed (default 42)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool live = false;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      live = false;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }

  Simulator sim;
  Network net(&sim, seed);
  SegmentId seg = net.AddSegment();
  BusConfig config;
  config.reliable.retain_messages = 2;  // a tiny retain buffer makes loss visible

  std::vector<HostId> hosts;
  std::vector<std::unique_ptr<BusDaemon>> daemons;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(net.AddHost("host" + std::to_string(i), seg));
    auto d = BusDaemon::Start(&net, hosts.back(), config);
    if (!d.ok()) {
      std::fprintf(stderr, "daemon start failed: %s\n", d.status().ToString().c_str());
      return 1;
    }
    daemons.push_back(d.take());
  }

  // The observability plane on every host.
  HealthConfig hc;
  hc.retransmit_raise = 4;
  hc.clear_hold_intervals = 4;
  std::vector<std::unique_ptr<BusClient>> ops;
  std::vector<std::unique_ptr<telemetry::BusStatReporter>> reporters;
  std::vector<std::unique_ptr<HealthEvaluator>> evaluators;
  for (int i = 0; i < 3; ++i) {
    ops.push_back(BusClient::Connect(&net, hosts[i], "ops" + std::to_string(i)).take());
    telemetry::BusStatReporterOptions topts;
    topts.sample_period = config.trace_sample_period;
    auto rep = telemetry::BusStatReporter::Create(
        ops.back().get(), "host" + std::to_string(i), daemons[i]->metrics(),
        &daemons[i]->subject_sketch(), &daemons[i]->peer_sketch(), topts);
    if (!rep.ok()) {
      std::fprintf(stderr, "busstat reporter failed: %s\n", rep.status().ToString().c_str());
      return 1;
    }
    reporters.push_back(rep.take());
    auto ev = HealthEvaluator::Create(ops.back().get(), daemons[i].get(), hc);
    if (ev.ok()) {
      evaluators.push_back(ev.take());
    } else if (i == 0) {
      // Built with IB_TELEMETRY=OFF: stats still flow, alerts don't.
      std::fprintf(stderr, "note: %s\n", ev.status().ToString().c_str());
    }
  }

  auto mon_bus = BusClient::Connect(&net, hosts[0], "busmon").take();
  auto mon = telemetry::BusMon::Create(mon_bus.get()).take();
  mon->AttachRecorder(daemons[2]->flight_recorder());

  auto consumer = BusClient::Connect(&net, hosts[2], "consumer").take();
  uint64_t received = 0;
  consumer->Subscribe("market.>", [&](const Message&) { received++; }).ok();
  sim.RunFor(1 * kSecond);

  // Workload: clean warm-up, a 30%-loss episode fast enough to age the retain
  // buffer out, then a healed cool-down so alerts retire.
  auto render = [&](const char* tag) {
    std::printf("----- %s -----\n%s\n", tag, mon->RenderSnapshot().c_str());
  };
  auto run_for = [&](SimTime duration) {
    if (!live) {
      sim.RunFor(duration);
      return;
    }
    while (duration > 0) {
      SimTime step = duration < kSecond ? duration : kSecond;
      sim.RunFor(step);
      duration -= step;
      render("live");
    }
  };

  auto pub = BusClient::Connect(&net, hosts[0], "producer").take();
  Rng workload(seed + 3);
  for (int i = 0; i < 10; ++i) {
    pub->Publish("market.equity.gmc", ToBytes("tick" + std::to_string(i))).ok();
    run_for(workload.NextInRange(5000, 15000));
  }
  FaultPlan faults;
  faults.drop_prob = 0.30;
  faults.jitter_us = 300;
  net.SetFaultPlan(seg, faults);
  for (int i = 0; i < 60; ++i) {
    pub->Publish("market.equity.gmc", ToBytes("lossy" + std::to_string(i))).ok();
    run_for(workload.NextInRange(5000, 10000));
  }
  net.SetFaultPlan(seg, FaultPlan());
  for (int i = 0; i < 10; ++i) {
    pub->Publish("market.equity.gmc", ToBytes("calm" + std::to_string(i))).ok();
    run_for(100 * kMillisecond);
  }
  run_for(5 * kSecond);

  render(live ? "final" : "snapshot");
  std::printf("consumer received %llu market messages; frame hash %llu\n",
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(mon->SnapshotHash()));
  return 0;
}
