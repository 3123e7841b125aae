#include "src/scenario/capture_demo.h"

#include "src/scenario/testbed.h"

namespace ibus::scenario {

std::vector<std::string> RunCertifiedWanCaptureScenario(uint64_t seed, NetworkTap* tap) {
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
  if (tap != nullptr) {
    net.AttachTap(tap);
  }
  Status routers = bed.ConnectRouters();
  if (!routers.ok()) {
    return fail("routers", routers);
  }
  sim.RunFor(200 * kMillisecond);

  auto sub_bus = BusClient::Connect(&net, bed.b1(), "consumer");
  if (!sub_bus.ok()) {
    return fail("consumer bus", sub_bus.status());
  }
  auto sub = CertifiedSubscriber::Create(sub_bus->get(), "orders.>", "consumer",
                                         [&](const Message& m) {
                                           trace.push_back(
                                               DeliveryLine(sim.Now(), "consumer", m));
                                         });
  if (!sub.ok()) {
    return fail("certified subscriber", sub.status());
  }
  sim.RunFor(500 * kMillisecond);  // control plane (subs, adverts) crosses the WAN

  auto orders = CertifiedOrders::Run(&bed, BusConfig());
  if (!orders.ok()) {
    return fail("certified orders", orders.status());
  }
  const CertifiedPublisher& pub = (*orders)->publisher();
  trace.push_back("publisher published=" + std::to_string(pub.stats().published) +
                  " retransmits=" + std::to_string(pub.stats().retransmits) +
                  " retired=" + std::to_string(pub.stats().retired) +
                  " pending=" + std::to_string(pub.pending()));
  trace.push_back("subscriber delivered=" + std::to_string((*sub)->stats().delivered) +
                  " dup_dropped=" + std::to_string((*sub)->stats().duplicates_dropped) +
                  " acks=" + std::to_string((*sub)->stats().acks_sent));
  const Network::Stats& ns = net.stats();
  trace.push_back("net sent=" + std::to_string(ns.frames_sent) +
                  " delivered=" + std::to_string(ns.frames_delivered) +
                  " dropped_fault=" + std::to_string(ns.frames_dropped_fault) +
                  " duplicated=" + std::to_string(ns.frames_duplicated));
  if (tap != nullptr) {
    net.DetachTap(tap);
  }
  return trace;
}

}  // namespace ibus::scenario
