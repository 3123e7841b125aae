// The paper's wide-area configuration (§3.1): two Ethernets joined by an
// information-router pair. Every WAN scenario in the repo runs on this one testbed —
// the buscap, busprof and busstat demos, the journal router crash, and the replay
// gates — so they all describe the same hosts, daemons and router handshake.
#ifndef SRC_SCENARIO_TESTBED_H_
#define SRC_SCENARIO_TESTBED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/certified.h"
#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/journal/journal.h"
#include "src/router/router.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/stable_store.h"

namespace ibus::scenario {

class WanTestbed {
 public:
  // Builds LAN A and LAN B, adds hosts a0, b0, a1, b1 (in that order) and starts a
  // daemon with `config` on a0, a1, b0, b1. Nothing has run yet: callers may attach
  // a tap or a simulator observer and still see the first frame and event.
  static Result<std::unique_ptr<WanTestbed>> Start(uint64_t seed, const BusConfig& config);

  // Connects the router clients "_router:A" on a0 and "_router:B" on b0, listens on
  // A, runs 50 ms and connects B to A. Callers settle afterwards. After
  // StopRouters, a second call restarts the pair on the same port.
  Status ConnectRouters();
  // Crashes the router pair: both routers, then both router clients, B before A.
  void StopRouters();

  // Sets `plan` on both LANs.
  void SetFaults(const FaultPlan& plan);

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  SegmentId lan_a() const { return lan_a_; }
  SegmentId lan_b() const { return lan_b_; }
  HostId a0() const { return a0_; }
  HostId a1() const { return a1_; }
  HostId b0() const { return b0_; }
  HostId b1() const { return b1_; }
  // The daemons on a0, a1, b0, b1, in that order.
  const std::vector<std::unique_ptr<BusDaemon>>& daemons() const { return daemons_; }
  InfoRouter* router_a() const { return router_a_.get(); }
  InfoRouter* router_b() const { return router_b_.get(); }
  BusClient* router_bus_a() const { return router_bus_a_.get(); }
  BusClient* router_bus_b() const { return router_bus_b_.get(); }

 private:
  explicit WanTestbed(uint64_t seed) : net_(&sim_, seed) {}

  Simulator sim_;
  Network net_;
  SegmentId lan_a_ = 0;
  SegmentId lan_b_ = 0;
  HostId a0_ = kNoHost, a1_ = kNoHost, b0_ = kNoHost, b1_ = kNoHost;
  std::vector<std::unique_ptr<BusDaemon>> daemons_;
  std::unique_ptr<BusClient> router_bus_a_;
  std::unique_ptr<BusClient> router_bus_b_;
  std::unique_ptr<InfoRouter> router_a_;
  std::unique_ptr<InfoRouter> router_b_;
};

// One delivery as the scenario traces print it: "t=<us> <who> subj=<s> payload=<p>".
std::string DeliveryLine(SimTime t, const std::string& who, const Message& m);

// The certified-orders workload of the buscap and busprof demos: 10% loss and
// 300 µs jitter go up on both LANs, a journaled certified publisher on a1 (its
// client built with `producer_config`) sends five orders 100 ms apart, and the run
// drains for 5 s. The returned object keeps the publisher alive for its stats.
class CertifiedOrders {
 public:
  static Result<std::unique_ptr<CertifiedOrders>> Run(WanTestbed* bed,
                                                      const BusConfig& producer_config);

  const CertifiedPublisher& publisher() const { return *pub_; }

 private:
  CertifiedOrders() = default;

  std::unique_ptr<BusClient> bus_;
  MemoryStableStore store_;
  std::unique_ptr<journal::Journal> ledger_;
  std::unique_ptr<CertifiedPublisher> pub_;
};

}  // namespace ibus::scenario

#endif  // SRC_SCENARIO_TESTBED_H_
