// Shared test fixture: a LAN segment with N hosts, a daemon per host, and helpers for
// creating clients. Used by bus, rmi, router, and service tests.
#ifndef TESTS_BUS_FIXTURE_H_
#define TESTS_BUS_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/telemetry/busstat.h"

namespace ibus {

class BusFixture : public ::testing::Test {
 protected:
  void SetUpBus(int n_hosts, const BusConfig& config = BusConfig(),
                const SegmentConfig& segment = SegmentConfig()) {
    config_ = config;
    net_ = std::make_unique<Network>(&sim_);
    seg_ = net_->AddSegment(segment);
    for (int i = 0; i < n_hosts; ++i) {
      hosts_.push_back(net_->AddHost("host" + std::to_string(i), seg_));
      auto daemon = BusDaemon::Start(net_.get(), hosts_.back(), config_);
      ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
      daemons_.push_back(daemon.take());
    }
  }

  std::unique_ptr<BusClient> MakeClient(int host_index, const std::string& name) {
    auto client = BusClient::Connect(net_.get(), hosts_[static_cast<size_t>(host_index)], name,
                                     config_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? client.take() : nullptr;
  }

  // Host `host_index`'s busstat feed: its daemon's registry and sketches, published
  // on `bus` as node "host<i>" every `interval_us`. Callers link ibus_busstat.
  std::unique_ptr<telemetry::BusStatReporter> StartStatReporter(BusClient* bus, int host_index,
                                                                SimTime interval_us) {
    const auto h = static_cast<size_t>(host_index);
    telemetry::BusStatReporterOptions options;
    options.interval_us = interval_us;
    auto rep = telemetry::BusStatReporter::Create(
        bus, net_->HostName(hosts_[h]), daemons_[h]->metrics(), &daemons_[h]->subject_sketch(),
        &daemons_[h]->peer_sketch(), options);
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    return rep.ok() ? rep.take() : nullptr;
  }

  // Convenience: settle all in-flight traffic (bounded to avoid heartbeat loops).
  void Settle(SimTime duration = 2 * kSecond) { sim_.RunFor(duration); }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  SegmentId seg_ = 0;
  BusConfig config_;
  std::vector<HostId> hosts_;
  std::vector<std::unique_ptr<BusDaemon>> daemons_;
};

}  // namespace ibus

#endif  // TESTS_BUS_FIXTURE_H_
