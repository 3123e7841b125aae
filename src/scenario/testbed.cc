#include "src/scenario/testbed.h"

namespace ibus::scenario {

namespace {

constexpr Port kRouterPort = 8700;

}  // namespace

std::string DeliveryLine(SimTime t, const std::string& who, const Message& m) {
  return "t=" + std::to_string(t) + " " + who + " subj=" + m.subject +
         " payload=" + ToString(m.payload);
}

Result<std::unique_ptr<WanTestbed>> WanTestbed::Start(uint64_t seed, const BusConfig& config) {
  std::unique_ptr<WanTestbed> bed(new WanTestbed(seed));
  Network& net = bed->net_;
  bed->lan_a_ = net.AddSegment();
  bed->lan_b_ = net.AddSegment();
  bed->a0_ = net.AddHost("a0", bed->lan_a_);
  bed->b0_ = net.AddHost("b0", bed->lan_b_);
  bed->a1_ = net.AddHost("a1", bed->lan_a_);
  bed->b1_ = net.AddHost("b1", bed->lan_b_);
  for (HostId h : {bed->a0_, bed->a1_, bed->b0_, bed->b1_}) {
    auto d = BusDaemon::Start(&net, h, config);
    if (!d.ok()) {
      return d.status();
    }
    bed->daemons_.push_back(d.take());
  }
  return bed;
}

Status WanTestbed::ConnectRouters() {
  auto bus_a = BusClient::Connect(&net_, a0_, "_router:A");
  auto bus_b = BusClient::Connect(&net_, b0_, "_router:B");
  if (!bus_a.ok() || !bus_b.ok()) {
    return bus_a.ok() ? bus_b.status() : bus_a.status();
  }
  router_bus_a_ = bus_a.take();
  router_bus_b_ = bus_b.take();
  auto ra = InfoRouter::Listen(router_bus_a_.get(), "_router:A", kRouterPort);
  if (!ra.ok()) {
    return ra.status();
  }
  router_a_ = ra.take();
  sim_.RunFor(50 * kMillisecond);
  auto rb = InfoRouter::Connect(router_bus_b_.get(), "_router:B", a0_, kRouterPort);
  if (!rb.ok()) {
    return rb.status();
  }
  router_b_ = rb.take();
  return OkStatus();
}

void WanTestbed::StopRouters() {
  router_b_.reset();
  router_a_.reset();
  router_bus_b_.reset();
  router_bus_a_.reset();
}

void WanTestbed::SetFaults(const FaultPlan& plan) {
  net_.SetFaultPlan(lan_a_, plan);
  net_.SetFaultPlan(lan_b_, plan);
}

Result<std::unique_ptr<CertifiedOrders>> CertifiedOrders::Run(WanTestbed* bed,
                                                              const BusConfig& producer_config) {
  // Faults only after the handshake so every replay starts aligned; the certified
  // layer's NAK/retransmit traffic is what the capture and the profile exist to show.
  FaultPlan faults;
  faults.drop_prob = 0.10;
  faults.jitter_us = 300;
  bed->SetFaults(faults);

  std::unique_ptr<CertifiedOrders> run(new CertifiedOrders());
  auto bus = BusClient::Connect(&bed->net(), bed->a1(), "producer", producer_config);
  if (!bus.ok()) {
    return bus.status();
  }
  run->bus_ = bus.take();
  journal::JournalConfig ledger_config;
  ledger_config.sim = &bed->sim();  // write-through (deadline 0): legacy stable-write timing
  auto ledger = journal::Journal::Open(&run->store_, ledger_config);
  if (!ledger.ok()) {
    return ledger.status();
  }
  run->ledger_ = ledger.take();
  auto pub = CertifiedPublisher::Create(run->bus_.get(), run->ledger_.get(), "orders-ledger");
  if (!pub.ok()) {
    return pub.status();
  }
  run->pub_ = pub.take();
  for (int i = 0; i < 5; ++i) {
    IBUS_RETURN_IF_ERROR(
        run->pub_->Publish("orders.new", ToBytes("order" + std::to_string(i))));
    bed->sim().RunFor(100 * kMillisecond);
  }
  bed->sim().RunFor(5 * kSecond);
  return run;
}

}  // namespace ibus::scenario
