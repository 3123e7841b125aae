// Tests for the extension features: request/reply over pub/sub, type gossip, and
// leader election for fault-tolerant server groups.
#include <gtest/gtest.h>

#include "src/rmi/client.h"
#include "src/rmi/election.h"
#include "src/rmi/server.h"
#include "src/services/type_gossip.h"
#include "tests/bus_fixture.h"

namespace ibus {
namespace {

class RequestReplyTest : public BusFixture {};

TEST_F(RequestReplyTest, FirstResponderWins) {
  SetUpBus(3);
  auto client = MakeClient(0, "client");
  auto near_server = MakeClient(0, "near");  // same host: answers fastest
  auto far_server = MakeClient(1, "far");
  auto serve = [](BusClient* bus, const std::string& tag) {
    return bus->Subscribe("svc.time", [bus, tag](const Message& m) {
      if (m.reply_subject.empty()) {
        return;
      }
      Message response;
      response.payload = ToBytes(tag);
      bus->Reply(m, std::move(response)).ok();
    });
  };
  ASSERT_TRUE(serve(near_server.get(), "near").ok());
  ASSERT_TRUE(serve(far_server.get(), "far").ok());
  Settle(10 * kMillisecond);

  std::string winner;
  int responses = 0;
  Message request;
  request.subject = "svc.time";
  ASSERT_TRUE(client
                  ->Request(std::move(request), kSecond,
                            [&](Result<Message> r) {
                              ASSERT_TRUE(r.ok());
                              ++responses;
                              winner = ToString(r->payload);
                            })
                  .ok());
  Settle(2 * kSecond);
  EXPECT_EQ(responses, 1);  // exactly one callback even though both responded
  EXPECT_FALSE(winner.empty());
}

TEST_F(RequestReplyTest, TimesOutWithNoResponder) {
  SetUpBus(1);
  auto client = MakeClient(0, "client");
  Status got;
  Message request;
  request.subject = "svc.ghost";
  ASSERT_TRUE(client
                  ->Request(std::move(request), 100 * kMillisecond,
                            [&](Result<Message> r) { got = r.status(); })
                  .ok());
  Settle();
  EXPECT_EQ(got.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(RequestReplyTest, ReplyWithoutReplySubjectFails) {
  SetUpBus(1);
  auto client = MakeClient(0, "client");
  Message m;
  m.subject = "anything";
  EXPECT_EQ(client->Reply(m, Message{}).code(), StatusCode::kFailedPrecondition);
}

class TypeGossipTest : public BusFixture {};

TEST_F(TypeGossipTest, AnnouncementsPropagateDefinitions) {
  SetUpBus(2);
  TypeRegistry reg_a, reg_b;
  auto bus_a = MakeClient(0, "a");
  auto bus_b = MakeClient(1, "b");
  auto gossip_a = TypeGossip::Create(bus_a.get(), &reg_a).take();
  auto gossip_b = TypeGossip::Create(bus_b.get(), &reg_b).take();
  Settle(10 * kMillisecond);

  // Define a two-level hierarchy on A; B learns it from the announcements.
  TypeDescriptor story("story", "object");
  story.AddAttribute("headline", "string");
  OperationDef op;
  op.name = "summarize";
  op.result_type = "string";
  story.AddOperation(op);
  ASSERT_TRUE(reg_a.Define(story).ok());
  TypeDescriptor dj("dj_story", "story");
  dj.AddAttribute("dj_code", "string");
  ASSERT_TRUE(reg_a.Define(dj).ok());
  Settle();

  ASSERT_TRUE(reg_b.Has("story"));
  ASSERT_TRUE(reg_b.Has("dj_story"));
  EXPECT_TRUE(reg_b.IsSubtype("dj_story", "story"));
  // Full descriptors travel: operations included.
  EXPECT_NE(reg_b.Find("story")->FindOperation("summarize"), nullptr);
  EXPECT_GE(gossip_b->stats().learned, 2u);
}

TEST_F(TypeGossipTest, ResolveFetchesOnDemand) {
  SetUpBus(2);
  TypeRegistry reg_a, reg_b;
  auto bus_a = MakeClient(0, "a");
  auto gossip_a = TypeGossip::Create(bus_a.get(), &reg_a).take();
  // A defines its type BEFORE B exists: B never heard the announcement.
  TypeDescriptor recipe("recipe", "object");
  recipe.AddAttribute("name", "string");
  ASSERT_TRUE(reg_a.Define(recipe).ok());
  Settle();

  auto bus_b = MakeClient(1, "b");
  auto gossip_b = TypeGossip::Create(bus_b.get(), &reg_b).take();
  Settle(10 * kMillisecond);
  ASSERT_FALSE(reg_b.Has("recipe"));

  Status resolved;
  bool done = false;
  gossip_b->Resolve("recipe", 100 * kMillisecond, [&](Status s) {
    resolved = s;
    done = true;
  });
  Settle();
  ASSERT_TRUE(done);
  EXPECT_TRUE(resolved.ok()) << resolved.ToString();
  EXPECT_TRUE(reg_b.Has("recipe"));
  EXPECT_GE(gossip_a->stats().answered, 1u);
}

TEST_F(TypeGossipTest, ResolveUnknownTypeFails) {
  SetUpBus(2);
  TypeRegistry reg_a, reg_b;
  auto bus_a = MakeClient(0, "a");
  auto bus_b = MakeClient(1, "b");
  auto gossip_a = TypeGossip::Create(bus_a.get(), &reg_a).take();
  auto gossip_b = TypeGossip::Create(bus_b.get(), &reg_b).take();
  Settle(10 * kMillisecond);
  Status resolved;
  gossip_b->Resolve("never_defined", 100 * kMillisecond, [&](Status s) { resolved = s; });
  Settle();
  EXPECT_EQ(resolved.code(), StatusCode::kNotFound);
}

TEST_F(TypeGossipTest, AnnounceAllSyncsExistingTypes) {
  SetUpBus(2);
  TypeRegistry reg_a, reg_b;
  auto bus_a = MakeClient(0, "a");
  TypeDescriptor t1("t1", "object");
  ASSERT_TRUE(reg_a.Define(t1).ok());
  auto gossip_a = TypeGossip::Create(bus_a.get(), &reg_a).take();
  auto bus_b = MakeClient(1, "b");
  auto gossip_b = TypeGossip::Create(bus_b.get(), &reg_b).take();
  Settle(10 * kMillisecond);
  ASSERT_FALSE(reg_b.Has("t1"));
  ASSERT_TRUE(gossip_a->AnnounceAll().ok());
  Settle();
  EXPECT_TRUE(reg_b.Has("t1"));
}

class ElectionTest : public BusFixture {};

TEST_F(ElectionTest, HighestIdLeads) {
  SetUpBus(3);
  std::vector<std::unique_ptr<BusClient>> buses;
  std::vector<std::unique_ptr<Election>> members;
  for (int i = 0; i < 3; ++i) {
    buses.push_back(MakeClient(i, "m" + std::to_string(i)));
    members.push_back(Election::Join(buses.back().get(), "grp",
                                     static_cast<uint64_t>(10 + i), nullptr)
                          .take());
  }
  Settle(2 * kSecond);
  EXPECT_FALSE(members[0]->is_leader());
  EXPECT_FALSE(members[1]->is_leader());
  EXPECT_TRUE(members[2]->is_leader());
  EXPECT_EQ(members[0]->leader_id(), 12u);
  EXPECT_EQ(members[1]->leader_id(), 12u);
}

TEST_F(ElectionTest, FailoverOnLeaderCrash) {
  SetUpBus(3);
  std::vector<std::unique_ptr<BusClient>> buses;
  std::vector<std::unique_ptr<Election>> members;
  for (int i = 0; i < 3; ++i) {
    buses.push_back(MakeClient(i, "m" + std::to_string(i)));
    members.push_back(Election::Join(buses.back().get(), "grp",
                                     static_cast<uint64_t>(10 + i), nullptr)
                          .take());
  }
  Settle(2 * kSecond);
  ASSERT_TRUE(members[2]->is_leader());

  net_->SetHostUp(hosts_[2], false);  // the leader's host dies
  Settle(3 * kSecond);
  EXPECT_TRUE(members[1]->is_leader());  // next-highest takes over
  EXPECT_FALSE(members[0]->is_leader());
  EXPECT_EQ(members[0]->leader_id(), 11u);
}

TEST_F(ElectionTest, HigherMemberJoiningTakesOver) {
  SetUpBus(2);
  auto bus_low = MakeClient(0, "low");
  bool low_led = false;
  auto low = Election::Join(bus_low.get(), "grp", 5,
                            [&](bool leader) { low_led = leader; })
                 .take();
  Settle(2 * kSecond);
  ASSERT_TRUE(low->is_leader());
  ASSERT_TRUE(low_led);

  auto bus_high = MakeClient(1, "high");
  auto high = Election::Join(bus_high.get(), "grp", 50, nullptr).take();
  Settle(3 * kSecond);
  EXPECT_TRUE(high->is_leader());
  EXPECT_FALSE(low->is_leader());
  EXPECT_FALSE(low_led);  // demotion callback fired
  EXPECT_EQ(low->leader_id(), 50u);
}

TEST_F(ElectionTest, FaultTolerantServicePairFailsOverBySubject) {
  // The full paper §3.3 story: two servers on one subject; only the elected primary
  // answers discovery; the client never learns server identities and survives the
  // primary's crash by simply re-discovering.
  SetUpBus(3);
  auto make_service = [] {
    auto svc = std::make_shared<DynamicService>("counter");
    OperationDef op;
    op.name = "ping";
    op.result_type = "string";
    svc->AddOperation(op, [](const std::vector<Value>&) -> Result<Value> {
      return Value(std::string("pong"));
    });
    return svc;
  };
  auto bus1 = MakeClient(0, "primary");
  auto bus2 = MakeClient(1, "backup");
  auto server1 = RmiServer::Create(bus1.get(), "svc.ft", make_service()).take();
  auto server2 = RmiServer::Create(bus2.get(), "svc.ft", make_service()).take();
  auto elect1 = Election::Join(bus1.get(), "svc.ft", 100,
                               [s = server1.get()](bool lead) { s->set_answering(lead); })
                    .take();
  auto elect2 = Election::Join(bus2.get(), "svc.ft", 50,
                               [s = server2.get()](bool lead) { s->set_answering(lead); })
                    .take();
  server1->set_answering(false);
  server2->set_answering(false);
  Settle(2 * kSecond);
  ASSERT_TRUE(elect1->is_leader());
  ASSERT_TRUE(server1->answering());
  ASSERT_FALSE(server2->answering());

  // Exactly one server answers discovery.
  auto client_bus = MakeClient(2, "client");
  std::vector<RmiAdvert> adverts;
  RmiClient::Discover(client_bus.get(), "svc.ft", RmiClientConfig{},
                      [&](std::vector<RmiAdvert> a) { adverts = std::move(a); });
  Settle();
  ASSERT_EQ(adverts.size(), 1u);
  EXPECT_EQ(adverts[0].server_name, "primary");

  // The primary's host dies; the backup is elected and answers in its place.
  net_->SetHostUp(hosts_[0], false);
  Settle(3 * kSecond);
  ASSERT_TRUE(elect2->is_leader());
  std::shared_ptr<RemoteService> remote;
  RmiClient::Connect(client_bus.get(), "svc.ft", RmiClientConfig{},
                     [&](auto r) { remote = r.take(); });
  Settle();
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->advert().server_name, "backup");
  std::string pong;
  remote->Call("ping", {}, [&](Result<Value> r) {
    ASSERT_TRUE(r.ok());
    pong = r->AsString();
  });
  Settle();
  EXPECT_EQ(pong, "pong");
}

}  // namespace
}  // namespace ibus

namespace ibus {
namespace {

class BusMonitorTest : public BusFixture {};

TEST_F(BusMonitorTest, CollectorAggregatesFleetStats) {
  SetUpBus(3);
  // The aggregator subscribes first so every node's opening keyframe reaches it.
  auto ops_bus = MakeClient(2, "ops-console");
  auto collector = telemetry::StatsAggregator::Create(ops_bus.get()).take();
  std::vector<std::unique_ptr<BusClient>> reporter_buses;
  std::vector<std::unique_ptr<telemetry::BusStatReporter>> reporters;
  for (int i = 0; i < 3; ++i) {
    reporter_buses.push_back(MakeClient(i, "reporter" + std::to_string(i)));
    reporters.push_back(StartStatReporter(reporter_buses.back().get(), i, 500 * kMillisecond));
  }
  Settle(100 * kMillisecond);

  // Generate traffic so counters move.
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  ASSERT_TRUE(sub->Subscribe("traffic.topic", [](const Message&) {}).ok());
  Settle(100 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pub->Publish("traffic.topic", ToBytes("x")).ok());
  }
  Settle(3 * kSecond);

  ASSERT_EQ(collector->Nodes().size(), 3u);
  const telemetry::DecodedSample* h0 = collector->Latest("host0");
  const telemetry::DecodedSample* h1 = collector->Latest("host1");
  ASSERT_NE(h0, nullptr);
  ASSERT_NE(h1, nullptr);
  EXPECT_GE(h0->values.at(kMetricPublishes), 10);  // the publisher's daemon accepted our traffic
  EXPECT_GE(h1->values.at(kMetricDeliveries), 10);  // the subscriber's daemon delivered it
  EXPECT_GE(h1->values.at(kMetricSubscriptions), 1);
  std::string table = collector->RenderTable();
  EXPECT_NE(table.find("host0"), std::string::npos);
  EXPECT_NE(table.find("host2"), std::string::npos);
}

TEST_F(BusMonitorTest, ReporterStopsWithObject) {
  SetUpBus(1);
  auto bus = MakeClient(0, "r");
  auto collector_bus = MakeClient(0, "c");
  auto collector = telemetry::StatsAggregator::Create(collector_bus.get()).take();
  uint64_t published;
  {
    auto reporter = StartStatReporter(bus.get(), 0, 100 * kMillisecond);
    Settle(kSecond);
    published = reporter->samples_published();
    EXPECT_GT(published, 5u);
  }
  Settle(kSecond);  // destroyed reporter publishes nothing further
  EXPECT_EQ(collector->samples_consumed(), published);
  EXPECT_EQ(collector->Nodes().size(), 1u);
}

}  // namespace
}  // namespace ibus

namespace ibus {
namespace {

class RetryingCallTest : public BusFixture {
 protected:
  std::shared_ptr<DynamicService> PingService() {
    auto svc = std::make_shared<DynamicService>("pinger");
    OperationDef op;
    op.name = "ping";
    op.result_type = "string";
    svc->AddOperation(op, [](const std::vector<Value>&) -> Result<Value> {
      return Value(std::string("pong"));
    });
    return svc;
  }
};

TEST_F(RetryingCallTest, SucceedsFirstTry) {
  SetUpBus(2);
  auto server_bus = MakeClient(1, "server");
  auto server = RmiServer::Create(server_bus.get(), "svc.retry", PingService()).take();
  Settle(10 * kMillisecond);
  auto client_bus = MakeClient(0, "client");
  std::string got;
  RetryingCall(client_bus.get(), "svc.retry", "ping", {}, 3, RmiClientConfig{},
               [&](Result<Value> r) {
                 ASSERT_TRUE(r.ok());
                 got = r->AsString();
               });
  Settle();
  EXPECT_EQ(got, "pong");
}

TEST_F(RetryingCallTest, ExhaustsAttemptsWhenNobodyServes) {
  SetUpBus(1);
  auto client_bus = MakeClient(0, "client");
  RmiClientConfig cfg;
  cfg.discovery_timeout_us = 30 * kMillisecond;
  Status got;
  RetryingCall(client_bus.get(), "svc.ghost", "ping", {}, 3, cfg,
               [&](Result<Value> r) { got = r.status(); });
  Settle(5 * kSecond);
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
}

TEST_F(RetryingCallTest, SurvivesFailoverMidCall) {
  // Primary with election; it dies between discovery rounds; the retrying caller
  // lands on the elected backup without the application noticing anything but delay.
  SetUpBus(3);
  auto bus1 = MakeClient(0, "primary");
  auto bus2 = MakeClient(1, "backup");
  auto server1 = RmiServer::Create(bus1.get(), "svc.ha", PingService()).take();
  auto server2 = RmiServer::Create(bus2.get(), "svc.ha", PingService()).take();
  server1->set_answering(false);
  server2->set_answering(false);
  auto elect1 = Election::Join(bus1.get(), "svc.ha", 100,
                               [s = server1.get()](bool l) { s->set_answering(l); })
                    .take();
  auto elect2 = Election::Join(bus2.get(), "svc.ha", 50,
                               [s = server2.get()](bool l) { s->set_answering(l); })
                    .take();
  Settle(2 * kSecond);
  ASSERT_TRUE(elect1->is_leader());

  // Kill the primary NOW; launch the retrying call immediately after. The first
  // discovery round may return nothing (backup not yet elected) — retries cover it.
  net_->SetHostUp(hosts_[0], false);
  auto client_bus = MakeClient(2, "client");
  RmiClientConfig cfg;
  cfg.discovery_timeout_us = 100 * kMillisecond;
  std::string got;
  RetryingCall(client_bus.get(), "svc.ha", "ping", {}, 10, cfg, [&](Result<Value> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    got = r->AsString();
  });
  Settle(10 * kSecond);
  EXPECT_EQ(got, "pong");
  EXPECT_TRUE(elect2->is_leader());
}

}  // namespace
}  // namespace ibus
