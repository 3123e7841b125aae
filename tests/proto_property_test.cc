// Property tests for the reliable delivery protocol: across a parameter grid of
// loss/duplication/jitter, and mixtures of message sizes, every subscriber sees every
// message exactly once, in per-sender order (paper §3.1 semantics). Degradation cases
// (retention overflow, long partitions) must surface as explicit gaps — never as
// silent duplicates or reordering. A lossless medium must carry no repair traffic at
// all, and heartbeats must never advertise a sequence that has not reached the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "src/proto/packets.h"
#include "tests/bus_fixture.h"

namespace ibus {
namespace {

struct FaultCase {
  double drop;
  double dup;
  SimTime jitter_us;
  bool batching;
};

class ReliableUnderFaultsTest : public BusFixture,
                                public ::testing::WithParamInterface<FaultCase> {};

TEST_P(ReliableUnderFaultsTest, ExactlyOnceInOrder) {
  const FaultCase& fc = GetParam();
  BusConfig cfg;
  cfg.reliable.batching_enabled = fc.batching;
  SetUpBus(3, cfg);

  auto pub = MakeClient(0, "pub");
  auto sub1 = MakeClient(1, "sub1");
  auto sub2 = MakeClient(2, "sub2");
  std::vector<int> got1, got2;
  ASSERT_TRUE(sub1->Subscribe("prop.stream", [&](const Message& m) {
                    got1.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  ASSERT_TRUE(sub2->Subscribe("prop.stream", [&](const Message& m) {
                    got2.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);

  // Latch every receiver onto the stream fault-free first: the exactly-once
  // guarantee is steady-state; where a lossy stream START pins a late joiner is
  // inherently fuzzy ("new subscribers receive new objects", §3.1).
  ASSERT_TRUE(pub->Publish("prop.stream", ToBytes("-1")).ok());
  Settle();
  ASSERT_EQ(got1.size(), 1u);
  ASSERT_EQ(got2.size(), 1u);
  got1.clear();
  got2.clear();

  FaultPlan plan;
  plan.drop_prob = fc.drop;
  plan.dup_prob = fc.dup;
  plan.jitter_us = fc.jitter_us;
  net_->SetFaultPlan(seg_, plan);

  constexpr int kMessages = 120;
  Rng rng(99);
  for (int i = 0; i < kMessages; ++i) {
    // Mix small and fragmented messages.
    size_t size = rng.Chance(0.2) ? 4000 + rng.NextBelow(4000) : 8 + rng.NextBelow(200);
    Bytes payload = ToBytes(std::to_string(i));
    payload.resize(std::max(payload.size(), size), '.');
    // Keep the numeric prefix parseable.
    ASSERT_TRUE(pub->Publish("prop.stream", payload).ok());
    if (i % 10 == 0) {
      Settle(20 * kMillisecond);
    }
  }
  Settle(30 * kSecond);

  for (const std::vector<int>* got : {&got1, &got2}) {
    ASSERT_EQ(got->size(), static_cast<size_t>(kMessages))
        << "drop=" << fc.drop << " dup=" << fc.dup << " jitter=" << fc.jitter_us;
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ((*got)[static_cast<size_t>(i)], i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, ReliableUnderFaultsTest,
    ::testing::Values(FaultCase{0.0, 0.0, 0, false}, FaultCase{0.1, 0.0, 0, false},
                      FaultCase{0.3, 0.0, 0, false}, FaultCase{0.0, 0.3, 0, false},
                      FaultCase{0.0, 0.0, 2000, false}, FaultCase{0.15, 0.15, 1000, false},
                      FaultCase{0.1, 0.0, 0, true}, FaultCase{0.2, 0.2, 1500, true}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const FaultCase& c = info.param;
      return "drop" + std::to_string(static_cast<int>(c.drop * 100)) + "_dup" +
             std::to_string(static_cast<int>(c.dup * 100)) + "_jit" +
             std::to_string(c.jitter_us) + (c.batching ? "_batch" : "_nobatch");
    });

class ProtoDegradationTest : public BusFixture {};

TEST_F(ProtoDegradationTest, RetentionOverflowSurfacesAsGapNotDuplicates) {
  BusConfig cfg;
  cfg.reliable.retain_messages = 16;  // tiny retransmit buffer
  SetUpBus(2, cfg);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("gap.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);

  // Latch the stream first so the receiver knows what it later misses.
  ASSERT_TRUE(pub->Publish("gap.stream", ToBytes("-1")).ok());
  Settle();
  ASSERT_EQ(got.size(), 1u);
  got.clear();

  // Partition the subscriber, publish far beyond the retention window, then heal.
  net_->SetPartitionGroups({{hosts_[1], 1}});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pub->Publish("gap.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(3 * kSecond);
  EXPECT_TRUE(got.empty());
  net_->SetPartitionGroups({});
  for (int i = 100; i < 110; ++i) {
    ASSERT_TRUE(pub->Publish("gap.stream", ToBytes(std::to_string(i))).ok());
    Settle(100 * kMillisecond);
  }
  Settle(10 * kSecond);

  // At-most-once degradation: some prefix was lost for good, but whatever was
  // delivered is duplicate-free and strictly increasing, and the tail arrives.
  ASSERT_FALSE(got.empty());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1], got[i]);
  }
  EXPECT_EQ(got.back(), 109);
  EXPECT_GT(daemons_[1]->receiver_stats().gaps, 0u);
}

TEST_F(ProtoDegradationTest, ShortPartitionFullyRecovers) {
  SetUpBus(2);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("heal.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pub->Publish("heal.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle();
  net_->SetPartitionGroups({{hosts_[1], 1}});
  for (int i = 10; i < 30; ++i) {  // well within the retention window
    ASSERT_TRUE(pub->Publish("heal.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(200 * kMillisecond);
  net_->SetPartitionGroups({});
  for (int i = 30; i < 40; ++i) {
    ASSERT_TRUE(pub->Publish("heal.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(10 * kSecond);

  // Everything missed during the partition is NAK-recovered: exactly once, in order.
  ASSERT_EQ(got.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i);
  }
}

TEST_F(ProtoDegradationTest, TailLossRecoveredViaHeartbeat) {
  SetUpBus(2);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("tail.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);
  ASSERT_TRUE(pub->Publish("tail.stream", ToBytes("0")).ok());
  Settle();
  ASSERT_EQ(got.size(), 1u);

  // Drop everything briefly: the last message of a burst vanishes with no successor
  // to reveal the gap — only a heartbeat can. An idle stream heartbeats 100, 200, 400
  // and 800 ms after its last message; the longer windows also swallow the first one
  // or the first three, so the tail rides on the 400 ms or the 800 ms heartbeat.
  FaultPlan lossy;
  lossy.drop_prob = 1.0;
  int tail = 0;
  for (SimTime loss_window : {30 * kMillisecond, 150 * kMillisecond, 450 * kMillisecond}) {
    ++tail;
    net_->SetFaultPlan(seg_, lossy);
    ASSERT_TRUE(pub->Publish("tail.stream", ToBytes(std::to_string(tail))).ok());
    Settle(loss_window);
    net_->SetFaultPlan(seg_, FaultPlan{});
    Settle(10 * kSecond);

    ASSERT_EQ(got.size(), static_cast<size_t>(tail + 1)) << "loss window " << loss_window;
    EXPECT_EQ(got.back(), tail);
  }
}

TEST_F(ProtoDegradationTest, ManyPublishersDoNotInterfere) {
  SetUpBus(6);
  FaultPlan plan;
  plan.drop_prob = 0.1;
  net_->SetFaultPlan(seg_, plan);
  std::vector<std::unique_ptr<BusClient>> pubs;
  for (int i = 0; i < 5; ++i) {
    pubs.push_back(MakeClient(i, "pub" + std::to_string(i)));
  }
  auto sub = MakeClient(5, "sub");
  // Per-sender order must hold independently; cross-sender order is unspecified.
  std::map<std::string, std::vector<int>> got;
  ASSERT_TRUE(sub->Subscribe("multi.>", [&](const Message& m) {
                    got[m.sender].push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(50 * kMillisecond);
  for (int round = 0; round < 40; ++round) {
    for (int p = 0; p < 5; ++p) {
      ASSERT_TRUE(pubs[static_cast<size_t>(p)]
                      ->Publish("multi.p" + std::to_string(p), ToBytes(std::to_string(round)))
                      .ok());
    }
  }
  Settle(20 * kSecond);
  ASSERT_EQ(got.size(), 5u);
  for (const auto& [sender, seq] : got) {
    ASSERT_EQ(seq.size(), 40u) << sender;
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(seq[static_cast<size_t>(i)], i) << sender;
    }
  }
}

// Records every medium transmission once (a broadcast fans out into one record per
// receiver, all sharing its tx_id).
class TxLog : public NetworkTap {
 public:
  void OnFrame(const CapturedFrame& frame) override {
    if (seen_.insert(frame.tx_id).second) {
      frames_.push_back(frame);
    }
  }
  // Transmissions in the order they were handed to the medium.
  std::vector<CapturedFrame> InSendOrder() const {
    std::vector<CapturedFrame> out = frames_;
    std::sort(out.begin(), out.end(), [](const CapturedFrame& a, const CapturedFrame& b) {
      return a.index < b.index;
    });
    return out;
  }

 private:
  std::unordered_set<uint64_t> seen_;
  std::vector<CapturedFrame> frames_;
};

// The paper's testbed as perfbench's lan_fanout runs it: 15 hosts on a calibrated
// 10 Mbit/s LAN (4.3 ms of SunOS send cost per frame, 250 us jitter, no loss), batching
// on, four publishers with Poisson arrivals at 50 msg/s in all, every host subscribed.
class LosslessBatchingLanTest : public BusFixture {
 protected:
  static constexpr int kHosts = 15;
  static constexpr int kPublishers = 4;

  void RunFanout(SimTime duration) {
    BusConfig cfg;
    cfg.reliable.batching_enabled = true;
    cfg.announce_subscriptions = false;
    SegmentConfig segment;
    segment.host_cpu_us_per_frame = 4300;
    SetUpBus(kHosts, cfg, segment);
    FaultPlan jitter;
    jitter.jitter_us = 250;
    net_->SetFaultPlan(seg_, jitter);
    net_->AttachTap(&log_);
    for (int h = 0; h < kHosts; ++h) {
      subs_.push_back(MakeClient(h, "sub" + std::to_string(h)));
      ASSERT_TRUE(subs_.back()->Subscribe("fanout.>", [this](const Message&) {
                                 ++delivered_;
                               }).ok());
    }
    for (int p = 0; p < kPublishers; ++p) {
      pubs_.push_back(MakeClient(p, "pub" + std::to_string(p)));
    }
    Settle(50 * kMillisecond);

    Rng rng(16);
    const SimTime start = sim_.Now();
    SimTime at = start;
    while (true) {
      at += static_cast<SimTime>(-std::log(1.0 - rng.NextDouble()) * kSecond / 50.0);
      if (at >= start + duration) {
        break;
      }
      BusClient* pub = pubs_[rng.NextBelow(kPublishers)].get();
      sim_.ScheduleAt(at, [this, pub] {
        ASSERT_TRUE(pub->Publish("fanout.p", Bytes(128, 'x')).ok());
        ++published_;
      });
    }
    Settle(duration + 5 * kSecond);
    net_->DetachTap(&log_);
  }

  TxLog log_;
  std::vector<std::unique_ptr<BusClient>> subs_;
  std::vector<std::unique_ptr<BusClient>> pubs_;
  uint64_t published_ = 0;
  uint64_t delivered_ = 0;
};

TEST_F(LosslessBatchingLanTest, NoRepairTrafficOnLosslessLan) {
  RunFanout(10 * kSecond);
  ASSERT_GT(published_, 400u);
  EXPECT_EQ(delivered_, published_ * kHosts);
  uint64_t naks = 0, retransmits = 0, duplicates = 0, batches = 0;
  for (const auto& d : daemons_) {
    naks += d->receiver_stats().naks_sent;
    duplicates += d->receiver_stats().duplicates_dropped;
    retransmits += d->sender_stats().retransmits;
    batches += d->sender_stats().batches_sent;
  }
  EXPECT_GT(batches, 0u);  // the scenario must exercise the batch buffer
  EXPECT_EQ(naks, 0u);
  EXPECT_EQ(retransmits, 0u);
  EXPECT_EQ(duplicates, 0u);
}

TEST_F(LosslessBatchingLanTest, HeartbeatsNeverAdvertiseUnsentSequences) {
  RunFanout(10 * kSecond);
  std::map<uint64_t, uint64_t> highest_sent;  // stream -> highest seq in a DATA/BATCH
  size_t heartbeats = 0;
  for (const CapturedFrame& f : log_.InSendOrder()) {
    auto frame = ParseFrame(f.payload);
    ASSERT_TRUE(frame.ok());
    if (frame->frame_type == kPktData) {
      auto pkt = DataPacket::Unmarshal(frame->payload);
      ASSERT_TRUE(pkt.ok());
      highest_sent[pkt->stream_id] = std::max(highest_sent[pkt->stream_id], pkt->seq);
    } else if (frame->frame_type == kPktBatch) {
      auto pkt = BatchPacket::Unmarshal(frame->payload);
      ASSERT_TRUE(pkt.ok());
      const uint64_t last = pkt->first_seq + pkt->messages.size() - 1;
      highest_sent[pkt->stream_id] = std::max(highest_sent[pkt->stream_id], last);
    } else if (frame->frame_type == kPktHeartbeat) {
      auto hb = HeartbeatPacket::Unmarshal(frame->payload);
      ASSERT_TRUE(hb.ok());
      ++heartbeats;
      EXPECT_LE(hb->highest_seq, highest_sent[hb->stream_id])
          << "stream " << hb->stream_id << " at " << f.sent_at;
      EXPECT_LE(hb->lowest_retained, hb->highest_seq + 1);
    }
  }
  EXPECT_GT(heartbeats, 0u);
}

TEST_F(ProtoDegradationTest, LateJoinerReceivesBatchPendingAtItsFirstHeartbeat) {
  BusConfig cfg;
  cfg.reliable.batching_enabled = true;
  SetUpBus(2, cfg);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<std::string> got;
  ASSERT_TRUE(sub->Subscribe("late.stream", [&](const Message& m) {
                    got.push_back(ToString(m.payload));
                  }).ok());
  Settle(2 * kSecond);

  // The subscriber's host misses the stream's first message and first heartbeat, so
  // the first frame it hears is the tick-2 heartbeat, sent 1 ms into a 2 ms batch
  // window holding two messages.
  net_->SetPartitionGroups({{hosts_[1], 1}});
  ASSERT_TRUE(pub->Publish("late.stream", ToBytes("missed")).ok());
  Settle(150 * kMillisecond);
  net_->SetPartitionGroups({});
  Settle(49 * kMillisecond);
  ASSERT_TRUE(pub->Publish("late.stream", ToBytes("a")).ok());
  ASSERT_TRUE(pub->Publish("late.stream", ToBytes("b")).ok());
  Settle(2 * kSecond);

  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(daemons_[1]->receiver_stats().duplicates_dropped, 0u);
}

TEST_F(ProtoDegradationTest, MidBatchHeartbeatDeclaresNoGapWhenBatchOutgrowsRetention) {
  BusConfig cfg;
  cfg.reliable.batching_enabled = true;
  cfg.reliable.retain_messages = 4;  // fewer than one batch holds
  SetUpBus(2, cfg);
  auto pub = MakeClient(0, "pub");
  auto sub = MakeClient(1, "sub");
  std::vector<int> got;
  ASSERT_TRUE(sub->Subscribe("small.stream", [&](const Message& m) {
                    got.push_back(std::stoi(ToString(m.payload)));
                  }).ok());
  Settle(2 * kSecond);

  // The first heartbeat goes out 1 ms into a batch of ten whose head has already
  // left the retention window. Nothing was lost, so it must not declare a gap.
  ASSERT_TRUE(pub->Publish("small.stream", ToBytes("0")).ok());
  Settle(99 * kMillisecond);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(pub->Publish("small.stream", ToBytes(std::to_string(i))).ok());
  }
  Settle(2 * kSecond);

  ASSERT_EQ(got.size(), 11u);
  for (int i = 0; i <= 10; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(daemons_[1]->receiver_stats().gaps, 0u);
}

TEST_F(ProtoDegradationTest, IdleHeartbeatsThinOutBelowGiveUp) {
  SetUpBus(2);
  TxLog log;
  net_->AttachTap(&log);
  auto pub = MakeClient(0, "pub");
  Settle(2 * kSecond);
  ASSERT_TRUE(pub->Publish("idle.stream", ToBytes("only")).ok());
  Settle(5 * kSecond);
  net_->DetachTap(&log);

  // Send times of the heartbeats on the stream that carried the DATA frame.
  uint64_t stream = 0;
  std::vector<SimTime> hbs;
  for (const CapturedFrame& f : log.InSendOrder()) {
    auto frame = ParseFrame(f.payload);
    ASSERT_TRUE(frame.ok());
    if (frame->frame_type == kPktData) {
      auto pkt = DataPacket::Unmarshal(frame->payload);
      ASSERT_TRUE(pkt.ok());
      stream = pkt->stream_id;
    } else if (frame->frame_type == kPktHeartbeat) {
      auto hb = HeartbeatPacket::Unmarshal(frame->payload);
      ASSERT_TRUE(hb.ok());
      if (hb->stream_id == stream) {
        EXPECT_EQ(hb->highest_seq, 1u);
        hbs.push_back(f.sent_at);
      }
    }
  }
  // Idle ticks 1, 2, 4 and 8 after the message, then the 1 s idle cutoff.
  ASSERT_EQ(hbs.size(), 4u);
  const std::vector<SimTime> want_gaps = {100 * kMillisecond, 200 * kMillisecond,
                                          400 * kMillisecond};
  for (size_t i = 1; i < hbs.size(); ++i) {
    const SimTime gap = hbs[i] - hbs[i - 1];
    EXPECT_EQ(gap, want_gaps[i - 1]) << "heartbeat " << i;
    EXPECT_LT(gap, config_.reliable.sender_silence_give_up_us) << "heartbeat " << i;
  }
}

}  // namespace
}  // namespace ibus
