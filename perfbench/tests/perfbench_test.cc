// Unit tests of the benchmark itself: its statistics rules, its span arithmetic, its
// allocation hook (cross-checked against bench/hot_path_allocs) and its workloads.
// Run with: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/alloc_hook.h"
#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/episode.h"
#include "src/stats.h"
#include "src/subject/subject.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> xs;
  for (int i = 1; i <= n; ++i) {
    xs.push_back(i);
  }
  return xs;
}

TEST(Percentile, NearestRank) {
  std::vector<double> xs = Iota(100);
  EXPECT_EQ(Percentile(&xs, 0.5), 50);
  EXPECT_EQ(Percentile(&xs, 0.99), 99);
  EXPECT_EQ(Percentile(&xs, 1.0), 100);
  EXPECT_EQ(Percentile(&xs, 0.0), 1);
  std::vector<double> one{7};
  EXPECT_EQ(Percentile(&one, 0.99), 7);
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(Percentile(&none, 0.5)));
  std::vector<double> unsorted{5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(&unsorted, 0.5), 3);
  EXPECT_EQ(Median({9, 1, 5}), 5);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  // The rule counts samples strictly above the reported one.
  std::vector<double> xs = Iota(1000);
  double p99 = Percentile(&xs, 0.99);
  size_t above = 0;
  for (double x : xs) {
    above += x > p99 ? 1 : 0;
  }
  EXPECT_EQ(above, SamplesBeyond(1000, 0.99));
}

// A synthetic system whose p99 grows with the offered rate.
Rung SyntheticRung(double rate, double p99_us) {
  Rung r;
  r.rate = rate;
  r.p99_us = p99_us;
  r.samples = 5000;
  r.backlog_end = 0;
  r.backlog_allowed = 100;
  return r;
}

TEST(Ladder, InterpolatesInsideTheFailingBracket) {
  const double limit = 1000;
  // p99 = 10 * rate^2: crosses the limit at rate 10.
  auto measure = [](double rate) { return SyntheticRung(rate, 10 * rate * rate); };
  LadderOutcome out = FindSustainableRate({2, 4, 8, 16, 32}, 3, limit, measure);
  EXPECT_FALSE(out.exhausted);
  EXPECT_NEAR(out.sustainable_rate, 10.0, 1e-9);  // power law: log-log is exact
  EXPECT_EQ(out.trail.size(), 4u + 3u);           // rungs up to 16, then 3 bisections
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(out.trail[i].rate, out.trail[i - 1].rate);
  }
}

TEST(Ladder, NeverExceedsTheFirstFailingRung) {
  auto measure = [](double rate) { return SyntheticRung(rate, rate < 5 ? 10 : 1e9); };
  LadderOutcome out = FindSustainableRate({1, 2, 4, 8}, 3, 1000, measure);
  EXPECT_GE(out.sustainable_rate, 4);
  EXPECT_LT(out.sustainable_rate, 8);
}

TEST(Ladder, FirstRungFailing) {
  auto measure = [](double rate) { return SyntheticRung(rate, 5000); };
  LadderOutcome out = FindSustainableRate({1, 2, 4}, 3, 1000, measure);
  EXPECT_EQ(out.sustainable_rate, 0);
  EXPECT_EQ(out.trail.size(), 1u);
}

TEST(Ladder, ExhaustedLadderReportsTopRung) {
  auto measure = [](double rate) { return SyntheticRung(rate, 1); };
  LadderOutcome out = FindSustainableRate({1, 2, 4}, 3, 1000, measure);
  EXPECT_TRUE(out.exhausted);
  EXPECT_EQ(out.sustainable_rate, 4);
}

TEST(Ladder, BacklogGrowthAndMissingDeliveriesFailARung) {
  Rung ok = SyntheticRung(10, 100);
  EXPECT_TRUE(RungSustainable(ok, 1000));
  Rung backlog = ok;
  backlog.backlog_end = backlog.backlog_allowed + 1;
  EXPECT_FALSE(RungSustainable(backlog, 1000));
  Rung missing = ok;
  missing.p99_us = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(RungSustainable(missing, 1000));
  Rung aborted = ok;
  aborted.aborted = true;
  EXPECT_FALSE(RungSustainable(aborted, 1000));
  Rung thin = ok;
  thin.samples = 999;  // p99 without ten samples beyond it
  EXPECT_FALSE(RungSustainable(thin, 1000));
  // A collapse (missing deliveries) is not interpolated: the result stays at the last
  // sustainable rate the bisection found.
  auto measure = [](double rate) {
    Rung r = SyntheticRung(rate, 100);
    if (rate > 6) {
      r.p99_us = std::numeric_limits<double>::infinity();
    }
    return r;
  };
  LadderOutcome out = FindSustainableRate({2, 4, 8}, 2, 1000, measure);
  EXPECT_DOUBLE_EQ(out.sustainable_rate, std::sqrt(4.0 * 8.0));  // 5.66 passes, 6.73 fails
}

TEST(SpanStack, SelfTimeSubtractsDirectChildren) {
  // A[0,100] { B[10,30] C[40,90] { D[50,60] } }; allocation counter runs alongside.
  SpanStack s(4);
  s.Open(0, 0, 0);
  s.Open(1, 10, 1);
  EXPECT_EQ(s.Close(30, 3).dur_ns, 20);
  s.Open(2, 40, 5);
  s.Open(3, 50, 6);
  s.Close(60, 10);
  s.Close(90, 12);
  SpanStack::Closed a = s.Close(100, 20);
  EXPECT_EQ(a.start_ns, 0);
  EXPECT_EQ(a.dur_ns, 100);
  EXPECT_EQ(a.allocs, 20u);
  const auto& t = s.totals();
  EXPECT_EQ(t[0].self_ns, 100 - 20 - 50);
  EXPECT_EQ(t[1].self_ns, 20);
  EXPECT_EQ(t[2].self_ns, 50 - 10);
  EXPECT_EQ(t[3].self_ns, 10);
  EXPECT_EQ(t[0].self_ns + t[1].self_ns + t[2].self_ns + t[3].self_ns, 100);
  EXPECT_EQ(t[0].total_ns, 100);
  EXPECT_EQ(t[0].self_allocs, 20u - 2u - 7u);
  EXPECT_EQ(t[2].self_allocs, 7u - 4u);
  EXPECT_EQ(t[3].self_allocs, 4u);
  EXPECT_EQ(s.depth(), 0u);
}

TEST(SpanStack, KeyOverrideFilesTheSpanLate) {
  SpanStack s(2);
  s.Open(0, 0, 0);
  s.Close(5, 0, 3);  // decided at close: filed under key 3
  ASSERT_EQ(s.totals().size(), 4u);
  EXPECT_EQ(s.totals()[0].count, 0u);
  EXPECT_EQ(s.totals()[3].count, 1u);
  EXPECT_EQ(s.totals()[3].self_ns, 5);
}

// Reproduces bench/hot_path_allocs (2 hosts, batching off, 200 warm-up and 500 measured
// 128-byte messages) and checks the hook counts what that bench's own hook counts.
TEST(AllocHook, ReproducesHotPathAllocs) {
  ibus::Simulator sim;
  ibus::Network net(&sim);
  ibus::SegmentConfig seg;
  seg.host_cpu_us_per_frame = 4300;
  ibus::SegmentId lan = net.AddSegment(seg);
  ibus::BusConfig cfg;
  cfg.reliable.batching_enabled = false;
  cfg.announce_subscriptions = false;
  std::vector<std::unique_ptr<ibus::BusDaemon>> daemons;
  std::vector<std::unique_ptr<ibus::BusClient>> clients;
  for (int i = 0; i < 2; ++i) {
    ibus::HostId h = net.AddHost("host" + std::to_string(i), lan);
    daemons.push_back(ibus::BusDaemon::Start(&net, h, cfg).take());
  }
  for (int i = 0; i < 2; ++i) {
    clients.push_back(ibus::BusClient::Connect(&net, static_cast<ibus::HostId>(i),
                                               "client" + std::to_string(i), cfg)
                          .take());
  }
  sim.RunFor(50 * ibus::kMillisecond);
  int delivered = 0;
  ASSERT_TRUE(clients[1]->Subscribe("bench.hot", [&](const ibus::Message&) { ++delivered; }).ok());
  sim.RunFor(50 * ibus::kMillisecond);
  ibus::Bytes payload(128, 0xA5);
  for (int i = 0; i < 8; ++i) {
    payload[static_cast<size_t>(i)] = static_cast<uint8_t>(sim.Now() >> (8 * i));
  }
  for (int i = 0; i < 200; ++i) {
    clients[0]->Publish("bench.hot", payload).ok();
    sim.RunFor(5 * ibus::kMillisecond);
  }
  sim.RunFor(1 * ibus::kSecond);
  const int before = delivered;
  const uint64_t a0 = AllocCount();
  for (int i = 0; i < 500; ++i) {
    clients[0]->Publish("bench.hot", payload).ok();
    sim.RunFor(5 * ibus::kMillisecond);
  }
  sim.RunFor(1 * ibus::kSecond);
  const uint64_t allocs = AllocCount() - a0;
  ASSERT_EQ(delivered - before, 500);
  char per_msg[32];
  std::snprintf(per_msg, sizeof(per_msg), "%.3f", static_cast<double>(allocs) / 500.0);
  EXPECT_STREQ(per_msg, "80.744");
}

TEST(Workloads, ReferenceMatcherAgreesWithTheLibrary) {
  const char* patterns[] = {"a.b", "a.*", "a.>", "*.b", ">", "a.*.c", "a.b.>", "news.*.t07"};
  const char* subjects[] = {"a", "a.b", "a.c", "a.b.c", "b.b", "news.fx.t07", "news.fx.t70"};
  for (const char* p : patterns) {
    for (const char* s : subjects) {
      EXPECT_EQ(PatternMatches(p, s), ibus::SubjectMatches(p, s)) << p << " vs " << s;
    }
  }
}

TEST(Workloads, InputsAreAFunctionOfTheSeed) {
  for (const WorkloadSpec& spec : Workloads()) {
    std::unique_ptr<World> world = World::Build(spec, 7);
    ASSERT_NE(world, nullptr) << spec.name;
    auto a = Generate(*world, 7, spec.base_rate, 0, 20 * ibus::kSecond);
    auto b = Generate(*world, 7, spec.base_rate, 0, 20 * ibus::kSecond);
    auto c = Generate(*world, 8, spec.base_rate, 0, 20 * ibus::kSecond);
    EXPECT_EQ(DigestArrivals(a), DigestArrivals(b)) << spec.name;
    EXPECT_NE(DigestArrivals(a), DigestArrivals(c)) << spec.name;
    // Open loop at the base rate: about rate x window arrivals, in time order.
    EXPECT_NEAR(static_cast<double>(a.size()), spec.base_rate * 20, spec.base_rate * 20 * 0.3);
    for (size_t i = 1; i < a.size(); ++i) {
      EXPECT_LE(a[i - 1].at, a[i].at);
    }
  }
}

TEST(Workloads, ShortEpisodesPassTheOutputCheckAndRepeat) {
  for (const WorkloadSpec& spec : Workloads()) {
    EpisodeConfig cfg;
    cfg.window_us = 5 * ibus::kSecond;
    EpisodeResult x = RunEpisode(spec, 3, cfg);
    EpisodeResult y = RunEpisode(spec, 3, cfg);
    ASSERT_TRUE(x.built) << spec.name;
    EXPECT_GT(x.tally.expected, 0u) << spec.name;
    EXPECT_EQ(x.tally.Misses() + x.tally.duplicates, 0u) << spec.name;
    EXPECT_EQ(x.tally.upcalls, x.tally.expected) << spec.name;
    EXPECT_EQ(x.tally.latency_us, y.tally.latency_us) << spec.name;
    EXPECT_EQ(x.delta, y.delta) << spec.name;
    EXPECT_EQ(x.allocs, y.allocs) << spec.name;
    EXPECT_EQ(x.events, y.events) << spec.name;
  }
}

}  // namespace
}  // namespace perfbench
