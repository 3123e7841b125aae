// busstat unit + integration tests: the fixed-memory heavy-hitter sketch and its
// determinism contract, mergeable histograms, deterministic trace sampling, the
// keyframe/delta time-series codec (including late join and desync recovery), and
// the end-to-end aggregator over the canonical WAN scenario. Everything here works
// under -DIB_TELEMETRY=OFF too: sketches, counters, and the stats plane are
// always-on; only histogram *recording* and span *collection* are telemetry-gated.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/telemetry/busstat.h"
#include "src/scenario/busstat_demo.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sketch.h"
#include "src/telemetry/trace.h"
#include "src/wire/wire.h"

namespace ibus::telemetry {
namespace {

// --- TopKSketch --------------------------------------------------------------------

TEST(TopKSketch, MemoryStaysFixedUnderManyDistinctKeys) {
  TopKSketch sketch(8);
  for (int i = 0; i < 10000; ++i) {
    sketch.Offer("subject." + std::to_string(i));
    ASSERT_LE(sketch.size(), 8u);
  }
  EXPECT_EQ(sketch.size(), 8u);
  EXPECT_EQ(sketch.capacity(), 8u);
  EXPECT_EQ(sketch.offered(), 10000u);
}

TEST(TopKSketch, HeavyHittersSurviveEviction) {
  TopKSketch sketch(4);
  // One genuinely heavy key (40% of the stream — above the 1/capacity guarantee
  // threshold) interleaved with a churning stream of one-off keys.
  for (int i = 0; i < 300; ++i) {
    sketch.Offer("hot.a");
    sketch.Offer("hot.a");
    sketch.Offer("cold." + std::to_string(i));
  }
  std::vector<TopKSketch::Entry> entries = sketch.Entries();
  ASSERT_GE(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "hot.a");
  // hot.a was tracked from the fill phase and never evicted: exact count, no error.
  EXPECT_EQ(entries[0].count, 600u);
  EXPECT_EQ(entries[0].error, 0u);
  // The churned cold slots carry the inherited-count error bound; the guarantee
  // that survives is true_count >= count - error, never the raw count.
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i].count, entries[i].error);
  }
}

TEST(TopKSketch, RankingIsCountDescThenKeyAsc) {
  TopKSketch sketch(8);
  sketch.Offer("b", 5);
  sketch.Offer("a", 5);
  sketch.Offer("c", 7);
  std::vector<TopKSketch::Entry> entries = sketch.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "c");
  EXPECT_EQ(entries[1].key, "a");  // count tie with "b": key asc
  EXPECT_EQ(entries[2].key, "b");
}

TEST(TopKSketch, EvictionTieBreaksOnLexicographicallyGreatestKey) {
  TopKSketch sketch(2);
  sketch.Offer("aaa");
  sketch.Offer("zzz");  // both count=1; victim must be "zzz"
  sketch.Offer("new");
  std::set<std::string> keys;
  for (const TopKSketch::Entry& e : sketch.Entries()) {
    keys.insert(e.key);
  }
  EXPECT_TRUE(keys.count("aaa")) << "tie-break evicted the wrong slot";
  EXPECT_FALSE(keys.count("zzz"));
  EXPECT_TRUE(keys.count("new"));
}

TEST(TopKSketch, DeterministicAcrossReplays) {
  auto run = [] {
    TopKSketch sketch(6);
    for (int i = 0; i < 500; ++i) {
      sketch.Offer("k" + std::to_string(i % 23));
      sketch.Offer("k" + std::to_string((i * 7) % 41));
    }
    return sketch.Hash();
  };
  EXPECT_EQ(run(), run());
}

TEST(TopKSketch, MergeUnionsCountsAndTruncatesToCapacity) {
  TopKSketch a(4), b(4);
  a.Offer("x", 10);
  a.Offer("y", 5);
  b.Offer("x", 3);
  b.Offer("z", 8);
  b.Offer("w", 1);
  b.Offer("v", 1);
  b.Offer("u", 1);
  a.Merge(b);
  EXPECT_LE(a.size(), 4u);
  EXPECT_EQ(a.offered(), 29u);
  std::vector<TopKSketch::Entry> entries = a.Entries();
  EXPECT_EQ(entries[0].key, "x");
  EXPECT_EQ(entries[0].count, 13u);  // shared keys add
  EXPECT_EQ(entries[1].key, "z");
}

TEST(TopKSketch, WireRoundTripPreservesTable) {
  TopKSketch sketch(5);
  for (int i = 0; i < 100; ++i) {
    sketch.Offer("s" + std::to_string(i % 9), static_cast<uint64_t>(1 + i % 3));
  }
  WireWriter w;
  sketch.Encode(&w);
  Bytes encoded = w.Take();
  WireReader r(encoded);
  Result<TopKSketch> decoded = TopKSketch::Decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->RenderTable(), sketch.RenderTable());
  EXPECT_EQ(decoded->Hash(), sketch.Hash());
  EXPECT_EQ(decoded->offered(), sketch.offered());
}

TEST(TopKSketch, DecodeRejectsOversizedCapacity) {
  TopKSketch sketch(4);
  sketch.Offer("k");
  WireWriter w;
  sketch.Encode(&w);
  Bytes encoded = w.Take();
  WireReader r(encoded);
  Result<TopKSketch> decoded = TopKSketch::Decode(&r, /*max_capacity=*/2);
  EXPECT_FALSE(decoded.ok()) << "a hostile capacity must not drive allocation";
}

// --- LatencyHistogram::Merge -------------------------------------------------------
// (Merge itself is not telemetry-gated; under IB_TELEMETRY=OFF these tests build
// the histograms through the decoder-restore path, which is also ungated.)

LatencyHistogram HistogramOf(const std::vector<int64_t>& values) {
  LatencyHistogram h;
  for (int64_t v : values) {
#if IBUS_TELEMETRY
    h.Record(v);
#else
    h.RestoreBucket(LatencyHistogram::BucketOf(v), 1);
#endif
  }
  return h;
}

TEST(LatencyHistogramMerge, EmptyPlusEmptyIsEmpty) {
  LatencyHistogram a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 0);
  EXPECT_EQ(a.Percentile(0.99), 0);
}

TEST(LatencyHistogramMerge, DisjointBucketsAdd) {
  LatencyHistogram lo = HistogramOf({1, 2, 3});
  LatencyHistogram hi = HistogramOf({1000, 2000, 4000});
  lo.Merge(hi);
  EXPECT_EQ(lo.count(), 6u);
  for (int64_t v : {1, 2, 3, 1000, 2000, 4000}) {
    EXPECT_GE(lo.bucket_count(LatencyHistogram::BucketOf(v)), 1u) << v;
  }
}

TEST(LatencyHistogramMerge, MergedPercentileMatchesConcatenated) {
  std::vector<int64_t> xs, ys, all;
  for (int i = 1; i <= 200; ++i) {
    xs.push_back(i * 17 % 5000 + 1);
    ys.push_back(i * 113 % 90000 + 1);
  }
  all = xs;
  all.insert(all.end(), ys.begin(), ys.end());
  LatencyHistogram a = HistogramOf(xs);
  LatencyHistogram b = HistogramOf(ys);
  a.Merge(b);
  LatencyHistogram concat = HistogramOf(all);
  // Log buckets line up exactly across histograms, so merge-then-percentile must
  // EQUAL concatenate-then-percentile — not just approximate it.
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Percentile(q), concat.Percentile(q)) << "q=" << q;
  }
  EXPECT_EQ(a.count(), concat.count());
}

TEST(LatencyHistogramMerge, OverflowBucketSurvivesMerge) {
  const int64_t huge = int64_t{1} << 62;
  LatencyHistogram a = HistogramOf({huge});
  LatencyHistogram b = HistogramOf({huge, 5});
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket_count(LatencyHistogram::BucketOf(huge)), 2u);
#if IBUS_TELEMETRY
  EXPECT_EQ(a.max(), huge);  // min/max only tracked when recording is compiled in
  EXPECT_EQ(a.sum(), INT64_MAX);  // 2^63 + 5 saturates rather than wrapping
#endif
}

#if IBUS_TELEMETRY
TEST(LatencyHistogramMerge, MinMaxCombineAcrossEmptyAndNonEmpty) {
  LatencyHistogram empty;
  LatencyHistogram data = HistogramOf({42, 7, 99});
  empty.Merge(data);  // empty ⊕ data adopts data's stats
  EXPECT_EQ(empty.min(), 7);
  EXPECT_EQ(empty.max(), 99);
  EXPECT_EQ(empty.count(), 3u);
  LatencyHistogram copy = HistogramOf({42, 7, 99});
  copy.Merge(LatencyHistogram());  // data ⊕ empty is unchanged
  EXPECT_EQ(copy.min(), 7);
  EXPECT_EQ(copy.max(), 99);
  EXPECT_EQ(copy.count(), 3u);
}
#endif

// --- Deterministic trace sampling --------------------------------------------------

TEST(TraceSampling, PeriodZeroAndOneAreOffAndAll) {
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_FALSE(ShouldSampleTrace(id, 0));
    EXPECT_TRUE(ShouldSampleTrace(id, 1));
  }
}

TEST(TraceSampling, DecisionIsPureFunctionOfIdAndPeriod) {
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(ShouldSampleTrace(id, 64), ShouldSampleTrace(id, 64));
  }
}

TEST(TraceSampling, FractionApproximatesPeriod) {
  int sampled = 0;
  const int n = 64000;
  for (uint64_t id = 0; id < n; ++id) {
    if (ShouldSampleTrace(id, 64)) {
      sampled++;
    }
  }
  // Expected n/64 = 1000; the SplitMix64 finalizer scatters ids uniformly.
  EXPECT_GT(sampled, 800);
  EXPECT_LT(sampled, 1200);
}

TEST(TraceSampling, HashScattersSequentialIds) {
  // Sequential candidate ids (the client allocator's pattern) must not alias into
  // the same residue class — that is the whole point of hashing before mod.
  std::set<uint64_t> residues;
  for (uint64_t id = 0; id < 64; ++id) {
    residues.insert(TraceIdHash(id) % 64);
  }
  EXPECT_GT(residues.size(), 32u);
}

// --- Keyframe/delta time-series codec ----------------------------------------------

TEST(StatSeries, KeyframeThenDeltasRoundTrip) {
  MetricsRegistry reg;
  Counter* pubs = reg.GetCounter("bus.publishes");
  Gauge* depth = reg.GetGauge("queue.depth");
  TopKSketch subjects(4);
  subjects.Offer("orders.new", 3);

  StatSeriesEncoder enc("node1", /*keyframe_every=*/4);
  StatSeriesDecoder dec;

  pubs->Inc(10);
  depth->Set(5);
  ASSERT_TRUE(dec.DecodeSample(enc.EncodeSample(reg, &subjects, nullptr, 1000, 64)).ok());
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.latest().values.at("bus.publishes"), 10);
  EXPECT_EQ(dec.latest().values.at("queue.depth"), 5);
  EXPECT_EQ(dec.latest().sample_period, 64u);

  pubs->Inc(7);
  depth->Set(-2);  // gauges go negative; zigzag must carry it
  ASSERT_TRUE(dec.DecodeSample(enc.EncodeSample(reg, &subjects, nullptr, 2000, 64)).ok());
  EXPECT_EQ(dec.latest().values.at("bus.publishes"), 17);
  EXPECT_EQ(dec.latest().values.at("queue.depth"), -2);
  EXPECT_EQ(dec.latest().seq, 1u);  // sequence numbers are 0-based (seq 0 = keyframe)
  EXPECT_EQ(dec.latest().at_us, 2000);
  EXPECT_EQ(dec.latest().subject_sketch.Hash(), subjects.Hash());
}

TEST(StatSeries, NewMetricAppearsMidStream) {
  MetricsRegistry reg;
  reg.GetCounter("a")->Inc(1);
  StatSeriesEncoder enc("n", 8);
  StatSeriesDecoder dec;
  ASSERT_TRUE(dec.DecodeSample(enc.EncodeSample(reg, nullptr, nullptr, 1, 0)).ok());
  // A metric registered after the keyframe must still reach the decoder via the
  // delta's fresh-append section.
  reg.GetCounter("b")->Inc(5);
  ASSERT_TRUE(dec.DecodeSample(enc.EncodeSample(reg, nullptr, nullptr, 2, 0)).ok());
  EXPECT_EQ(dec.latest().values.at("b"), 5);
}

TEST(StatSeries, LateJoinerWaitsForKeyframe) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x");
  StatSeriesEncoder enc("n", /*keyframe_every=*/3);
  StatSeriesDecoder dec;
  c->Inc(1);
  Bytes s1 = enc.EncodeSample(reg, nullptr, nullptr, 1, 0);  // keyframe (seq 0)
  c->Inc(1);
  Bytes s2 = enc.EncodeSample(reg, nullptr, nullptr, 2, 0);  // delta
  // The late joiner misses the keyframe: the delta must be refused, not misapplied.
  EXPECT_FALSE(dec.DecodeSample(s2).ok());
  EXPECT_FALSE(dec.synced());
  EXPECT_EQ(dec.desyncs(), 1u);
  c->Inc(1);
  Bytes s3 = enc.EncodeSample(reg, nullptr, nullptr, 3, 0);  // delta
  EXPECT_FALSE(dec.DecodeSample(s3).ok());
  c->Inc(1);
  Bytes s4 = enc.EncodeSample(reg, nullptr, nullptr, 4, 0);  // keyframe again (seq 3)
  ASSERT_TRUE(dec.DecodeSample(s4).ok());
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.latest().values.at("x"), 4);
}

TEST(StatSeries, SequenceGapDesyncsUntilNextKeyframe) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x");
  StatSeriesEncoder enc("n", /*keyframe_every=*/4);
  StatSeriesDecoder dec;
  c->Inc(1);
  ASSERT_TRUE(dec.DecodeSample(enc.EncodeSample(reg, nullptr, nullptr, 1, 0)).ok());
  c->Inc(1);
  Bytes dropped = enc.EncodeSample(reg, nullptr, nullptr, 2, 0);  // lost in transit
  (void)dropped;
  c->Inc(1);
  Bytes s3 = enc.EncodeSample(reg, nullptr, nullptr, 3, 0);
  EXPECT_FALSE(dec.DecodeSample(s3).ok()) << "a delta across a gap must not apply";
  EXPECT_FALSE(dec.synced());
  c->Inc(1);
  Bytes s4 = enc.EncodeSample(reg, nullptr, nullptr, 4, 0);
  c->Inc(1);
  Bytes s5 = enc.EncodeSample(reg, nullptr, nullptr, 5, 0);  // keyframe (seq 4)
  EXPECT_FALSE(dec.DecodeSample(s4).ok());
  ASSERT_TRUE(dec.DecodeSample(s5).ok());
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.latest().values.at("x"), 5);
}

TEST(StatSeries, ForeignVersionByteIsSkippedQuietly) {
  StatSeriesDecoder dec;
  Bytes legacy = {3, 1, 2, 3};  // a retired stats_snapshot version byte leads
  Status s = dec.DecodeSample(legacy);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(dec.desyncs(), 0u) << "foreign records are not desyncs";
}

#if IBUS_TELEMETRY
TEST(StatSeries, HistogramsTravelAndMergeAcrossNodes) {
  MetricsRegistry reg_a, reg_b;
  reg_a.GetHistogram("lat")->Record(100);
  reg_a.GetHistogram("lat")->Record(200);
  reg_b.GetHistogram("lat")->Record(90000);
  StatSeriesEncoder enc_a("a", 8), enc_b("b", 8);
  StatsAggregator agg;
  agg.Consume(enc_a.EncodeSample(reg_a, nullptr, nullptr, 1, 0));
  agg.Consume(enc_b.EncodeSample(reg_b, nullptr, nullptr, 1, 0));
  LatencyHistogram merged = agg.MergedHistogram("lat");
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.min(), 100);
  EXPECT_EQ(merged.max(), 90000);
  EXPECT_GE(merged.Percentile(0.99), 90000);
}
#endif

// --- StatsAggregator ---------------------------------------------------------------

TEST(StatsAggregator, MergesSketchesAndValuesAcrossNodes) {
  MetricsRegistry reg_a, reg_b;
  reg_a.GetCounter("bus.publishes")->Inc(10);
  reg_b.GetCounter("bus.publishes")->Inc(32);
  TopKSketch sk_a(4), sk_b(4);
  sk_a.Offer("orders.new", 9);
  sk_b.Offer("orders.new", 4);
  sk_b.Offer("market.tick", 6);
  StatSeriesEncoder enc_a("a", 8), enc_b("b", 8);
  StatsAggregator agg;
  agg.Consume(enc_a.EncodeSample(reg_a, &sk_a, nullptr, 1, 64));
  agg.Consume(enc_b.EncodeSample(reg_b, &sk_b, nullptr, 1, 64));
  EXPECT_EQ(agg.Nodes(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(agg.FleetValue("bus.publishes"), 42);
  std::vector<TopKSketch::Entry> top = agg.MergedSubjectSketch().Entries();
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].key, "orders.new");
  EXPECT_EQ(top[0].count, 13u);
  EXPECT_EQ(top[1].key, "market.tick");
}

TEST(StatsAggregator, RenderingsAreArrivalOrderIndependent) {
  auto feed = [](bool a_first) {
    MetricsRegistry reg_a, reg_b;
    reg_a.GetCounter("c")->Inc(1);
    reg_b.GetCounter("c")->Inc(2);
    StatSeriesEncoder enc_a("a", 8), enc_b("b", 8);
    Bytes sa = enc_a.EncodeSample(reg_a, nullptr, nullptr, 1, 0);
    Bytes sb = enc_b.EncodeSample(reg_b, nullptr, nullptr, 1, 0);
    StatsAggregator agg;
    agg.Consume(a_first ? sa : sb);
    agg.Consume(a_first ? sb : sa);
    return agg.RenderJson();
  };
  EXPECT_EQ(feed(true), feed(false));
}

TEST(StatsAggregator, RingKeepsBoundedHistory) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x");
  StatSeriesEncoder enc("n", 8);
  StatsAggregator agg;
  for (int i = 0; i < 50; ++i) {
    c->Inc(1);
    agg.Consume(enc.EncodeSample(reg, nullptr, nullptr, i, 0));
  }
  std::vector<StatsAggregator::RingEntry> hist = agg.History("n");
  ASSERT_EQ(hist.size(), kStatsRingDepth);
  EXPECT_EQ(hist.front().seq + kStatsRingDepth - 1, hist.back().seq);
  EXPECT_EQ(hist.back().values.at("x"), 50);
}

// --- End to end: the canonical WAN scenario ----------------------------------------

TEST(BusstatScenario, SamplingThinsTraceTrafficButNotGoodput) {
  scenario::BusStatScenarioOptions all, sampled;
  all.sample_period = 1;
  all.messages = 120;
  sampled.sample_period = 64;
  sampled.messages = 120;
  scenario::BusStatScenario run_all = scenario::RunBusstatWanScenario(42, all);
  scenario::BusStatScenario run_sampled = scenario::RunBusstatWanScenario(42, sampled);
  ASSERT_NE(run_all.trace.front().rfind("error:", 0), 0u) << run_all.trace.front();
  ASSERT_NE(run_sampled.trace.front().rfind("error:", 0), 0u) << run_sampled.trace.front();
  EXPECT_EQ(run_all.delivered, 120u);
  EXPECT_EQ(run_sampled.delivered, 120u);
#if IBUS_TELEMETRY
  EXPECT_LT(run_sampled.self_bytes, run_all.self_bytes);
  EXPECT_LT(run_sampled.overhead_ratio, run_all.overhead_ratio);
  EXPECT_GT(run_all.traces_collected, 100u);
  EXPECT_LT(run_sampled.traces_collected, 20u);
#else
  // With tracing compiled out there is nothing to thin: the plane's residual cost
  // (the time-series samples) is identical at every sampling rate.
  EXPECT_EQ(run_sampled.self_bytes, run_all.self_bytes);
#endif
}

TEST(BusstatScenario, AggregatorSeesEveryReporterWithoutDesync) {
  scenario::BusStatScenarioOptions options;
  options.messages = 60;
  scenario::BusStatScenario run = scenario::RunBusstatWanScenario(7, options);
  ASSERT_NE(run.trace.front().rfind("error:", 0), 0u) << run.trace.front();
  EXPECT_EQ(run.desyncs, 0u);
  EXPECT_GT(run.samples_consumed, 0u);
  // All six reporters (4 daemons + 2 routers) must reach the far-LAN aggregator.
  size_t node_lines = 0;
  for (const std::string& line : run.trace) {
    if (line.rfind("node ", 0) == 0) {
      node_lines++;
    }
  }
  EXPECT_EQ(node_lines, 6u);
}

}  // namespace
}  // namespace ibus::telemetry
