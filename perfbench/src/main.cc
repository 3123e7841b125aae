// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 measures the end-to-end metrics: set-up time, base-rate episodes repeated
// for --seconds of host time, then the offered-rate ladder. --trace 1 alternates
// untraced and traced episodes for --seconds and reports the per-layer metrics, the
// span reconciliation and the tracing overhead; --spans names a file for the first
// traced episode's gen.publish/app.upcall spans. Every episode runs the output check;
// any violation, or any difference between same-seed episodes in a simulated or
// counted quantity, makes the run fail (exit 1). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/episode.h"
#include "src/replay.h"
#include "src/stats.h"
#include "src/tracer.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 21;           // set-up samples taken before the timed phase
constexpr int kSetupRepsPerEpisode = 5;  // and before each base-rate episode
constexpr int kMaxSubSeeds = 64;         // sub-seed stride between run seeds
constexpr int kMinTimedPasses = 2;
constexpr int kMinTracedEpisodes = 2;
constexpr ibus::SimTime kMinRungWindowUs = 120 * ibus::kSecond;
// A rung that needs this many sim events per owed delivery (the workloads need 3-35 at
// their base rate), or holds this many pending events at once, has collapsed.
constexpr double kRungEventsPerDelivery = 100;
constexpr size_t kRungPendingBudget = 50'000;
constexpr int kLadderRefineSteps = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    failures.push_back(why);
    std::printf("FAIL: %s\n", why.c_str());
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Host-speed probe: a fixed mix of ordered-map updates with formatted string keys and
// short-lived 100-500 byte buffers, the kind of work the bus does per message but
// none of the bus's code. Other tenants of a shared host slow it together with the
// workload, so the ratio between the two is steadier than either alone.
constexpr int kProbeOps = 20000;
// Reference probe rate at which the host-clock metrics are stated: a round figure just
// above the fastest the probe ran on the 2.0 GHz Xeon VM the benchmark was defined on.
constexpr double kProbeReferenceOpsPerSec = 4.0e6;
size_t g_probe_sink = 0;

double ProbeOpsPerSec() {
  const int64_t t0 = NowNs();
  std::map<std::string, uint64_t> counts;
  std::vector<std::vector<uint8_t>> buffers;
  for (int i = 0; i < kProbeOps; ++i) {
    counts["news.c" + std::to_string(i % 89) + ".t" + std::to_string(i % 37)] +=
        static_cast<uint64_t>(i);
    buffers.emplace_back(static_cast<size_t>(96 + (i * 7) % 400), static_cast<uint8_t>(i));
    if (buffers.size() > 512) {
      const size_t victim = static_cast<size_t>(i) % 512;
      g_probe_sink += buffers[victim].size();
      buffers[victim] = std::move(buffers.back());
      buffers.pop_back();
    }
  }
  g_probe_sink += counts.size();
  return kProbeOps * 1e9 / static_cast<double>(NowNs() - t0);
}

// The i-th episode seed of a run; distinct across runs with different --seed.
uint64_t SubSeed(uint64_t seed, int i) { return seed * kMaxSubSeeds + static_cast<uint64_t>(i); }

// Sums the simulated and counted results of several episodes.
EpisodeResult Pool(const std::vector<EpisodeResult>& eps) {
  EpisodeResult p;
  for (const EpisodeResult& e : eps) {
    p.publishes += e.publishes;
    p.allocs += e.allocs;
    p.events += e.events;
    for (uint64_t Counters::*f : Counters::kFields) {
      p.delta.*f += e.delta.*f;
    }
    Tally& t = p.tally;
    t.expected += e.tally.expected;
    t.upcalls += e.tally.upcalls;
    t.missing += e.tally.missing;
    t.duplicates += e.tally.duplicates;
    t.order_violations += e.tally.order_violations;
    t.content_mismatches += e.tally.content_mismatches;
    t.unretired += e.tally.unretired;
    t.publish_errors += e.tally.publish_errors;
    t.latency_us.insert(t.latency_us.end(), e.tally.latency_us.begin(), e.tally.latency_us.end());
  }
  return p;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Everything that must repeat exactly for the same seed (simulated time and counts).
bool SameSimulation(const EpisodeResult& a, const EpisodeResult& b, bool compare_allocs) {
  const Tally& x = a.tally;
  const Tally& y = b.tally;
  return a.input_digest == b.input_digest && a.events == b.events &&
         a.publishes == b.publishes && x.expected == y.expected && x.upcalls == y.upcalls &&
         x.missing == y.missing && x.duplicates == y.duplicates &&
         x.order_violations == y.order_violations &&
         x.content_mismatches == y.content_mismatches && x.unretired == y.unretired &&
         x.latency_us == y.latency_us && a.delta == b.delta &&
         a.backlog_at_window_end == b.backlog_at_window_end &&
         a.router_backlog_hwm_us == b.router_backlog_hwm_us &&
         a.journal_commit_p99_us == b.journal_commit_p99_us &&
         a.certified_retire_p99_us == b.certified_retire_p99_us &&
         (!compare_allocs || a.allocs == b.allocs);
}

// Output check of one episode: tallies it into the run and reports violations.
void CheckOutput(const EpisodeResult& ep, Run* run) {
  const Tally& t = ep.tally;
  run->attempted += t.expected;
  run->failed += t.Misses() + t.duplicates;
  if (!ep.built || ep.aborted) {
    run->Fail("episode did not complete");
    run->failed += t.expected;
    return;
  }
  if (t.Misses() + t.duplicates > 0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "output check: missing=%llu duplicates=%llu out_of_order=%llu "
                  "content=%llu unretired=%llu publish_errors=%llu",
                  static_cast<unsigned long long>(t.missing),
                  static_cast<unsigned long long>(t.duplicates),
                  static_cast<unsigned long long>(t.order_violations),
                  static_cast<unsigned long long>(t.content_mismatches),
                  static_cast<unsigned long long>(t.unretired),
                  static_cast<unsigned long long>(t.publish_errors));
    run->Fail(buf);
  }
}

void AddCorrectnessMetrics(const EpisodeResult& ep, Run* run) {
  const Tally& t = ep.tally;
  run->Add("missed_delivery_frac", Ratio(static_cast<double>(t.Misses()),
                                         static_cast<double>(t.expected)), "ratio");
  run->Add("duplicate_delivery_frac", Ratio(static_cast<double>(t.duplicates),
                                            static_cast<double>(t.upcalls)), "ratio");
}

// Checks that the generator is a function of the run seed: the same seed repeats its
// inputs exactly and the next seed changes them.
void CheckSeedSensitivity(const WorkloadSpec& spec, uint64_t seed, Run* run,
                          double* mean_fanout) {
  std::unique_ptr<World> world = World::Build(spec, SubSeed(seed, 0));
  if (world == nullptr) {
    run->Fail("set-up failed");
    return;
  }
  auto a = Generate(*world, SubSeed(seed, 0), spec.base_rate, 0, spec.publish_us);
  auto b = Generate(*world, SubSeed(seed, 0), spec.base_rate, 0, spec.publish_us);
  auto c = Generate(*world, SubSeed(seed + 1, 0), spec.base_rate, 0, spec.publish_us);
  if (DigestArrivals(a) != DigestArrivals(b)) {
    run->Fail("determinism: the same seed generated different inputs");
  }
  if (DigestArrivals(a) == DigestArrivals(c)) {
    run->Fail("determinism: a second seed generated the same inputs");
  }
  double owed = 0;
  for (const Arrival& x : a) {
    owed += static_cast<double>(x.expected.size());
  }
  *mean_fanout = Ratio(owed, static_cast<double>(a.size()));
}

void PrintLatencyLine(const char* label, std::vector<double> lat) {
  const size_t n = lat.size();
  std::printf("%s: n=%zu", label, n);
  for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995}) {
    std::printf(" p%g=%.0fus", 100 * q, Percentile(&lat, q));
  }
  std::printf(" (%zu samples beyond p99)\n", SamplesBeyond(n, 0.99));
}

// --- --trace 0: end-to-end metrics --------------------------------------------------------

void RunTimed(const WorkloadSpec& spec, uint64_t seed, double seconds, Run* run) {
  double fanout = 0;
  CheckSeedSensitivity(spec, seed, run, &fanout);

  // Set-up samples are spread over the run, so one transient stall of the host
  // cannot move their median, and are stated at the reference host speed like
  // delivered_msgs_per_host_s (probe taken around each batch).
  std::vector<double> setup_s;
  auto sample_setup = [&](int reps) {
    std::vector<double> batch;
    const double probe_before = ProbeOpsPerSec();
    for (int i = 0; i < reps; ++i) {
      int64_t ns = TimeSetup(spec, seed);
      if (ns < 0) {
        run->Fail("set-up failed");
        return false;
      }
      batch.push_back(static_cast<double>(ns) / 1e9);
    }
    const double probe = (probe_before + ProbeOpsPerSec()) / 2;
    for (double b : batch) {
      setup_s.push_back(b * probe / kProbeReferenceOpsPerSec);
    }
    return true;
  };
  TimeSetup(spec, seed);  // first touch of the allocator and caches: not a sample
  if (!sample_setup(kSetupReps)) {
    return;
  }

  // Base-rate episodes for --seconds of host time. Each pass runs the same
  // spec.sub_seeds episodes (one per sub-seed of --seed); simulated and counted
  // metrics pool the first pass, and every later pass must repeat it exactly.
  std::vector<EpisodeResult> first;
  std::vector<double> host_rates, raw_rates, probes;
  const int64_t t0 = NowNs();
  auto done = [&](int pass) {
    return pass >= kMinTimedPasses && static_cast<double>(NowNs() - t0) >= seconds * 1e9;
  };
  for (int pass = 0; !done(pass); ++pass) {
    for (int i = 0; i < spec.sub_seeds && !(pass > 0 && done(pass)); ++i) {
      if (!sample_setup(kSetupRepsPerEpisode)) {
        return;
      }
      const double probe_before = ProbeOpsPerSec();
      EpisodeResult ep = RunEpisode(spec, SubSeed(seed, i), EpisodeConfig{});
      const double probe = (probe_before + ProbeOpsPerSec()) / 2;
      CheckOutput(ep, run);
      if (!ep.built) {
        return;
      }
      raw_rates.push_back(ep.delivered_per_host_s());
      probes.push_back(probe);
      host_rates.push_back(ep.delivered_per_host_s() * kProbeReferenceOpsPerSec / probe);
      if (pass == 0) {
        first.push_back(std::move(ep));
      } else if (!SameSimulation(ep, first[static_cast<size_t>(i)], /*compare_allocs=*/true)) {
        run->Fail("determinism: same-seed episodes differ in simulated time or counts");
      }
    }
  }
  // The workload's own footprint: the high-water mark before the ladder's overloaded
  // rungs, whose size depends on where each seed collapses.
  const double peak_rss_mb = PeakRssMb();

  // Offered-rate ladder (simulated time; deterministic per seed).
  std::printf("ladder (p99 limit %.0f us):\n", spec.latency_limit_us);
  bool built = true;
  // It runs after the timed phase: its long overloaded rungs leave a larger,
  // fragmented heap behind, which would slow every episode measured after them.
  auto measure = [&](double rate) {
    EpisodeConfig cfg;
    cfg.rate_multiplier = rate / spec.base_rate;
    cfg.window_us = std::max<ibus::SimTime>(
        kMinRungWindowUs,
        static_cast<ibus::SimTime>(spec.rung_deliveries / (rate * fanout) * 1e6));
    cfg.event_budget = static_cast<uint64_t>(kRungEventsPerDelivery * rate * fanout *
                                             static_cast<double>(cfg.window_us) / 1e6);
    cfg.pending_budget = kRungPendingBudget;
    EpisodeResult ep = RunEpisode(spec, SubSeed(seed, 0), cfg);
    built = built && ep.built;
    Rung r = ep.AsRung(spec.latency_limit_us);
    std::printf("  rate %7.2f/s window %6.1fs deliveries %7zu p99 %12.0fus backlog %8.0f "
                "(allowed %8.0f)%s %s\n",
                rate, static_cast<double>(cfg.window_us) / 1e6, r.samples, r.p99_us,
                r.backlog_end, r.backlog_allowed, r.aborted ? " [budget]" : "",
                RungSustainable(r, spec.latency_limit_us) ? "ok" : "UNSUSTAINABLE");
    return r;
  };
  std::vector<double> rates;
  for (double mult : spec.ladder) {
    rates.push_back(spec.base_rate * mult);
  }
  LadderOutcome ladder =
      FindSustainableRate(rates, kLadderRefineSteps, spec.latency_limit_us, measure);
  if (!built) {
    run->Fail("set-up failed");
    return;
  }
  if (ladder.exhausted) {
    std::printf("note: every rung passed; the ladder did not reach the collapse point\n");
  }

  EpisodeResult pooled = Pool(first);
  const Tally& t = pooled.tally;
  std::printf("%zu base-rate episodes (%d sub-seeds x %zu passes): %llu publishes, %llu upcalls, "
              "%llu owed deliveries per pass\n",
              host_rates.size(), spec.sub_seeds,
              host_rates.size() / static_cast<size_t>(spec.sub_seeds),
              static_cast<unsigned long long>(pooled.publishes),
              static_cast<unsigned long long>(t.upcalls),
              static_cast<unsigned long long>(t.expected));
  PrintLatencyLine("sim latency", t.latency_us);
  if (!PercentileSupported(t.latency_us.size(), 0.99)) {
    run->Fail("too few latency samples for p99");
  }
  std::printf("delivered_msgs_per_host_s: median %.0f at the reference host speed; measured "
              "%.0f with the probe at %.0f ops/s (reference %.0f)\n",
              Median(host_rates), Median(raw_rates), Median(probes), kProbeReferenceOpsPerSec);
  std::vector<double> lat = t.latency_us;
  const double upcalls = static_cast<double>(t.upcalls);
  run->Add("delivered_msgs_per_host_s", Median(host_rates), "msgs/s");
  run->Add("sim_latency_p50_us", Percentile(&lat, 0.5), "us");
  run->Add("sim_latency_p99_us", Percentile(&lat, 0.99), "us");
  run->Add("sustainable_sim_rate", ladder.sustainable_rate, "msgs/s");
  run->Add("frames_per_delivered_msg",
           Ratio(static_cast<double>(pooled.delta.frames_sent), upcalls), "count");
  run->Add("wire_bytes_per_delivered_msg",
           Ratio(static_cast<double>(pooled.delta.bytes_on_wire), upcalls), "bytes");
  run->Add("allocs_per_delivered_msg", Ratio(static_cast<double>(pooled.allocs), upcalls),
           "count");
  AddCorrectnessMetrics(pooled, run);
  run->Add("setup_s", Median(setup_s), "s");
  run->Add("peak_rss_mb", peak_rss_mb, "MB");
}

// --- --trace 1: per-layer metrics -----------------------------------------------------------

double SelfNsPer(const std::vector<SpanStack::Totals>& totals, size_t key) {
  if (key >= totals.size() || totals[key].count == 0) {
    return 0;
  }
  return static_cast<double>(totals[key].self_ns) / static_cast<double>(totals[key].count);
}

// Self time (or allocations) per span over every key whose name starts with `prefix`.
double SelfPerSpan(const Tracer& tr, const std::string& prefix, bool allocs) {
  double sum = 0;
  double count = 0;
  for (size_t k = 0; k < tr.totals().size() && k < tr.key_names().size(); ++k) {
    if (tr.key_names()[k].rfind(prefix, 0) == 0) {
      sum += allocs ? static_cast<double>(tr.totals()[k].self_allocs)
                    : static_cast<double>(tr.totals()[k].self_ns);
      count += static_cast<double>(tr.totals()[k].count);
    }
  }
  return Ratio(sum, count);
}

std::map<std::string, double> LayerMetrics(const EpisodeResult& ep, const Tracer& tr) {
  std::map<std::string, double> m;
  const Counters& d = ep.delta;
  const double pubs = static_cast<double>(ep.publishes);
  const double upcalls = static_cast<double>(ep.tally.upcalls);
  const auto& totals = tr.totals();
  m["sim.events_per_msg"] = Ratio(static_cast<double>(ep.events), upcalls);
  m["sim.core_ns_per_event"] = SelfNsPer(totals, Tracer::kSimCore);
  m["sim.pending_hwm"] = static_cast<double>(tr.pending_hwm());

  std::vector<double> queued;
  std::map<ibus::SegmentId, double> busy;
  for (const TxRecord& tx : tr.transmissions()) {
    queued.push_back(static_cast<double>(tx.queued_us));
    if (tx.sent_at >= ep.window_start && tx.sent_at < ep.window_start + ep.window_us) {
      busy[tx.segment] += static_cast<double>(tx.wire_us);
    }
  }
  double busiest = 0;
  for (const auto& [seg, us] : busy) {
    busiest = std::max(busiest, us / static_cast<double>(ep.window_us));
  }
  m["net.medium_queued_us_p99"] = queued.empty() ? 0 : Percentile(&queued, 0.99);
  m["net.medium_busy_frac"] = busiest;
  m["net.frames_dropped_per_msg"] = Ratio(static_cast<double>(d.frames_dropped_fault), pubs);

  const double first_tx = static_cast<double>(d.packets_sent - d.retransmits);
  m["proto.msgs_per_data_frame"] = Ratio(static_cast<double>(d.proto_published), first_tx);
  m["proto.retransmits_per_msg"] = Ratio(static_cast<double>(d.retransmits), pubs);
  m["proto.naks_per_msg"] = Ratio(static_cast<double>(d.naks_sent), pubs);
  m["proto.duplicates_per_msg"] = Ratio(static_cast<double>(d.rx_duplicates), pubs);
  m["proto.first_tx_frame_ratio"] =
      Ratio(first_tx, static_cast<double>(d.packets_sent + d.heartbeats + d.naks_sent));
  m["proto.heartbeats_per_msg"] = Ratio(static_cast<double>(d.heartbeats), pubs);

  m["bus.daemon.medium_deliver_ns"] = SelfPerSpan(tr, "net.medium_deliver.", false);
  m["bus.daemon.allocs_per_frame"] = SelfPerSpan(tr, "net.medium_deliver.", true);
  m["bus.daemon.match_ratio"] = Ratio(static_cast<double>(d.dispatched),
                                      static_cast<double>(d.dispatched + d.no_match));
  m["bus.client.publish_allocs"] =
      Ratio(static_cast<double>(totals[Tracer::kGenPublish].self_allocs),
            static_cast<double>(totals[Tracer::kGenPublish].count));
  m["bus.client.loopback_deliver_ns"] = SelfNsPer(totals, Tracer::kLoopbackDeliver);

  m["router.conn_deliver_ns"] = SelfPerSpan(tr, "event.net.conn_deliver", false);
  m["router.forwarded_per_msg"] = Ratio(static_cast<double>(d.router_forwarded), pubs);
  m["router.link_backlog_us_hwm"] = static_cast<double>(ep.router_backlog_hwm_us);
  m["journal.flushes_per_append"] =
      Ratio(static_cast<double>(d.journal_flushes), static_cast<double>(d.journal_appends));
  m["journal.commit_sim_us_p99"] = static_cast<double>(ep.journal_commit_p99_us);
  m["journal.flush_ns"] = SelfPerSpan(tr, "event.journal.", false);
  m["certified.retransmits_per_msg"] = Ratio(static_cast<double>(d.cert_retransmits), pubs);
  m["certified.duplicates_dropped_per_msg"] =
      Ratio(static_cast<double>(d.cert_dups_dropped), pubs);
  m["certified.retire_sim_us_p99"] = static_cast<double>(ep.certified_retire_p99_us);
  return m;
}

void PrintSpanTable(const Tracer& tr, const EpisodeResult& ep) {
  std::printf("%-34s %10s %14s %12s %12s\n", "span", "count", "self ms", "self ns/op",
              "allocs/op");
  for (size_t k = 0; k < tr.totals().size() && k < tr.key_names().size(); ++k) {
    const SpanStack::Totals& t = tr.totals()[k];
    if (t.count == 0) {
      continue;
    }
    std::printf("%-34s %10llu %14.3f %12.1f %12.2f\n", tr.key_names()[k].c_str(),
                static_cast<unsigned long long>(t.count), static_cast<double>(t.self_ns) / 1e6,
                static_cast<double>(t.self_ns) / static_cast<double>(t.count),
                static_cast<double>(t.self_allocs) / static_cast<double>(t.count));
  }
  std::printf("(episode: %llu publishes, %llu upcalls, %llu library events)\n",
              static_cast<unsigned long long>(ep.publishes),
              static_cast<unsigned long long>(ep.tally.upcalls),
              static_cast<unsigned long long>(ep.events));
}

// Writes the first traced episode's id-bearing spans as tab-separated lines.
void WriteSpans(const std::string& path, const Tracer& tr, Run* run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    run->Fail("cannot write " + path);
    return;
  }
  std::fprintf(f, "span\tpublisher\tseq\tstart_ns\tdur_ns\tallocs\n");
  for (const SpanRecord& r : tr.records()) {
    std::fprintf(f, "%s\t%u\t%llu\t%lld\t%lld\t%llu\n", tr.key_names()[r.key].c_str(),
                 r.publisher, static_cast<unsigned long long>(r.seq),
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.dur_ns),
                 static_cast<unsigned long long>(r.allocs));
  }
  std::fclose(f);
  std::printf("spans: %zu gen.publish/app.upcall records written to %s\n", tr.records().size(),
              path.c_str());
}

void RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
               const std::string& spans_path, Run* run) {
  seed = SubSeed(seed, 0);
  std::vector<EpisodeResult> plain, traced;
  std::vector<std::map<std::string, double>> layer;
  std::vector<double> residual_frac;
  std::vector<double> publish_ns;
  std::vector<ibus::Bytes> frames;
  std::vector<Subscription> subscriptions;
  bool printed = false;
  const int64_t t0 = NowNs();
  while (static_cast<int>(traced.size()) < kMinTracedEpisodes ||
         static_cast<double>(NowNs() - t0) < seconds * 1e9) {
    plain.push_back(RunEpisode(spec, seed, EpisodeConfig{}));
    CheckOutput(plain.back(), run);
    Tracer tracer;
    EpisodeConfig cfg;
    cfg.tracer = &tracer;
    traced.push_back(RunEpisode(spec, seed, cfg));
    const EpisodeResult& ep = traced.back();
    CheckOutput(ep, run);
    if (!ep.built || !plain.back().built) {
      return;
    }
    if (!SameSimulation(ep, plain.front(), /*compare_allocs=*/false) ||
        !SameSimulation(plain.back(), plain.front(), /*compare_allocs=*/true) ||
        !SameSimulation(ep, traced.front(), /*compare_allocs=*/true)) {
      run->Fail("determinism: same-seed episodes differ in simulated time or counts");
    }
    // Reconciliation: span self times partition each Step() exactly; what the drive
    // loop spends outside Step() is the residual against the episode's wall time.
    int64_t self_sum = 0;
    for (const SpanStack::Totals& s : tracer.totals()) {
      self_sum += s.self_ns;
    }
    if (self_sum != tracer.stepped_ns()) {
      run->Fail("reconciliation: span self times do not sum to the stepped time");
    }
    residual_frac.push_back(static_cast<double>(ep.run_ns - self_sum) /
                            static_cast<double>(ep.run_ns));
    layer.push_back(LayerMetrics(ep, tracer));
    for (const SpanRecord& r : tracer.records()) {
      if (r.key == Tracer::kGenPublish) {
        publish_ns.push_back(static_cast<double>(r.dur_ns));
      }
    }
    if (!printed) {
      PrintSpanTable(tracer, ep);
      if (!spans_path.empty()) {
        WriteSpans(spans_path, tracer, run);
      }
      frames = tracer.frames();
      subscriptions = ep.subscriptions;
      printed = true;
    }
  }

  std::map<std::string, double> out;
  for (const auto& [name, v] : layer.front()) {
    std::vector<double> xs;
    for (const auto& l : layer) {
      xs.push_back(l.at(name));
    }
    out[name] = Median(xs);
  }
  const size_t n_pub = publish_ns.size();
  out["bus.client.publish_ns_p50"] = Percentile(&publish_ns, 0.5);
  out["bus.client.publish_ns_p99"] = Percentile(&publish_ns, 0.99);
  if (!PercentileSupported(n_pub, 0.99)) {
    std::printf("note: bus.client.publish_ns_p99 rests on %zu samples (%zu beyond it)\n", n_pub,
                SamplesBeyond(n_pub, 0.99));
  }

  ReplayResult rp = Replay(frames, subscriptions);
  if (rp.decode_errors > 0) {
    run->Fail("replay: captured bytes failed to decode");
  }
  std::printf("replay: %zu frames, %zu data packets, %zu messages, %zu match calls, "
              "%zu objects\n",
              rp.frames, rp.packets, rp.messages, rp.match_calls, rp.objects);
  out["wire.parse_frame_ns"] = rp.parse_frame_ns;
  out["wire.frame_message_ns"] = rp.frame_message_ns;
  out["proto.packet_unmarshal_ns"] = rp.packet_unmarshal_ns;
  out["bus.message.unmarshal_ns"] = rp.message_unmarshal_ns;
  out["bus.message.marshal_ns"] = rp.message_marshal_ns;
  out["subject.match_ns"] = rp.match_ns;
  out["subject.patterns_per_daemon"] = rp.patterns_per_daemon;
  out["types.unmarshal_object_ns"] = rp.unmarshal_object_ns;
  out["types.marshal_object_ns"] = rp.marshal_object_ns;
  out["types.allocs_per_unmarshal"] = rp.allocs_per_unmarshal;

  std::vector<double> plain_rate, traced_rate;
  for (const EpisodeResult& e : plain) {
    plain_rate.push_back(e.delivered_per_host_s());
  }
  for (const EpisodeResult& e : traced) {
    traced_rate.push_back(e.delivered_per_host_s());
  }
  const double untraced = Median(plain_rate);
  const double with_trace = Median(traced_rate);
  out["trace.reconcile_residual_frac"] = Median(residual_frac);
  out["trace.overhead_frac"] = Ratio(untraced, with_trace) - 1;
  std::printf("reconciliation: span self times sum to the stepped time exactly; residual "
              "outside spans = %.4f%% of traced wall time\n",
              100 * out["trace.reconcile_residual_frac"]);
  std::printf("tracing overhead: delivered_msgs_per_host_s untraced %.0f vs traced %.0f "
              "(%+.1f%%)\n",
              untraced, with_trace, 100 * out["trace.overhead_frac"]);

  for (const auto& [name, v] : out) {
    run->Add(name, v, "");
  }
  AddCorrectnessMetrics(traced.front(), run);
}

void PrintJson(const Run& run) {
  const bool correct = run.failures.empty() && run.failed == 0 && run.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : -1.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n"
               "workloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || argc % 2 == 0 || seconds <= 0) {
    return Usage();
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", spec->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  Run run;
  if (trace != 0) {
    RunTraced(*spec, seed, seconds, spans_path, &run);
  } else {
    RunTimed(*spec, seed, seconds, &run);
  }
  for (const Metric& m : run.metrics) {
    if (!std::isfinite(m.value)) {
      run.Fail("metric " + m.name + " is not a finite number");
    }
  }
  std::fflush(stdout);
  PrintJson(run);
  return run.failures.empty() && run.failed == 0 ? 0 : 1;
}
