#include "src/episode.h"

#include <limits>

#include "src/alloc_hook.h"
#include "src/tracer.h"

namespace perfbench {

namespace {

struct Generator {
  World* world;
  std::vector<Arrival>* arrivals;
  Tracer* tracer;
  size_t next = 0;
  uint64_t errors = 0;

  void ScheduleNext() {
    if (next < arrivals->size()) {
      // One captured pointer keeps the callable inside std::function's small buffer.
      world->sim()->ScheduleAt((*arrivals)[next].at, [this]() { Fire(); }, "perfbench.gen");
    }
  }

  void Fire() {
    Arrival& a = (*arrivals)[next++];
    if (tracer != nullptr) {
      tracer->OpenChild(Tracer::kGenPublish);
    }
    ibus::Status s = world->Publish(a);
    if (tracer != nullptr) {
      tracer->CloseChild(a.publisher, a.seq);
    }
    if (!s.ok()) {
      errors++;
    }
    ScheduleNext();
  }
};

}  // namespace

Rung EpisodeResult::AsRung(double limit_us) const {
  Rung r;
  r.rate = rate;
  r.aborted = aborted;
  r.samples = tally.expected;
  std::vector<double> lat = tally.latency_us;
  lat.resize(tally.expected, std::numeric_limits<double>::infinity());
  r.p99_us = Percentile(&lat, 0.99);
  r.backlog_end = backlog_at_window_end;
  const double owed_per_s = static_cast<double>(tally.expected) * 1e6 /
                            static_cast<double>(window_us > 0 ? window_us : 1);
  r.backlog_allowed = owed_per_s * limit_us / 1e6;
  return r;
}

int64_t TimeSetup(const WorkloadSpec& spec, uint64_t seed) {
  const int64_t t0 = NowNs();
  std::unique_ptr<World> world = World::Build(spec, seed);
  const int64_t t1 = NowNs();
  return world == nullptr ? -1 : t1 - t0;
}

EpisodeResult RunEpisode(const WorkloadSpec& spec, uint64_t seed, const EpisodeConfig& cfg) {
  EpisodeResult res;
  const int64_t t0 = NowNs();
  std::unique_ptr<World> world = World::Build(spec, seed);
  res.setup_ns = NowNs() - t0;
  if (world == nullptr) {
    return res;
  }
  res.built = true;
  ibus::Simulator* sim = world->sim();
  res.rate = spec.base_rate * cfg.rate_multiplier;
  res.window_us = cfg.window_us > 0 ? cfg.window_us : spec.publish_us;
  const ibus::SimTime start = sim->Now() + 10 * ibus::kMillisecond;
  res.window_start = start;
  std::vector<Arrival> arrivals = Generate(*world, seed, res.rate, start, res.window_us);
  res.input_digest = DigestArrivals(arrivals);
  res.publishes = arrivals.size();
  Tally& tally = res.tally;
  world->Bind(&arrivals, &tally);
  world->SetTracer(cfg.tracer);
  Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) {
    uint64_t owed = 0;
    for (const Arrival& a : arrivals) {
      owed += a.expected.size();
    }
    tracer->records().reserve(arrivals.size() + owed);
  }

  // Generator: each publish is a sim event that schedules the next one, so the
  // event queue never holds more than one pending generator event.
  Generator gen{world.get(), &arrivals, tracer};
  gen.ScheduleNext();
  sim->ScheduleAt(
      start + res.window_us,
      [&]() {
        res.backlog_at_window_end = static_cast<double>(tally.expected - tally.delivered_owed);
      },
      "perfbench.window_end");
  bool done = false;
  sim->ScheduleAt(start + res.window_us + spec.drain_us, [&done]() { done = true; },
                  "perfbench.terminal");

  const Counters before = world->Snapshot();
  if (tracer != nullptr) {
    tracer->Attach(sim, world->net());
  }
  uint64_t steps = 0;
  const uint64_t a0 = AllocCount();
  const int64_t h0 = NowNs();
  if (tracer == nullptr) {
    while (!done && sim->Step()) {
      if (++steps > cfg.event_budget ||
          ((steps & 1023) == 0 && sim->pending_events() > cfg.pending_budget)) {
        res.aborted = true;
        break;
      }
    }
  } else {
    while (!done) {
      tracer->BeforeStep();
      const bool stepped = sim->Step();
      tracer->AfterStep();
      if (!stepped) {
        break;
      }
      if (++steps > cfg.event_budget) {
        res.aborted = true;
        break;
      }
    }
  }
  res.run_ns = NowNs() - h0;
  res.allocs = AllocCount() - a0;
  if (tracer != nullptr) {
    tracer->Detach();
  }
  world->SetTracer(nullptr);
  // Generator publishes and the two bookkeeping events are the benchmark's own.
  res.events = steps - std::min<uint64_t>(steps, gen.next + 2);

  for (const Arrival& a : arrivals) {
    for (uint8_t g : a.got) {
      tally.missing += g == 0 ? 1 : 0;
    }
  }
  tally.publish_errors = gen.errors;
  tally.unretired = world->CertifiedPending();
  res.delta = world->Snapshot() - before;
  res.router_backlog_hwm_us = world->RouterBacklogHwmUs();
  res.journal_commit_p99_us = world->JournalCommitP99Us();
  res.certified_retire_p99_us = world->CertifiedRetireP99Us();
  if (tracer != nullptr) {
    res.subscriptions = world->subscriptions();
  }
  return res;
}

}  // namespace perfbench
