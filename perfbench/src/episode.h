// One episode: build a workload's world (the timed set-up), generate its seeded
// arrivals, drive the simulator through the publishing window and the drain, and
// collect the output check, the host-clock cost and the library's counters.
#ifndef PERFBENCH_SRC_EPISODE_H_
#define PERFBENCH_SRC_EPISODE_H_

#include <cstdint>
#include <vector>

#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {

struct EpisodeConfig {
  double rate_multiplier = 1.0;      // offered rate = spec.base_rate x this
  ibus::SimTime window_us = 0;       // publishing window; 0 = spec.publish_us
  Tracer* tracer = nullptr;          // attached for the measured window only
  // An overloaded rung is cut short once it needs this many events, or once this
  // many events are pending at once (the queue's memory).
  uint64_t event_budget = UINT64_MAX;
  size_t pending_budget = SIZE_MAX;
};

struct EpisodeResult {
  bool built = false;
  bool aborted = false;            // ran out of event or pending-event budget
  double rate = 0;                 // offered publishes per simulated second
  int64_t setup_ns = 0;            // host time of World::Build
  int64_t run_ns = 0;              // host time from the first publish to the episode's end
  uint64_t allocs = 0;             // global operator new calls in that window
  uint64_t events = 0;             // library sim events dispatched in that window
  uint64_t publishes = 0;
  uint64_t input_digest = 0;
  ibus::SimTime window_start = 0;  // simulated time the publishing window opens
  ibus::SimTime window_us = 0;
  Tally tally;
  Counters delta;                  // library counters over the window
  double backlog_at_window_end = 0;  // owed deliveries outstanding when publishing stopped
  int64_t router_backlog_hwm_us = 0;
  int64_t journal_commit_p99_us = 0;
  int64_t certified_retire_p99_us = 0;
  std::vector<Subscription> subscriptions;

  double delivered_per_host_s() const {
    return run_ns > 0 ? static_cast<double>(tally.upcalls) * 1e9 / static_cast<double>(run_ns)
                      : 0;
  }
  // The ladder's view of this episode: missing deliveries count as infinite latency.
  Rung AsRung(double limit_us) const;
};

EpisodeResult RunEpisode(const WorkloadSpec& spec, uint64_t seed, const EpisodeConfig& cfg);

// Host time of World::Build alone (the world is destroyed untimed).
int64_t TimeSetup(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_EPISODE_H_
