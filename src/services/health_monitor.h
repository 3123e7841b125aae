// HealthEvaluator: the bus diagnosing itself. Each host runs one next to its daemon;
// every interval (in simulated time, so deterministically) it evaluates a small rule
// set over the host's metrics registry — slow consumer (receiver gap rate),
// retransmit storm, subscription churn, suspected partition (a peer's busstat feed
// on "_ibus.stats.ts.>" going silent) — and publishes typed HealthEvent transitions
// on the reserved "_ibus.health.>" namespace. Rules are hysteretic: one raise when
// the value crosses the raise threshold, one clear after it has stayed at/below the
// clear threshold for clear_hold_intervals consecutive intervals. No flapping while a
// value oscillates between the two thresholds.
#ifndef SRC_SERVICES_HEALTH_MONITOR_H_
#define SRC_SERVICES_HEALTH_MONITOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/telemetry/health.h"

namespace ibus {

struct HealthConfig {
  SimTime interval_us = 250 * kMillisecond;

  // Slow consumer: receiver gap count delta per interval (messages abandoned).
  int64_t slow_consumer_raise = 1;
  int64_t slow_consumer_clear = 0;

  // Retransmit storm: sender retransmit delta per interval.
  int64_t retransmit_raise = 8;
  int64_t retransmit_clear = 1;

  // Subscription churn: subscribe+unsubscribe operations per interval.
  int64_t churn_raise = 16;
  int64_t churn_clear = 2;

  // Partition suspected: a peer previously heard on "_ibus.stats.ts.>" has been silent
  // this long. Must comfortably exceed the fleet's stats reporting interval.
  SimTime peer_silence_us = 3 * kSecond;

  // A raised alert clears only after this many consecutive intervals at/below the
  // clear threshold (the hysteresis hold).
  int clear_hold_intervals = 3;

  // value >= raise_threshold * critical_factor escalates kWarning to kCritical.
  int64_t critical_factor = 4;
};

class HealthEvaluator {
 public:
  // Subscribes to the fleet's busstat feed (for partition detection) and starts the
  // periodic evaluation. Fails with kFailedPrecondition when built with
  // -DIB_TELEMETRY=OFF: the health plane is compiled out with the rest of telemetry.
  static Result<std::unique_ptr<HealthEvaluator>> Create(
      BusClient* bus, BusDaemon* daemon, const HealthConfig& config = HealthConfig());
  ~HealthEvaluator();
  HealthEvaluator(const HealthEvaluator&) = delete;
  HealthEvaluator& operator=(const HealthEvaluator&) = delete;

  const std::string& node() const { return node_; }
  // Every transition published so far, in order.
  const std::vector<telemetry::HealthEvent>& events() const { return events_; }
  uint64_t events_published() const { return events_.size(); }
  // Currently raised (not yet cleared) alerts.
  size_t active_alerts() const;

 private:
  // Hysteresis state of one rule instance (one per kind, plus one per peer for the
  // partition rule).
  struct RuleState {
    bool active = false;
    int clean_intervals = 0;
  };

  HealthEvaluator(BusClient* bus, BusDaemon* daemon, const HealthConfig& config);

  void Tick();
  // Runs one rule through its hysteresis state machine, publishing on transitions.
  void EvaluateRule(RuleState& state, telemetry::HealthEventKind kind,
                    const std::string& subject, int64_t value, int64_t raise,
                    int64_t clear);
  void PublishEvent(telemetry::HealthEventKind kind, telemetry::HealthSeverity severity,
                    const std::string& subject, int64_t value, int64_t threshold);
  void HandleStatsMessage(const Message& m);

  BusClient* bus_;
  BusDaemon* daemon_;
  HealthConfig config_;
  std::string node_;
  uint64_t stats_sub_ = 0;

  // Previous-interval counter values (rules run on deltas).
  uint64_t last_gaps_ = 0;
  uint64_t last_retransmits_ = 0;
  uint64_t last_churn_ = 0;

  RuleState slow_consumer_;
  RuleState retransmit_storm_;
  RuleState subscription_churn_;
  struct PeerState {
    SimTime last_seen = 0;
    RuleState rule;
  };
  std::map<std::string, PeerState> peers_;  // keyed by peer host name (ordered)

  std::vector<telemetry::HealthEvent> events_;
  std::shared_ptr<bool> alive_;
};

}  // namespace ibus

#endif  // SRC_SERVICES_HEALTH_MONITOR_H_
