#include "src/services/health_monitor.h"

namespace ibus {

using telemetry::HealthEvent;
using telemetry::HealthEventKind;
using telemetry::HealthSeverity;

Result<std::unique_ptr<HealthEvaluator>> HealthEvaluator::Create(BusClient* bus,
                                                                 BusDaemon* daemon,
                                                                 const HealthConfig& config) {
#if IBUS_TELEMETRY
  if (config.interval_us <= 0) {
    return InvalidArgument("health evaluator: interval must be positive");
  }
  if (config.clear_hold_intervals < 1) {
    return InvalidArgument("health evaluator: clear_hold_intervals must be >= 1");
  }
  auto evaluator =
      std::unique_ptr<HealthEvaluator>(new HealthEvaluator(bus, daemon, config));
  auto sub = bus->Subscribe(std::string(kReservedStatsTsPrefix) + ">",
                            [e = evaluator.get()](const Message& m) {
                              e->HandleStatsMessage(m);
                            });
  if (!sub.ok()) {
    return sub.status();
  }
  evaluator->stats_sub_ = *sub;
  bus->sim()->ScheduleAfter(
      config.interval_us,
      [e = evaluator.get(), alive = evaluator->alive_]() {
        if (*alive) {
          e->Tick();
        }
      },
      "health.tick");
  return evaluator;
#else
  (void)bus;
  (void)daemon;
  (void)config;
  return FailedPrecondition("health: built with IB_TELEMETRY=OFF, health plane disabled");
#endif
}

HealthEvaluator::HealthEvaluator(BusClient* bus, BusDaemon* daemon,
                                 const HealthConfig& config)
    : bus_(bus),
      daemon_(daemon),
      config_(config),
      node_(bus->network()->HostName(bus->host())),
      alive_(std::make_shared<bool>(true)) {}

HealthEvaluator::~HealthEvaluator() {
  *alive_ = false;
  if (stats_sub_ != 0) {
    bus_->Unsubscribe(stats_sub_);
  }
}

size_t HealthEvaluator::active_alerts() const {
  size_t n = 0;
  n += slow_consumer_.active ? 1 : 0;
  n += retransmit_storm_.active ? 1 : 0;
  n += subscription_churn_.active ? 1 : 0;
  for (const auto& [peer, state] : peers_) {
    n += state.rule.active ? 1 : 0;
  }
  return n;
}

void HealthEvaluator::HandleStatsMessage(const Message& m) {
  // The peer's node name is the subject suffix ("_ibus.stats.ts.<node>"); no need
  // to decode the sample just to track feed liveness.
  constexpr size_t kPrefixLen = sizeof(kReservedStatsTsPrefix) - 1;
  if (m.subject.size() <= kPrefixLen) {
    return;
  }
  std::string peer = m.subject.substr(kPrefixLen);
  if (peer == node_) {
    return;  // our own reporter is not a peer
  }
  peers_[peer].last_seen = bus_->sim()->Now();
}

void HealthEvaluator::Tick() {
  const telemetry::MetricsRegistry& metrics = *daemon_->metrics();
  const uint64_t gaps = metrics.CounterValue(kMetricReceiverGaps);
  const uint64_t retransmits = metrics.CounterValue(kMetricSenderRetransmits);
  const uint64_t churn = metrics.CounterValue(kMetricSubChurn);

  EvaluateRule(slow_consumer_, HealthEventKind::kSlowConsumer, "",
               static_cast<int64_t>(gaps - last_gaps_), config_.slow_consumer_raise,
               config_.slow_consumer_clear);
  EvaluateRule(retransmit_storm_, HealthEventKind::kRetransmitStorm, "",
               static_cast<int64_t>(retransmits - last_retransmits_),
               config_.retransmit_raise, config_.retransmit_clear);
  EvaluateRule(subscription_churn_, HealthEventKind::kSubscriptionChurn, "",
               static_cast<int64_t>(churn - last_churn_), config_.churn_raise,
               config_.churn_clear);
  last_gaps_ = gaps;
  last_retransmits_ = retransmits;
  last_churn_ = churn;

  const SimTime now = bus_->sim()->Now();
  for (auto& [peer, state] : peers_) {
    const int64_t silent_us = now - state.last_seen;
    // Clearing needs silence strictly below the threshold, hence raise-1 as clear.
    EvaluateRule(state.rule, HealthEventKind::kPartitionSuspected, peer, silent_us,
                 config_.peer_silence_us, config_.peer_silence_us - 1);
  }

  bus_->sim()->ScheduleAfter(
      config_.interval_us,
      [this, alive = alive_]() {
        if (*alive) {
          Tick();
        }
      },
      "health.tick");
}

void HealthEvaluator::EvaluateRule(RuleState& state, HealthEventKind kind,
                                   const std::string& subject, int64_t value,
                                   int64_t raise, int64_t clear) {
  if (!state.active) {
    if (value >= raise) {
      state.active = true;
      state.clean_intervals = 0;
      const bool critical =
          config_.critical_factor > 0 && value >= raise * config_.critical_factor;
      PublishEvent(kind, critical ? HealthSeverity::kCritical : HealthSeverity::kWarning,
                   subject, value, raise);
    }
    return;
  }
  if (value <= clear) {
    if (++state.clean_intervals >= config_.clear_hold_intervals) {
      state.active = false;
      state.clean_intervals = 0;
      PublishEvent(kind, HealthSeverity::kClear, subject, value, clear);
    }
  } else {
    state.clean_intervals = 0;  // the episode is still going; restart the hold
  }
}

void HealthEvaluator::PublishEvent(HealthEventKind kind, HealthSeverity severity,
                                   const std::string& subject, int64_t value,
                                   int64_t threshold) {
  HealthEvent e;
  e.kind = kind;
  e.severity = severity;
  e.node = node_;
  e.subject = subject;
  e.value = value;
  e.threshold = threshold;
  e.at_us = bus_->sim()->Now();
  events_.push_back(e);
  daemon_->flight_recorder()->Record(
      e.at_us, telemetry::FlightEventKind::kHealth, telemetry::HealthSubject(kind, node_),
      std::string(HealthSeverityName(severity)) + " value=" + std::to_string(value) +
          " threshold=" + std::to_string(threshold));
  Message m;
  m.subject = telemetry::HealthSubject(kind, node_);
  m.type_name = telemetry::kHealthEventType;
  m.payload = e.Marshal();
  bus_->PublishInternal(std::move(m));
}

}  // namespace ibus
