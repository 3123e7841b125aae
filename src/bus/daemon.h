// Per-host bus daemon (paper §3.1): "we use a daemon on every host. Each application
// registers with its local daemon, and tells the daemon to which subjects it has
// subscribed. The daemon forwards each message to each application that has
// subscribed."
//
// The daemon owns the host's broadcast socket. Outbound publishes from local clients
// are broadcast over one reliable stream per daemon; inbound broadcasts (including the
// daemon's own, which loop back over the medium) are reordered/dedupped by the
// reliable receiver and dispatched through a subscription trie to local clients over
// loopback datagrams.
#ifndef SRC_BUS_DAEMON_H_
#define SRC_BUS_DAEMON_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/bus/message.h"
#include "src/proto/reliable.h"
#include "src/sim/network.h"
#include "src/subject/trie.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sketch.h"
#include "src/telemetry/trace.h"

namespace ibus {

struct BusConfig {
  Port daemon_port = 7500;
  ReliableConfig reliable;
  // When true the daemon broadcasts subscription add/remove events on
  // kSubEventSubject and answers kSubQuerySubject — consumed by information routers.
  bool announce_subscriptions = true;
  // When true, clients built with this config assign a trace context to sampled
  // application publishes and hop spans are emitted along the message path
  // (see src/telemetry/trace.h). No effect when built with -DIB_TELEMETRY=OFF.
  bool trace_publishes = false;
  // Publisher-side sampling period: 1 traces every publish (the pre-busstat
  // behavior; scenario code that asserts on complete timelines sets this), N
  // traces ~1/N chosen by a deterministic hash of the trace id, 0 disables
  // tracing even when trace_publishes is set. See docs/TELEMETRY.md.
  uint32_t trace_sample_period = telemetry::kDefaultTraceSamplePeriod;
  // Slot capacity of the daemon's per-subject and per-peer heavy-hitter sketches
  // (fixed memory regardless of distinct-subject count; see src/telemetry/sketch.h).
  size_t sketch_capacity = telemetry::TopKSketch::kDefaultCapacity;
  // Ring-buffer depth of the daemon's always-on flight recorder.
  size_t flight_recorder_capacity = 256;
};

// Snapshot of the daemon's registry counters (kept as a struct for callers; the
// counters themselves live in the daemon's MetricsRegistry — see docs/TELEMETRY.md).
struct DaemonStats {
  uint64_t publishes = 0;           // accepted from local clients
  uint64_t dispatched_messages = 0; // inbound messages matching >=1 local subscription
  uint64_t deliveries = 0;          // client deliveries sent (one per client match)
  uint64_t no_match = 0;            // inbound messages with no local subscriber
  uint64_t sub_churn = 0;           // lifetime subscribe + unsubscribe operations
};

// Registry names of the daemon-owned metrics.
inline constexpr char kMetricPublishes[] = "bus.publishes";
inline constexpr char kMetricDispatched[] = "bus.dispatched_messages";
inline constexpr char kMetricDeliveries[] = "bus.deliveries";
inline constexpr char kMetricNoMatch[] = "bus.no_match";
inline constexpr char kMetricSubscriptions[] = "bus.subscriptions";
inline constexpr char kMetricSubChurn[] = "bus.sub_churn";
// Telemetry self-overhead accounting: every marshalled byte the daemon puts on the
// wire counts into bus.publish_bytes; the subset whose subject belongs to the
// observability plane (IsObservabilitySubject) also counts into telemetry.self.*.
// The ratio self.bytes / publish_bytes is the plane's self-measured overhead.
inline constexpr char kMetricPublishBytes[] = "bus.publish_bytes";
inline constexpr char kMetricSelfBytes[] = "telemetry.self.bytes";
inline constexpr char kMetricSelfMsgs[] = "telemetry.self.msgs";
// Log-bucketed payload-size distribution per publish (telemetry-gated, like every
// histogram). Per-node histograms merge losslessly into a fleet size distribution
// through busstat's StatsAggregator.
inline constexpr char kMetricPublishSize[] = "bus.publish_size";

class BusDaemon {
 public:
  static Result<std::unique_ptr<BusDaemon>> Start(Network* net, HostId host,
                                                  const BusConfig& config = BusConfig());
  ~BusDaemon();
  BusDaemon(const BusDaemon&) = delete;
  BusDaemon& operator=(const BusDaemon&) = delete;

  HostId host() const { return host_; }
  DaemonStats stats() const;
  ReliableSenderStats sender_stats() const { return sender_->stats(); }
  ReliableReceiverStats receiver_stats() const { return receiver_->stats(); }
  size_t subscription_count() const { return subs_.size(); }

  // The host-wide registry: daemon counters plus the reliable sender/receiver
  // counters all live here, under "bus." and "proto." name prefixes.
  telemetry::MetricsRegistry* metrics() { return &metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  // The host's flight recorder; protocol components share it.
  telemetry::FlightRecorder* flight_recorder() { return &recorder_; }
  const telemetry::FlightRecorder& flight_recorder() const { return recorder_; }

  // Fixed-memory heavy-hitter sketches fed from the dispatch path: which subjects
  // and which publishing peers dominate this host's traffic (src/telemetry/sketch.h).
  const telemetry::TopKSketch& subject_sketch() const { return subject_sketch_; }
  const telemetry::TopKSketch& peer_sketch() const { return peer_sketch_; }

 private:
  BusDaemon(Network* net, HostId host, const BusConfig& config);

  void HandleDatagram(const Datagram& d);
  void HandleClientRegister(const Datagram& d, const Bytes& payload);
  void HandleClientUnregister(const Datagram& d);
  void HandleSubscribe(const Datagram& d, const Bytes& payload);
  void HandleUnsubscribe(const Datagram& d, const Bytes& payload);
  void HandleClientPublish(const Datagram& d, const Bytes& payload);

  // Called by the reliable receiver with every in-order message on the bus.
  void DispatchInbound(const Bytes& message_bytes);
  void AnnounceSubscription(bool added, const std::string& pattern,
                            const std::string& client_name);
  void AnswerSubQuery(const Message& query);
  Status PublishFromDaemon(const Message& m);
#if IBUS_TELEMETRY
  // Broadcasts a HopRecord span for `m` on the reserved trace namespace.
  void EmitHop(telemetry::HopKind kind, const Message& m);
#endif

  Network* net_;
  HostId host_;
  BusConfig config_;

  std::unique_ptr<UdpSocket> socket_;
  std::unique_ptr<ReliableSender> sender_;
  std::unique_ptr<ReliableReceiver> receiver_;

  struct ClientInfo {
    std::string name;
  };
  struct Sub {
    Port client_port = 0;
    uint64_t client_sub_id = 0;
    std::string pattern;
    std::string client_name;
  };

  std::unordered_map<Port, ClientInfo> clients_;
  uint64_t next_sub_key_ = 1;
  std::unordered_map<uint64_t, Sub> subs_;
  SubjectTrie trie_;
  std::map<std::string, int> pattern_refs_;

  telemetry::MetricsRegistry metrics_;
  telemetry::FlightRecorder recorder_;
  telemetry::TopKSketch subject_sketch_;
  telemetry::TopKSketch peer_sketch_;
  // Hot-path instruments, resolved once at construction.
  telemetry::Counter* publishes_;
  telemetry::Counter* dispatched_;
  telemetry::Counter* deliveries_;
  telemetry::Counter* no_match_;
  telemetry::Gauge* subscriptions_;
  telemetry::Counter* sub_churn_;
  telemetry::Counter* publish_bytes_;
  telemetry::Counter* self_bytes_;
  telemetry::Counter* self_msgs_;
  telemetry::LatencyHistogram* publish_size_;
};

}  // namespace ibus

#endif  // SRC_BUS_DAEMON_H_
