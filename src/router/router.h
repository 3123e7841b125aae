// Information routers (paper §3.1): "To the Information Bus, these routers look like
// ordinary applications, but they actually integrate multiple instances of the bus.
// Messages are received by one router using a subscription, transmitted to another
// router, and then re-published on another bus. The router is intelligent about which
// messages are sent to which routers: messages are only re-published on buses for
// which there exists a subscription on that subject; the router can also perform
// other functions, such as transforming subjects or logging messages to non-volatile
// storage."
//
// Implementation: each InfoRouter is a bus client on its LAN, paired with a remote
// peer over a point-to-point (WAN) connection. Routers learn their LAN's subscription
// set from the daemons' control plane (kSubEventSubject events plus a kSubQuerySubject
// sweep at startup), advertise it to the peer, and subscribe locally to whatever the
// *peer's* LAN wants — so only traffic with a remote subscriber crosses the WAN.
#ifndef SRC_ROUTER_ROUTER_H_
#define SRC_ROUTER_ROUTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/sim/stable_store.h"
#include "src/subject/subject.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sketch.h"

namespace ibus {

// Prefix rewrite applied to subjects crossing this router outbound (paper:
// "transforming subjects"). A subject "fab5.x" with {"fab5", "site2.fab5"} becomes
// "site2.fab5.x".
struct SubjectRewrite {
  std::string from_prefix;
  std::string to_prefix;
};

struct RouterConfig {
  // Loop cap for multi-router topologies (rings).
  uint8_t max_hops = 8;
  // Outbound subject rewrites.
  std::vector<SubjectRewrite> rewrites;
  // Optional store-and-forward log: every forwarded message is appended before being
  // sent over the WAN link.
  StableStore* forward_log = nullptr;
  // Don't forward bus-internal control subjects across the WAN.
  bool forward_internal = false;
  // Reserved-namespace prefixes that cross the WAN even when forward_internal is
  // false: trace spans (so a collector sees the whole path), certified-delivery
  // acks (so certified publishes across a router can retire), health events (so
  // a busmon console anywhere sees the whole fleet's alerts), and busstat
  // time-series records (so a StatsAggregator anywhere merges the whole fleet).
  std::vector<std::string> forward_internal_prefixes = {
      kReservedTracePrefix, kReservedCertPrefix, kReservedHealthPrefix,
      kReservedStatsTsPrefix};
  // Ring-buffer depth of the router's always-on flight recorder.
  size_t flight_recorder_capacity = 256;
  // Slot capacity of the router's WAN heavy-hitter sketches (src/telemetry/sketch.h).
  size_t sketch_capacity = telemetry::TopKSketch::kDefaultCapacity;
  // Dial-side resilience: when the WAN link drops (or the first dial fails), retry
  // this often. 0 disables redialing.
  SimTime redial_interval_us = 2 * 1000 * 1000;
};

// Registry names of the router-owned gauges (see InfoRouter::metrics()). Both
// carry a monotone "<name>.hwm" twin.
inline constexpr char kMetricRouterLinkBacklogUs[] = "router.link_backlog_us";
inline constexpr char kMetricRouterPeerSubs[] = "router.peer_subs";

struct RouterStats {
  uint64_t forwarded = 0;       // messages sent to the peer
  uint64_t republished = 0;     // messages received from the peer and republished
  uint64_t suppressed_loop = 0; // dropped by via/hop-cap checks
  uint64_t adverts_sent = 0;
  uint64_t remote_patterns = 0; // current count of peer-requested subscriptions
};

class InfoRouter {
 public:
  // Creates the listening half of a router pair on `bus`'s host.
  static Result<std::unique_ptr<InfoRouter>> Listen(BusClient* bus, const std::string& name,
                                                    Port port,
                                                    const RouterConfig& config = {});
  // Creates the connecting half; dials the peer at (peer_host, peer_port).
  static Result<std::unique_ptr<InfoRouter>> Connect(BusClient* bus, const std::string& name,
                                                     HostId peer_host, Port peer_port,
                                                     const RouterConfig& config = {});
  ~InfoRouter();
  InfoRouter(const InfoRouter&) = delete;
  InfoRouter& operator=(const InfoRouter&) = delete;

  const std::string& name() const { return name_; }
  bool linked() const { return link_ != nullptr && link_->open(); }
  const RouterStats& stats() const { return stats_; }

  telemetry::FlightRecorder* flight_recorder() { return &recorder_; }
  const telemetry::FlightRecorder& flight_recorder() const { return recorder_; }

  // Fixed-memory heavy-hitter sketches over WAN-crossing traffic: which subjects
  // and which publishing peers dominate this router's link (src/telemetry/sketch.h).
  const telemetry::TopKSketch& subject_sketch() const { return subject_sketch_; }
  const telemetry::TopKSketch& peer_sketch() const { return peer_sketch_; }

  // Router-owned gauges: "router.link_backlog_us" (+ ".hwm") tracks how far the
  // WAN link's outbound FIFO runs ahead of now at each forward, and
  // "router.peer_subs" the peer-requested mirror count. busprof's queue plane
  // reads these next to the daemon's "proto.*" depths.
  telemetry::MetricsRegistry* metrics() { return &metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

 private:
  InfoRouter(BusClient* bus, std::string name, const RouterConfig& config);

  Status Init();                      // control-plane subscriptions + startup sweep
  void AttachLink(ConnectionPtr link);
  void HandleLinkMessage(const Bytes& bytes);
  void HandleLinkClosed();
  void Dial();                        // connect-side: (re)establish the WAN link

  // Local subscription tracking -> peer advertisement.
  void NoteLocalPattern(const std::string& pattern, const std::string& owner, bool added);
  void SendAdvert();

  // Peer wants these patterns: mirror them as local subscriptions.
  void ApplyPeerAdvert(const std::vector<std::string>& patterns);
  void ForwardToPeer(const Message& m);
  void RepublishFromPeer(Message m);
  // True for reserved subjects/patterns allowed across the WAN regardless of
  // forward_internal (see RouterConfig::forward_internal_prefixes).
  bool InternalForwardable(const std::string& subject_or_pattern) const;
#if IBUS_TELEMETRY
  // Publishes a HopRecord span for `m` on the local LAN's trace namespace.
  void EmitHop(telemetry::HopKind kind, const Message& m);
#endif
  std::string RewriteSubject(const std::string& subject) const;
  // Maps a peer-requested pattern (expressed in OUR outbound namespace) back to the
  // local namespace, so the mirror subscription matches local traffic. The inverse of
  // RewriteSubject on prefixes; patterns not under any rewritten prefix pass through.
  std::string InverseRewritePattern(const std::string& pattern) const;

  BusClient* bus_;
  std::string name_;
  RouterConfig config_;

  std::unique_ptr<Listener> listener_;
  ConnectionPtr link_;
  bool advert_pending_ = false;
  // Set on the dialing side; kNoHost on the listening side.
  HostId peer_host_ = kNoHost;
  Port peer_port_ = 0;
  bool dialing_ = false;

  // Patterns subscribed somewhere on the local LAN (by non-router clients) with a
  // reference count across daemons.
  std::map<std::string, int> local_patterns_;
  // Patterns the peer asked for -> our local subscription id.
  std::map<std::string, uint64_t> peer_subs_;
  std::vector<uint64_t> control_subs_;
  RouterStats stats_;
  telemetry::TopKSketch subject_sketch_{telemetry::TopKSketch::kDefaultCapacity};
  telemetry::TopKSketch peer_sketch_{telemetry::TopKSketch::kDefaultCapacity};
  telemetry::MetricsRegistry metrics_;
  telemetry::QueueDepthGauge link_backlog_{nullptr, nullptr};
  telemetry::QueueDepthGauge peer_subs_gauge_{nullptr, nullptr};
  telemetry::FlightRecorder recorder_;
  std::shared_ptr<bool> alive_;
};

}  // namespace ibus

#endif  // SRC_ROUTER_ROUTER_H_
