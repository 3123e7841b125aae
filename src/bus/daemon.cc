#include "src/bus/daemon.h"

#include "src/common/logging.h"
#include "src/wire/wire.h"

namespace ibus {

Result<std::unique_ptr<BusDaemon>> BusDaemon::Start(Network* net, HostId host,
                                                    const BusConfig& config) {
  auto daemon = std::unique_ptr<BusDaemon>(new BusDaemon(net, host, config));
  auto socket = net->OpenSocket(host, config.daemon_port,
                                [d = daemon.get()](const Datagram& dg) { d->HandleDatagram(dg); });
  if (!socket.ok()) {
    return socket.status();
  }
  daemon->socket_ = socket.take();
  // One broadcast stream per daemon *boot*: the host id keys it uniquely on the
  // bus and the boot epoch makes a restarted daemon a brand-new stream — peers
  // still holding receiver state for the previous incarnation would otherwise
  // drop the restarted sender's low sequence numbers as duplicates. The first
  // boot has epoch 0, so single-boot runs keep their historical stream ids.
  const uint64_t epoch = net->NextBootEpoch(host);
  const uint64_t stream_id = (epoch << 32) | (static_cast<uint64_t>(host) + 1);
  daemon->sender_ = std::make_unique<ReliableSender>(
      net->sim(), daemon->socket_.get(), config.daemon_port, stream_id, config.reliable,
      &daemon->metrics_, &daemon->recorder_);
  daemon->receiver_ = std::make_unique<ReliableReceiver>(
      net->sim(), daemon->socket_.get(), config.reliable,
      [d = daemon.get()](uint64_t /*stream*/, const Bytes& bytes) { d->DispatchInbound(bytes); },
      nullptr, &daemon->metrics_, &daemon->recorder_);
  return daemon;
}

BusDaemon::BusDaemon(Network* net, HostId host, const BusConfig& config)
    : net_(net),
      host_(host),
      config_(config),
      recorder_("daemon@" + std::to_string(host), config.flight_recorder_capacity),
      subject_sketch_(config.sketch_capacity),
      peer_sketch_(config.sketch_capacity),
      publishes_(metrics_.GetCounter(kMetricPublishes)),
      dispatched_(metrics_.GetCounter(kMetricDispatched)),
      deliveries_(metrics_.GetCounter(kMetricDeliveries)),
      no_match_(metrics_.GetCounter(kMetricNoMatch)),
      subscriptions_(metrics_.GetGauge(kMetricSubscriptions)),
      sub_churn_(metrics_.GetCounter(kMetricSubChurn)),
      publish_bytes_(metrics_.GetCounter(kMetricPublishBytes)),
      self_bytes_(metrics_.GetCounter(kMetricSelfBytes)),
      self_msgs_(metrics_.GetCounter(kMetricSelfMsgs)),
      publish_size_(metrics_.GetHistogram(kMetricPublishSize)) {}

DaemonStats BusDaemon::stats() const {
  DaemonStats s;
  s.publishes = publishes_->value();
  s.dispatched_messages = dispatched_->value();
  s.deliveries = deliveries_->value();
  s.no_match = no_match_->value();
  s.sub_churn = sub_churn_->value();
  return s;
}

BusDaemon::~BusDaemon() = default;

void BusDaemon::HandleDatagram(const Datagram& d) {  // hotlint: hot
  auto frame = ParseFrame(d.payload);
  if (!frame.ok()) {
    IBUS_WARN() << "daemon@" << host_ << ": dropping bad frame: " << frame.status().ToString();  // hotlint: allow(hot-iostream) -- malformed-frame drop: error path, not per-message
    recorder_.Record(net_->sim()->Now(), telemetry::FlightEventKind::kDrop, "",
                     "bad frame: " + frame.status().ToString());  // hotlint: allow(hot-string) -- malformed-frame drop detail: error path
    return;
  }
  switch (frame->frame_type) {
    case kPktData: {
      auto pkt = DataPacket::Unmarshal(frame->payload);
      if (pkt.ok()) {
        receiver_->HandleData(*pkt, d.src_host, d.src_port);
      }
      break;
    }
    case kPktBatch: {
      auto pkt = BatchPacket::Unmarshal(frame->payload);
      if (pkt.ok()) {
        receiver_->HandleBatch(*pkt, d.src_host, d.src_port);
      }
      break;
    }
    case kPktHeartbeat: {
      auto pkt = HeartbeatPacket::Unmarshal(frame->payload);
      if (pkt.ok()) {
        receiver_->HandleHeartbeat(*pkt, d.src_host, d.src_port);
      }
      break;
    }
    case kPktNak: {
      auto pkt = NakPacket::Unmarshal(frame->payload);
      if (pkt.ok() && pkt->stream_id == sender_->stream_id()) {
        sender_->HandleNak(*pkt, d.src_host, d.src_port);
      }
      break;
    }
    case kPktClientRegister:
      HandleClientRegister(d, frame->payload);
      break;
    case kPktClientUnregister:
      HandleClientUnregister(d);
      break;
    case kPktSubscribe:
      HandleSubscribe(d, frame->payload);
      break;
    case kPktUnsubscribe:
      HandleUnsubscribe(d, frame->payload);
      break;
    case kPktClientMessage:
      HandleClientPublish(d, frame->payload);
      break;
    default:
      IBUS_WARN() << "daemon@" << host_ << ": unknown frame type "  // hotlint: allow(hot-iostream) -- unknown-frame warning: error path
                  << static_cast<int>(frame->frame_type);
      break;
  }
}

void BusDaemon::HandleClientRegister(const Datagram& d, const Bytes& payload) {
  WireReader r(payload);
  auto name = r.ReadString();
  if (!name.ok()) {
    return;
  }
  clients_[d.src_port] = ClientInfo{name.take()};
}

void BusDaemon::HandleClientUnregister(const Datagram& d) {  // hotlint: cold -- client-unregister control path: runs per disconnect, not per message
  clients_.erase(d.src_port);
  // Remove all subscriptions held by this client.
  std::vector<uint64_t> to_remove;
  for (const auto& [key, sub] : subs_) {
    if (sub.client_port == d.src_port) {
      to_remove.push_back(key);
    }
  }
  for (uint64_t key : to_remove) {
    const Sub& sub = subs_[key];
    trie_.Remove(sub.pattern, key);
    if (--pattern_refs_[sub.pattern] == 0) {
      pattern_refs_.erase(sub.pattern);
      AnnounceSubscription(false, sub.pattern, sub.client_name);
    }
    subs_.erase(key);
    sub_churn_->Inc();
  }
  subscriptions_->Set(static_cast<int64_t>(subs_.size()));
}

void BusDaemon::HandleSubscribe(const Datagram& d, const Bytes& payload) {
  WireReader r(payload);
  auto client_sub_id = r.ReadU64();
  auto pattern = r.ReadString();
  if (!client_sub_id.ok() || !pattern.ok()) {
    return;
  }
  Sub sub;
  sub.client_port = d.src_port;
  sub.client_sub_id = *client_sub_id;
  sub.pattern = pattern.take();
  auto cit = clients_.find(d.src_port);
  sub.client_name = cit != clients_.end() ? cit->second.name : "";
  uint64_t key = next_sub_key_++;
  if (!trie_.Insert(sub.pattern, key).ok()) {
    return;  // invalid pattern; the client validated too, so this is defensive
  }
  bool fresh = ++pattern_refs_[sub.pattern] == 1;
  std::string pattern_copy = sub.pattern;
  std::string client_name = sub.client_name;
  subs_[key] = std::move(sub);
  subscriptions_->Set(static_cast<int64_t>(subs_.size()));
  sub_churn_->Inc();
  if (fresh) {
    AnnounceSubscription(true, pattern_copy, client_name);
  }
}

void BusDaemon::HandleUnsubscribe(const Datagram& d, const Bytes& payload) {
  WireReader r(payload);
  auto client_sub_id = r.ReadU64();
  if (!client_sub_id.ok()) {
    return;
  }
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    if (it->second.client_port == d.src_port && it->second.client_sub_id == *client_sub_id) {
      trie_.Remove(it->second.pattern, it->first);
      if (--pattern_refs_[it->second.pattern] == 0) {
        pattern_refs_.erase(it->second.pattern);
        AnnounceSubscription(false, it->second.pattern, it->second.client_name);
      }
      subs_.erase(it);
      subscriptions_->Set(static_cast<int64_t>(subs_.size()));
      sub_churn_->Inc();
      return;
    }
  }
}

void BusDaemon::HandleClientPublish(const Datagram& /*from*/, const Bytes& payload) {  // hotlint: hot
  publishes_->Inc();
  publish_bytes_->Inc(payload.size());
  publish_size_->Record(static_cast<int64_t>(payload.size()));
  // Self-overhead accounting and the flight recorder read only the leading subject
  // field; the payload itself stays opaque on the send path.
  if (auto subject = Message::PeekSubject(payload); subject.ok()) {
    // Self-overhead accounting: bytes the observability plane injects through local
    // clients (trace spans, stats samples, health beacons) attribute to
    // telemetry.self.* at this choke point.
    if (IsObservabilitySubject(*subject)) {
      self_bytes_->Inc(payload.size());
      self_msgs_->Inc();
    }
    recorder_.Record(net_->sim()->Now(), telemetry::FlightEventKind::kPublish,
                     std::string(*subject), "bytes=" + std::to_string(payload.size()));  // hotlint: allow(hot-string) -- flight-recorder entry: the ring stores owning strings by design
  }
  // The daemon treats the marshalled message as opaque: it goes straight onto the
  // reliable broadcast stream. Subject matching happens at every receiving daemon
  // (including this one, via medium loopback).
  sender_->Publish(payload);
#if IBUS_TELEMETRY
  // Peek at the envelope only when the publish is traced; untraced messages stay
  // opaque to the daemon's send path.
  auto msg = Message::Unmarshal(payload);
  if (msg.ok() && msg->trace_id != 0) {
    EmitHop(telemetry::HopKind::kWireSend, *msg);
  }
#endif
}

Status BusDaemon::PublishFromDaemon(const Message& m) {
  Bytes bytes = m.Marshal();
  publish_bytes_->Inc(bytes.size());
  // Daemon-originated traffic (hop spans, sub gossip) runs through the same
  // self-overhead classifier as client publishes.
  if (IsObservabilitySubject(m.subject)) {
    self_bytes_->Inc(bytes.size());
    self_msgs_->Inc();
  }
  return sender_->Publish(bytes);
}

void BusDaemon::DispatchInbound(const Bytes& message_bytes) {  // hotlint: hot
  auto msg = Message::Unmarshal(message_bytes);
  if (!msg.ok()) {
    IBUS_WARN() << "daemon@" << host_ << ": undecodable message: " << msg.status().ToString();  // hotlint: allow(hot-iostream) -- undecodable-message drop: error path
    recorder_.Record(net_->sim()->Now(), telemetry::FlightEventKind::kDrop, "",
                     "undecodable message: " + msg.status().ToString());  // hotlint: allow(hot-string) -- undecodable-message drop detail: error path
    return;
  }
  // Heavy-hitter accounting: every in-order message on the bus (including the
  // observability plane's own) feeds the fixed-memory sketches. O(capacity) scans,
  // no steady-state allocation — see src/telemetry/sketch.h.
  subject_sketch_.Offer(msg->subject);
  if (!msg->sender.empty()) {
    peer_sketch_.Offer(msg->sender);
  }
  if (config_.announce_subscriptions && msg->subject == kSubQuerySubject &&
      !msg->reply_subject.empty()) {
    AnswerSubQuery(*msg);
  }
  std::vector<uint64_t> matches;
  trie_.Match(msg->subject, &matches);
  if (matches.empty()) {
    no_match_->Inc();
    return;
  }
  dispatched_->Inc();
  // Group matched subscriptions by client so each client gets one delivery datagram.
  std::map<Port, std::vector<uint64_t>> by_client;
  for (uint64_t key : matches) {
    auto it = subs_.find(key);
    if (it != subs_.end()) {
      by_client[it->second.client_port].push_back(it->second.client_sub_id);  // hotlint: allow(hot-container-growth) -- per-dispatch fan-out grouping, bounded by matched clients
    }
  }
  for (const auto& [port, sub_ids] : by_client) {
    WireWriter w;
    w.PutVarint(sub_ids.size());
    for (uint64_t id : sub_ids) {
      w.PutU64(id);
    }
    w.PutRaw(message_bytes);
    socket_->SendTo(host_, port, FrameMessage(kPktClientDeliver, w.Take()));
    deliveries_->Inc();
  }
#if IBUS_TELEMETRY
  if (msg->trace_id != 0) {
    EmitHop(telemetry::HopKind::kDispatch, *msg);
  }
#endif
}

#if IBUS_TELEMETRY
void BusDaemon::EmitHop(telemetry::HopKind kind, const Message& m) {  // hotlint: cold -- trace-hop emission: runs only for traced messages, not the untraced fast path
  telemetry::HopRecord rec;
  rec.trace_id = m.trace_id;
  rec.hop = m.trace_hop;
  rec.kind = kind;
  rec.node = "daemon@" + std::to_string(host_);
  rec.subject = m.subject;
  rec.at_us = net_->sim()->Now();
  rec.certified_id = m.certified_id;
  Message span;
  span.subject = telemetry::HopSubject(kind);
  span.type_name = telemetry::kHopRecordType;
  span.payload = rec.Marshal();
  PublishFromDaemon(span);
}
#endif

void BusDaemon::AnnounceSubscription(bool added, const std::string& pattern,
                                     const std::string& client_name) {
  if (!config_.announce_subscriptions) {
    return;
  }
  Message m;
  m.subject = kSubEventSubject;
  WireWriter w;
  w.PutBool(added);
  w.PutString(pattern);
  w.PutString(client_name);
  m.payload = w.Take();
  PublishFromDaemon(m);
}

void BusDaemon::AnswerSubQuery(const Message& query) {
  Message reply;
  reply.subject = query.reply_subject;
  WireWriter w;
  w.PutVarint(pattern_refs_.size());
  for (const auto& [pattern, refs] : pattern_refs_) {
    w.PutString(pattern);
    // Routers need the owning clients' names to filter out their own subscriptions;
    // report the first client holding this pattern.
    std::string owner;
    for (const auto& [key, sub] : subs_) {
      if (sub.pattern == pattern) {
        owner = sub.client_name;
        break;
      }
    }
    w.PutString(owner);
  }
  reply.payload = w.Take();
  PublishFromDaemon(reply);
}

}  // namespace ibus
