#include "src/router/router.h"

#include <optional>

#include "src/common/logging.h"
#include "src/proto/packets.h"
#include "src/subject/subject.h"
#include "src/wire/wire.h"

namespace ibus {

namespace {

bool IsRouterOwned(const std::string& owner) { return owner.rfind("_router", 0) == 0; }

// The link advert payload: the router's current local subscription patterns.
// wirecheck: codec(router_advert, version=0)
Bytes MarshalAdvert(const std::map<std::string, int>& patterns) {
  WireWriter w;
  w.PutVarint(patterns.size());
  for (const auto& [pattern, refs] : patterns) {
    w.PutString(pattern);
  }
  return w.Take();
}

// wirecheck: codec(router_advert, version=0)
std::optional<std::vector<std::string>> ParseAdvert(const Bytes& payload) {
  WireReader r(payload);
  auto count = r.ReadVarint();
  if (!count.ok()) {
    return std::nullopt;
  }
  // Every pattern costs at least its length byte on the wire, so a plausible
  // count can never exceed the remaining payload.
  if (*count > r.remaining()) {
    return std::nullopt;
  }
  std::vector<std::string> patterns;
  patterns.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto p = r.ReadString();
    if (!p.ok()) {
      return std::nullopt;
    }
    patterns.push_back(p.take());
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return patterns;
}
}  // namespace

InfoRouter::InfoRouter(BusClient* bus, std::string name, const RouterConfig& config)
    : bus_(bus),
      name_(std::move(name)),
      config_(config),
      subject_sketch_(config.sketch_capacity),
      peer_sketch_(config.sketch_capacity),
      recorder_(name_, config.flight_recorder_capacity),
      alive_(std::make_shared<bool>(true)) {
  link_backlog_ = metrics_.GetQueueDepth(kMetricRouterLinkBacklogUs);
  peer_subs_gauge_ = metrics_.GetQueueDepth(kMetricRouterPeerSubs);
}

InfoRouter::~InfoRouter() {
  *alive_ = false;
  for (uint64_t sub : control_subs_) {
    bus_->Unsubscribe(sub);
  }
  for (const auto& [pattern, sub] : peer_subs_) {
    bus_->Unsubscribe(sub);
  }
  if (link_ != nullptr) {
    link_->SetMessageHandler(nullptr);
    link_->SetCloseHandler(nullptr);
    link_->Close();
  }
}

Result<std::unique_ptr<InfoRouter>> InfoRouter::Listen(BusClient* bus, const std::string& name,
                                                       Port port, const RouterConfig& config) {
  auto router = std::unique_ptr<InfoRouter>(new InfoRouter(bus, name, config));
  auto listener = bus->network()->Listen(
      bus->host(), port, [r = router.get()](ConnectionPtr conn) { r->AttachLink(std::move(conn)); });
  if (!listener.ok()) {
    return listener.status();
  }
  router->listener_ = listener.take();
  IBUS_RETURN_IF_ERROR(router->Init());
  return router;
}

Result<std::unique_ptr<InfoRouter>> InfoRouter::Connect(BusClient* bus, const std::string& name,
                                                        HostId peer_host, Port peer_port,
                                                        const RouterConfig& config) {
  auto router = std::unique_ptr<InfoRouter>(new InfoRouter(bus, name, config));
  router->peer_host_ = peer_host;
  router->peer_port_ = peer_port;
  IBUS_RETURN_IF_ERROR(router->Init());
  router->Dial();
  return router;
}

void InfoRouter::Dial() {
  if (dialing_ || (link_ != nullptr && link_->open())) {
    return;
  }
  dialing_ = true;
  bus_->network()->Connect(
      bus_->host(), peer_host_, peer_port_,
      [this, alive = alive_](Result<ConnectionPtr> conn) {
        if (!*alive) {
          return;
        }
        dialing_ = false;
        if (conn.ok()) {
          AttachLink(conn.take());
          return;
        }
        if (config_.redial_interval_us > 0) {
          bus_->sim()->ScheduleAfter(
              config_.redial_interval_us,
              [this, alive]() {
                if (*alive) {
                  Dial();
                }
              },
              "router.redial");
        }
      });
}

Status InfoRouter::Init() {
  // Track live subscription changes on this LAN.
  auto event_sub = bus_->Subscribe(kSubEventSubject, [this](const Message& m) {
    WireReader r(m.payload);
    auto added = r.ReadBool();
    auto pattern = r.ReadString();
    auto owner = r.ReadString();
    if (added.ok() && pattern.ok() && owner.ok()) {
      NoteLocalPattern(*pattern, *owner, *added);
    }
  });
  if (!event_sub.ok()) {
    return event_sub.status();
  }
  control_subs_.push_back(*event_sub);

  // Startup sweep: ask every daemon for its current subscription table.
  std::string inbox = bus_->CreateInboxSubject();
  auto inbox_sub = bus_->Subscribe(inbox, [this](const Message& m) {
    WireReader r(m.payload);
    auto count = r.ReadVarint();
    if (!count.ok()) {
      return;
    }
    for (uint64_t i = 0; i < *count; ++i) {
      auto pattern = r.ReadString();
      auto owner = r.ReadString();
      if (!pattern.ok() || !owner.ok()) {
        return;
      }
      NoteLocalPattern(*pattern, *owner, /*added=*/true);
    }
  });
  if (!inbox_sub.ok()) {
    return inbox_sub.status();
  }
  control_subs_.push_back(*inbox_sub);

  Message query;
  query.subject = kSubQuerySubject;
  query.reply_subject = inbox;
  return bus_->PublishInternal(std::move(query));
}

void InfoRouter::AttachLink(ConnectionPtr link) {
  link_ = std::move(link);
  link_->SetMessageHandler([this](const Bytes& bytes) { HandleLinkMessage(bytes); });
  // ConnectionClose copies this handler into a scheduled event, so clearing it in
  // the destructor cannot cancel an already-queued close — guard with alive_.
  link_->SetCloseHandler([this, alive = alive_]() {
    if (*alive) {
      HandleLinkClosed();
    }
  });
  SendAdvert();
}

void InfoRouter::HandleLinkClosed() {
  link_ = nullptr;
  // Peer subscriptions are kept: messages simply stop flowing until a reconnect, and
  // the next advert re-syncs the peer. The dialing side re-establishes the link.
  if (peer_host_ != kNoHost && config_.redial_interval_us > 0) {
    bus_->sim()->ScheduleAfter(
        config_.redial_interval_us,
        [this, alive = alive_]() {
          if (*alive) {
            Dial();
          }
        },
        "router.redial");
  }
}

void InfoRouter::NoteLocalPattern(const std::string& pattern, const std::string& owner,
                                  bool added) {
  if (owner == bus_->name() || IsRouterOwned(owner)) {
    return;  // never advertise subscriptions created by routers (loop prevention)
  }
  if (!config_.forward_internal && IsReservedSubject(pattern) && !InternalForwardable(pattern)) {
    return;
  }
  bool changed = false;
  if (added) {
    changed = ++local_patterns_[pattern] == 1;
  } else {
    auto it = local_patterns_.find(pattern);
    if (it != local_patterns_.end() && --it->second == 0) {
      local_patterns_.erase(it);
      changed = true;
    }
  }
  if (changed) {
    SendAdvert();
  }
}

void InfoRouter::SendAdvert() {
  if (link_ == nullptr || !link_->open()) {
    return;
  }
  if (advert_pending_) {
    return;  // coalesce bursts (startup sweeps arrive as many events)
  }
  advert_pending_ = true;
  bus_->sim()->ScheduleAfter(
      kMillisecond,
      [this, alive = alive_]() {
        if (!*alive) {
          return;
        }
        advert_pending_ = false;
        if (link_ == nullptr || !link_->open()) {
          return;
        }
        link_->Send(FrameMessage(kPktRouterAdvert, MarshalAdvert(local_patterns_)));
        stats_.adverts_sent++;
      },
      "router.advert");
}

void InfoRouter::HandleLinkMessage(const Bytes& bytes) {
  auto frame = ParseFrame(bytes);
  if (!frame.ok()) {
    return;
  }
  if (frame->frame_type == kPktRouterAdvert) {
    auto patterns = ParseAdvert(frame->payload);
    if (!patterns.has_value()) {
      return;
    }
    ApplyPeerAdvert(*patterns);
  } else if (frame->frame_type == kPktRouterMessage) {
    auto m = Message::Unmarshal(frame->payload);
    if (m.ok()) {
      RepublishFromPeer(m.take());
    }
  }
}

void InfoRouter::ApplyPeerAdvert(const std::vector<std::string>& patterns) {
  std::set<std::string> wanted(patterns.begin(), patterns.end());
  // Drop local mirrors the peer no longer wants.
  for (auto it = peer_subs_.begin(); it != peer_subs_.end();) {
    if (wanted.count(it->first) == 0) {
      bus_->Unsubscribe(it->second);
      it = peer_subs_.erase(it);
    } else {
      ++it;
    }
  }
  // Mirror new ones: "messages are only re-published on buses for which there exists
  // a subscription on that subject". The peer expresses patterns in our outbound
  // (possibly rewritten) namespace; subscribe to the local form.
  for (const std::string& pattern : wanted) {
    if (peer_subs_.count(pattern) > 0) {
      continue;
    }
    auto sub = bus_->Subscribe(InverseRewritePattern(pattern),
                               [this](const Message& m) { ForwardToPeer(m); });
    if (sub.ok()) {
      peer_subs_[pattern] = *sub;
    }
  }
  stats_.remote_patterns = peer_subs_.size();
  peer_subs_gauge_.Set(static_cast<int64_t>(peer_subs_.size()));
}

std::string InfoRouter::InverseRewritePattern(const std::string& pattern) const {
  for (const SubjectRewrite& rw : config_.rewrites) {
    if (pattern == rw.to_prefix) {
      return rw.from_prefix;
    }
    if (pattern.rfind(rw.to_prefix + ".", 0) == 0) {
      return rw.from_prefix + pattern.substr(rw.to_prefix.size());
    }
  }
  return pattern;
}

std::string InfoRouter::RewriteSubject(const std::string& subject) const {  // hotlint: allow(hot-by-value) -- the rewritten subject must be materialized for the forwarded copy
  for (const SubjectRewrite& rw : config_.rewrites) {
    if (subject == rw.from_prefix) {
      return rw.to_prefix;
    }
    if (subject.rfind(rw.from_prefix + ".", 0) == 0) {  // hotlint: allow(hot-string) -- prefix rewrite builds the forwarded subject once per WAN hop
      return rw.to_prefix + subject.substr(rw.from_prefix.size());
    }
  }
  return subject;
}

void InfoRouter::ForwardToPeer(const Message& m) {  // hotlint: hot
  if (link_ == nullptr || !link_->open()) {
    return;
  }
  if (m.via == name_ || m.hops >= config_.max_hops) {
    stats_.suppressed_loop++;
    recorder_.Record(bus_->sim()->Now(), telemetry::FlightEventKind::kDrop, m.subject,
                     m.via == name_ ? "loop: own via" : "loop: hop cap");
    return;
  }
  if (!config_.forward_internal && IsReservedSubject(m.subject) &&
      !InternalForwardable(m.subject)) {
    return;
  }
  Message out = m;
  out.subject = RewriteSubject(m.subject);
  out.hops = static_cast<uint8_t>(m.hops + 1);
  out.via = name_;
#if IBUS_TELEMETRY
  if (out.trace_id != 0) {
    out.trace_hop = static_cast<uint8_t>(m.trace_hop + 1);
  }
#endif
  Bytes marshalled = out.Marshal();
  if (config_.forward_log != nullptr) {
    config_.forward_log->Append(marshalled);
  }
  link_->Send(FrameMessage(kPktRouterMessage, marshalled));
  stats_.forwarded++;
  subject_sketch_.Offer(out.subject);
  if (!out.sender.empty()) {
    peer_sketch_.Offer(out.sender);
  }
  link_backlog_.Set(link_->BacklogUs());
  recorder_.Record(bus_->sim()->Now(), telemetry::FlightEventKind::kPublish, out.subject,
                   "forward bytes=" + std::to_string(marshalled.size()));  // hotlint: allow(hot-string) -- flight-recorder entry: the ring stores owning strings by design
#if IBUS_TELEMETRY
  if (out.trace_id != 0) {
    EmitHop(telemetry::HopKind::kRouterForward, out);
  }
#endif
}

void InfoRouter::RepublishFromPeer(Message m) {  // hotlint: hot
  // Stamp ourselves so our own mirror subscriptions don't bounce it straight back.
  m.via = name_;
  stats_.republished++;
  subject_sketch_.Offer(m.subject);
  if (!m.sender.empty()) {
    peer_sketch_.Offer(m.sender);
  }
  recorder_.Record(bus_->sim()->Now(), telemetry::FlightEventKind::kPublish, m.subject,
                   "republish bytes=" + std::to_string(m.payload.size()));  // hotlint: allow(hot-string) -- flight-recorder entry: the ring stores owning strings by design
#if IBUS_TELEMETRY
  if (m.trace_id != 0) {
    m.trace_hop = static_cast<uint8_t>(m.trace_hop + 1);
    EmitHop(telemetry::HopKind::kRouterRepublish, m);
  }
#endif
  bus_->PublishInternal(std::move(m));
}

bool InfoRouter::InternalForwardable(const std::string& subject_or_pattern) const {
  for (const std::string& prefix : config_.forward_internal_prefixes) {
    if (subject_or_pattern.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

#if IBUS_TELEMETRY
void InfoRouter::EmitHop(telemetry::HopKind kind, const Message& m) {  // hotlint: cold -- trace-hop emission: runs only for traced messages, not the untraced fast path
  telemetry::HopRecord rec;
  rec.trace_id = m.trace_id;
  rec.hop = m.trace_hop;
  rec.kind = kind;
  rec.node = name_;
  rec.subject = m.subject;
  rec.at_us = bus_->sim()->Now();
  rec.certified_id = m.certified_id;
  Message span;
  span.subject = telemetry::HopSubject(kind);
  span.type_name = telemetry::kHopRecordType;
  span.payload = rec.Marshal();
  bus_->PublishInternal(std::move(span));
}
#endif

}  // namespace ibus
