#include "src/bus/client.h"

#include "src/common/logging.h"
#include "src/proto/packets.h"
#include "src/subject/subject.h"
#include "src/wire/wire.h"

namespace ibus {

Result<std::unique_ptr<BusClient>> BusClient::Connect(Network* net, HostId host,
                                                      const std::string& name,
                                                      const BusConfig& config) {
  auto client = std::unique_ptr<BusClient>(new BusClient(net, host, name, config));
  auto socket = net->OpenSocket(
      host, 0, [c = client.get()](const Datagram& d) { c->HandleDatagram(d); });
  if (!socket.ok()) {
    return socket.status();
  }
  client->socket_ = socket.take();
  WireWriter w;
  w.PutString(name);
  IBUS_RETURN_IF_ERROR(client->SendToDaemon(kPktClientRegister, w.Take()));
  return client;
}

BusClient::BusClient(Network* net, HostId host, std::string name, const BusConfig& config)
    : net_(net), host_(host), name_(std::move(name)), config_(config) {}

BusClient::~BusClient() {
  if (socket_ != nullptr) {
    SendToDaemon(kPktClientUnregister, Bytes());
  }
}

uint64_t BusClient::client_id() const {
  return (static_cast<uint64_t>(host_) << 16) | socket_->port();
}

Status BusClient::SendToDaemon(uint8_t packet_type, const Bytes& payload) {
  return socket_->SendTo(host_, config_.daemon_port, FrameMessage(packet_type, payload));
}

Status BusClient::Publish(Message m) {  // hotlint: hot
  return PublishScoped(std::move(m), SubjectScope::kApplication);
}

Status BusClient::PublishInternal(Message m) {
  return PublishScoped(std::move(m), SubjectScope::kInternal);
}

Status BusClient::PublishScoped(Message m, SubjectScope scope) {
  IBUS_RETURN_IF_ERROR(ValidateSubject(m.subject, scope));
  if (m.sender.empty()) {
    m.sender = name_;
  }
  if (m.publisher_id == 0) {
    m.publisher_id = client_id();
  }
#if IBUS_TELEMETRY
  bool fresh_trace = false;
  if (config_.trace_sample_period != 0 && scope == SubjectScope::kApplication &&
      m.trace_id == 0 && m.subject[0] != '_') {
    // Deterministic id: the stable client identity plus a per-client sequence. The
    // ordinal always advances — sampling must not shift later candidates — but only
    // publishes whose id hashes into the sample get a trace context; the rest stay
    // untraced and cost nothing downstream (see docs/TELEMETRY.md).
    const uint64_t candidate = (client_id() << 20) | next_trace_++;
    if (telemetry::ShouldSampleTrace(candidate, config_.trace_sample_period)) {
      m.trace_id = candidate;
      m.trace_hop = 0;
      fresh_trace = true;
    }
  }
#endif
  stats_.published++;
  Status sent = SendToDaemon(kPktClientMessage, m.Marshal());
#if IBUS_TELEMETRY
  if (fresh_trace && sent.ok()) {
    EmitHop(telemetry::HopKind::kPublish, m);
  }
#endif
  return sent;
}

#if IBUS_TELEMETRY
void BusClient::EmitHop(telemetry::HopKind kind, const Message& m) {  // hotlint: cold -- trace-hop emission: runs only for traced messages, not the untraced fast path
  telemetry::HopRecord rec;
  rec.trace_id = m.trace_id;
  rec.hop = m.trace_hop;
  rec.kind = kind;
  rec.node = name_;
  rec.subject = m.subject;
  rec.at_us = sim()->Now();
  rec.certified_id = m.certified_id;
  Message span;
  span.subject = telemetry::HopSubject(kind);
  span.type_name = telemetry::kHopRecordType;
  span.payload = rec.Marshal();
  PublishInternal(std::move(span));
}
#endif

Status BusClient::Publish(const std::string& subject, Bytes payload) {  // hotlint: hot
  Message m;
  m.subject = subject;
  m.payload = std::move(payload);
  return Publish(std::move(m));
}

Status BusClient::PublishObject(const std::string& subject, const DataObject& obj) {
  return Publish(Message::ForObject(subject, obj));
}

Result<uint64_t> BusClient::Subscribe(const std::string& pattern, MessageHandler handler) {
  IBUS_RETURN_IF_ERROR(ValidatePattern(pattern));
  uint64_t id = next_sub_id_++;
  handlers_[id] = std::move(handler);
  WireWriter w;
  w.PutU64(id);
  w.PutString(pattern);
  Status s = SendToDaemon(kPktSubscribe, w.Take());
  if (!s.ok()) {
    handlers_.erase(id);
    return s;
  }
  return id;
}

Result<uint64_t> BusClient::SubscribeObjects(const std::string& pattern, ObjectHandler handler) {
  return Subscribe(pattern, [handler = std::move(handler)](const Message& m) {
    auto obj = m.DecodeObject();
    handler(m, obj.ok() ? *obj : DataObjectPtr());
  });
}

Status BusClient::Unsubscribe(uint64_t sub_id) {
  auto it = handlers_.find(sub_id);
  if (it == handlers_.end()) {
    return NotFound("no such subscription");
  }
  handlers_.erase(it);
  WireWriter w;
  w.PutU64(sub_id);
  return SendToDaemon(kPktUnsubscribe, w.Take());
}

Status BusClient::Request(Message m, SimTime timeout_us, RequestDone done) {
  std::string inbox = CreateInboxSubject();
  auto state = std::make_shared<std::pair<bool, uint64_t>>(false, 0);  // (answered, sub)
  auto done_shared = std::make_shared<RequestDone>(std::move(done));
  auto sub = Subscribe(inbox, [this, state, done_shared](const Message& reply) {
    if (state->first) {
      return;  // later responders lose the race
    }
    state->first = true;
    Unsubscribe(state->second);
    (*done_shared)(reply);
  });
  if (!sub.ok()) {
    return sub.status();
  }
  state->second = *sub;
  m.reply_subject = inbox;
  Status published = Publish(std::move(m));
  if (!published.ok()) {
    Unsubscribe(*sub);
    return published;
  }
  sim()->ScheduleAfter(
      timeout_us,
      [this, state, done_shared]() {
        if (state->first) {
          return;
        }
        state->first = true;
        Unsubscribe(state->second);
        (*done_shared)(DeadlineExceeded("request: no response"));
      },
      "bus.request_timeout");
  return OkStatus();
}

Status BusClient::Reply(const Message& request, Message response) {
  if (request.reply_subject.empty()) {
    return FailedPrecondition("reply: request carries no reply subject");
  }
  response.subject = request.reply_subject;
  return Publish(std::move(response));
}

std::string BusClient::CreateInboxSubject() {
  return "_inbox.h" + std::to_string(host_) + ".p" + std::to_string(socket_->port()) + "." +
         std::to_string(next_inbox_++);
}

void BusClient::HandleDatagram(const Datagram& d) {  // hotlint: hot
  auto frame = ParseFrame(d.payload);
  if (!frame.ok() || frame->frame_type != kPktClientDeliver) {
    return;
  }
  WireReader r(frame->payload);
  auto count = r.ReadVarint();
  if (!count.ok()) {
    return;
  }
  if (*count > r.remaining() / 8) {
    return;
  }
  std::vector<uint64_t> sub_ids;
  sub_ids.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto id = r.ReadU64();
    if (!id.ok()) {
      return;
    }
    sub_ids.push_back(*id);
  }
  Bytes message_bytes(frame->payload.begin() + static_cast<ptrdiff_t>(r.position()),
                      frame->payload.end());
  auto msg = Message::Unmarshal(message_bytes);
  if (!msg.ok()) {
    return;
  }
  stats_.received++;
  for (uint64_t id : sub_ids) {
    auto it = handlers_.find(id);
    if (it != handlers_.end()) {
      // Copy the handler: it may unsubscribe (erase) itself during the call.
      MessageHandler handler = it->second;
      handler(*msg);
    }
  }
#if IBUS_TELEMETRY
  if (msg->trace_id != 0) {
    EmitHop(telemetry::HopKind::kDeliver, *msg);
  }
#endif
}

}  // namespace ibus
