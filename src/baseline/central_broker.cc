#include "src/baseline/central_broker.h"

#include "src/proto/packets.h"
#include "src/wire/wire.h"

namespace ibus {

Result<std::unique_ptr<CentralBroker>> CentralBroker::Start(Network* net, HostId host,
                                                            Port port) {
  auto broker = std::unique_ptr<CentralBroker>(new CentralBroker(net));
  auto socket = net->OpenSocket(
      host, port, [b = broker.get()](const Datagram& d) { b->HandleDatagram(d); });
  if (!socket.ok()) {
    return socket.status();
  }
  broker->socket_ = socket.take();
  return broker;
}

void CentralBroker::HandleDatagram(const Datagram& d) {
  auto frame = ParseFrame(d.payload);
  if (!frame.ok()) {
    return;
  }
  WireReader r(frame->payload);
  if (frame->frame_type == kPktBrokerSubscribe) {
    auto pattern = r.ReadString();
    if (!pattern.ok()) {
      return;
    }
    uint64_t id = next_sub_++;
    subscribers_[id] = Subscriber{d.src_host, d.src_port};
    trie_.Insert(*pattern, id);
    return;
  }
  if (frame->frame_type == kPktBrokerPublish) {
    auto subject = r.ReadString();
    auto payload = r.ReadBytes();
    if (!subject.ok() || !payload.ok()) {
      return;
    }
    stats_.publishes++;
    WireWriter out;
    out.PutString(*subject);
    out.PutBytes(*payload);
    Bytes deliver = FrameMessage(kPktBrokerDeliver, out.Take());
    // One unicast per matching subscriber: the fan-out cost lives on the broker's
    // uplink (this is the whole point of the comparison).
    for (uint64_t id : trie_.Match(*subject)) {
      auto it = subscribers_.find(id);
      if (it != subscribers_.end()) {
        socket_->SendTo(it->second.host, it->second.port, deliver);
        stats_.deliveries++;
      }
    }
  }
}

Result<std::unique_ptr<BrokerClient>> BrokerClient::Connect(Network* net, HostId host,
                                                            HostId broker_host,
                                                            Port broker_port) {
  auto client =
      std::unique_ptr<BrokerClient>(new BrokerClient(net, broker_host, broker_port));
  auto socket = net->OpenSocket(
      host, 0, [c = client.get()](const Datagram& d) { c->HandleDatagram(d); });
  if (!socket.ok()) {
    return socket.status();
  }
  client->socket_ = socket.take();
  return client;
}

Status BrokerClient::Subscribe(const std::string& pattern) {
  WireWriter w;
  w.PutString(pattern);
  return socket_->SendTo(broker_host_, broker_port_, FrameMessage(kPktBrokerSubscribe, w.Take()));
}

Status BrokerClient::Publish(const std::string& subject, const Bytes& payload) {
  WireWriter w;
  w.PutString(subject);
  w.PutBytes(payload);
  return socket_->SendTo(broker_host_, broker_port_, FrameMessage(kPktBrokerPublish, w.Take()));
}

void BrokerClient::HandleDatagram(const Datagram& d) {
  auto frame = ParseFrame(d.payload);
  if (!frame.ok() || frame->frame_type != kPktBrokerDeliver) {
    return;
  }
  WireReader r(frame->payload);
  auto subject = r.ReadString();
  auto payload = r.ReadBytes();
  if (!subject.ok() || !payload.ok()) {
    return;
  }
  received_++;
  if (handler_) {
    handler_(*subject, *payload);
  }
}

}  // namespace ibus
