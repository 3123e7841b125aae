#include "src/rmi/server.h"

#include <algorithm>

#include "src/proto/packets.h"
#include "src/wire/wire.h"

namespace ibus {

namespace {
Port g_next_port_base = 0;  // sim-local helper to spread default listen ports
}  // namespace

Result<std::unique_ptr<RmiServer>> RmiServer::Create(BusClient* bus, const std::string& subject,
                                                     std::shared_ptr<ServiceObject> service,
                                                     const RmiServerConfig& config) {
  auto server =
      std::unique_ptr<RmiServer>(new RmiServer(bus, subject, std::move(service), config));
  Network* net = bus->network();
  Port port = config.listen_port;
  Result<std::unique_ptr<Listener>> listener = Status();
  if (port != 0) {
    listener = net->Listen(bus->host(), port,
                           [s = server.get()](ConnectionPtr c) { s->Accept(std::move(c)); });
  } else {
    // Probe for a free port in the 9000+ range.
    for (Port candidate = static_cast<Port>(9000 + (g_next_port_base++ % 1000));;
         ++candidate) {
      listener = net->Listen(bus->host(), candidate,
                             [s = server.get()](ConnectionPtr c) { s->Accept(std::move(c)); });
      if (listener.ok() || candidate > 20000) {
        break;
      }
    }
  }
  if (!listener.ok()) {
    return listener.status();
  }
  server->listener_ = listener.take();

  auto describe = [s = server.get()](const Message&) {
    if (!s->answering_) {
      return Bytes();  // gated off (e.g. election backup): stay silent
    }
    RmiAdvert advert;
    advert.server_name = s->bus_->name();
    advert.subject = s->subject_;
    advert.host = s->bus_->host();
    advert.port = s->listener_->port();
    advert.load = s->in_flight_;
    advert.interface = s->service_->interface();
    return advert.Marshal();
  };
  auto responder = DiscoveryResponder::Create(bus, subject, describe);
  if (!responder.ok()) {
    return responder.status();
  }
  server->responder_ = responder.take();
  if (config.advertise_in_directory) {
    auto dir = DiscoveryResponder::Create(bus, kServiceDirectorySubject, describe);
    if (!dir.ok()) {
      return dir.status();
    }
    server->directory_responder_ = dir.take();
  }
  return server;
}

void RmiServer::Accept(ConnectionPtr conn) {
  stats_.connections_accepted++;
  Connection* raw = conn.get();
  raw->SetMessageHandler([this, raw](const Bytes& bytes) {
    // Find the shared handle for the raw pointer (kept in connections_).
    for (const ConnectionPtr& c : connections_) {
      if (c.get() == raw) {
        HandleRequest(c, bytes);
        return;
      }
    }
  });
  raw->SetCloseHandler([this, raw]() {
    connections_.erase(std::remove_if(connections_.begin(), connections_.end(),
                                      [raw](const ConnectionPtr& c) { return c.get() == raw; }),
                       connections_.end());
  });
  connections_.push_back(std::move(conn));
}

void RmiServer::HandleRequest(const ConnectionPtr& conn, const Bytes& bytes) {
  auto frame = ParseFrame(bytes);
  if (!frame.ok() || frame->frame_type != kPktRmiRequest) {
    return;
  }
  auto request = RmiRequest::Unmarshal(frame->payload);
  if (!request.ok()) {
    return;
  }
  stats_.requests++;
  in_flight_++;
  const uint64_t id = request->request_id;

  RmiReply reply;
  reply.request_id = id;
  if (request->call == RmiCall::kDescribe) {
    WireWriter w;
    service_->interface().ToWire(&w);
    reply.result = Value(w.Take());
  } else {
    auto result = service_->Invoke(request->operation, request->args);
    if (result.ok()) {
      reply.result = result.take();
    } else {
      reply.code = result.status().code();
      reply.error_message = result.status().message();
      stats_.errors++;
    }
  }
  // Charge the configured service time, then reply (exactly-once under normal
  // operation; a crash before the reply leaves the client with at-most-once).
  bus_->sim()->ScheduleAfter(
      config_.service_time_us,
      [this, conn, reply = std::move(reply), alive = alive_]() {
        if (!*alive) {
          return;
        }
        in_flight_--;
        if (conn->open()) {
          conn->Send(FrameMessage(kPktRmiReply, reply.Marshal()));
        }
      },
      "rmi.service_time");
}

}  // namespace ibus
