#include "src/rmi/client.h"

#include <algorithm>

#include "src/bus/discovery.h"
#include "src/proto/packets.h"
#include "src/wire/wire.h"

namespace ibus {

// ---------------------------------------------------------------------------------
// RemoteService
// ---------------------------------------------------------------------------------

RemoteService::RemoteService(Simulator* sim, RmiAdvert advert, ConnectionPtr conn,
                             SimTime call_timeout)
    : sim_(sim),
      advert_(std::move(advert)),
      conn_(std::move(conn)),
      call_timeout_(call_timeout),
      alive_(std::make_shared<bool>(true)) {
  conn_->SetMessageHandler([this](const Bytes& bytes) { HandleReply(bytes); });
  conn_->SetCloseHandler([this]() { FailAll(Unavailable("connection to server lost")); });
}

RemoteService::~RemoteService() {
  *alive_ = false;
  if (conn_ != nullptr) {
    conn_->SetMessageHandler(nullptr);
    conn_->SetCloseHandler(nullptr);
    conn_->Close();
  }
  // Surface an error to every caller still waiting rather than dropping them.
  FailAll(Unavailable("remote service released"));
}

void RemoteService::Call(const std::string& operation, std::vector<Value> args, CallDone done) {
  if (!connected()) {
    done(Unavailable("not connected"));
    return;
  }
  RmiRequest req;
  req.request_id = next_request_++;
  req.call = RmiCall::kInvoke;
  req.operation = operation;
  req.args = std::move(args);

  PendingCall pending;
  pending.done = std::move(done);
  pending.sent_at = sim_->Now();
  const uint64_t id = req.request_id;
  pending.timeout_event = sim_->ScheduleAfter(
      call_timeout_,
      [this, id, alive = alive_]() {
        if (!*alive) {
          return;
        }
        auto it = pending_.find(id);
        if (it != pending_.end()) {
          CallDone done = std::move(it->second.done);
          pending_.erase(it);
          done(DeadlineExceeded("rmi call timed out"));
        }
      },
      "rmi.call_timeout");
  pending_.emplace(id, std::move(pending));
  Status s = conn_->Send(FrameMessage(kPktRmiRequest, req.Marshal()));
  if (!s.ok()) {
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      sim_->Cancel(it->second.timeout_event);
      CallDone done = std::move(it->second.done);
      pending_.erase(it);
      done(s);
    }
  }
}

void RemoteService::Describe(std::function<void(Result<TypeDescriptor>)> done) {
  if (!connected()) {
    done(Unavailable("not connected"));
    return;
  }
  RmiRequest req;
  req.request_id = next_request_++;
  req.call = RmiCall::kDescribe;
  PendingCall pending;
  pending.describe = true;
  pending.sent_at = sim_->Now();
  pending.done = [done = std::move(done)](Result<Value> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    if (!r->is_bytes()) {
      done(Status(DataLoss("describe: unexpected payload")));
      return;
    }
    done(TypeDescriptor::Unmarshal(r->AsBytes()));
  };
  const uint64_t id = req.request_id;
  pending.timeout_event = sim_->ScheduleAfter(
      call_timeout_,
      [this, id, alive = alive_]() {
        if (!*alive) {
          return;
        }
        auto it = pending_.find(id);
        if (it != pending_.end()) {
          CallDone done = std::move(it->second.done);
          pending_.erase(it);
          done(DeadlineExceeded("rmi describe timed out"));
        }
      },
      "rmi.call_timeout");
  pending_.emplace(id, std::move(pending));
  conn_->Send(FrameMessage(kPktRmiRequest, req.Marshal()));
}

void RemoteService::HandleReply(const Bytes& bytes) {
  auto frame = ParseFrame(bytes);
  if (!frame.ok() || frame->frame_type != kPktRmiReply) {
    return;
  }
  auto reply = RmiReply::Unmarshal(frame->payload);
  if (!reply.ok()) {
    return;
  }
  auto it = pending_.find(reply->request_id);
  if (it == pending_.end()) {
    return;  // reply after timeout: dropped (at-most-once)
  }
  sim_->Cancel(it->second.timeout_event);
  rtt_hist_.Record(sim_->Now() - it->second.sent_at);
  CallDone done = std::move(it->second.done);
  pending_.erase(it);
  if (reply->code == StatusCode::kOk) {
    done(std::move(reply->result));
  } else {
    done(Status(reply->code, reply->error_message));
  }
}

void RemoteService::FailAll(const Status& status) {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, call] : pending) {
    sim_->Cancel(call.timeout_event);
    call.done(status);
  }
}

// ---------------------------------------------------------------------------------
// RmiClient
// ---------------------------------------------------------------------------------

Status RmiClient::Discover(BusClient* bus, const std::string& subject,
                           const RmiClientConfig& config, DiscoverDone done) {
  return DiscoveryQuery::Run(
      bus, subject, config.discovery_timeout_us,
      [done = std::move(done)](std::vector<Message> responses) {
        std::vector<RmiAdvert> adverts;
        for (const Message& m : responses) {
          auto advert = RmiAdvert::Unmarshal(m.payload);
          if (advert.ok()) {
            adverts.push_back(advert.take());
          }
        }
        done(std::move(adverts));
      });
}

void RmiClient::ConnectTo(BusClient* bus, const RmiAdvert& advert, const RmiClientConfig& config,
                          ConnectDone done) {
  Simulator* sim = bus->sim();
  SimTime call_timeout = config.call_timeout_us;
  bus->network()->Connect(
      bus->host(), advert.host, advert.port,
      [sim, advert, call_timeout, done = std::move(done)](Result<ConnectionPtr> conn) {
        if (!conn.ok()) {
          done(conn.status());
          return;
        }
        done(std::shared_ptr<RemoteService>(
            new RemoteService(sim, advert, conn.take(), call_timeout)));
      });
}

Status RmiClient::Connect(BusClient* bus, const std::string& subject,
                          const RmiClientConfig& config, ConnectDone done) {
  return Discover(bus, subject, config,
                  [bus, config, done = std::move(done)](std::vector<RmiAdvert> adverts) {
                    if (adverts.empty()) {
                      done(Unavailable("no server answered on subject"));
                      return;
                    }
                    const RmiAdvert* chosen = &adverts[0];
                    if (config.selection == ServerSelection::kLeastLoaded) {
                      chosen = &*std::min_element(adverts.begin(), adverts.end(),
                                                  [](const RmiAdvert& a, const RmiAdvert& b) {
                                                    return a.load < b.load;
                                                  });
                    }
                    ConnectTo(bus, *chosen, config, std::move(done));
                  });
}

namespace {

struct RetryState {
  BusClient* bus;
  std::string subject;
  std::string operation;
  std::vector<Value> args;
  RmiClientConfig config;
  RemoteService::CallDone done;
  int attempts_left = 0;
  Status last_error;
};

void RetryAttempt(std::shared_ptr<RetryState> state) {
  if (state->attempts_left <= 0) {
    state->done(state->last_error.ok() ? Status(Unavailable("no attempts made"))
                                       : state->last_error);
    return;
  }
  state->attempts_left--;
  Status s = RmiClient::Connect(
      state->bus, state->subject, state->config,
      [state](Result<std::shared_ptr<RemoteService>> r) {
        if (!r.ok()) {
          state->last_error = r.status();
          RetryAttempt(state);
          return;
        }
        std::shared_ptr<RemoteService> service = r.take();
        service->Call(state->operation, state->args, [state, service](Result<Value> v) {
          if (v.ok()) {
            state->done(std::move(v));
            return;
          }
          state->last_error = v.status();
          RetryAttempt(state);  // the next attempt re-discovers from scratch
        });
      });
  if (!s.ok()) {
    state->last_error = s;
    RetryAttempt(state);
  }
}

}  // namespace

void RetryingCall(BusClient* bus, const std::string& subject, const std::string& operation,
                  std::vector<Value> args, int max_attempts, const RmiClientConfig& config,
                  RemoteService::CallDone done) {
  auto state = std::make_shared<RetryState>();
  state->bus = bus;
  state->subject = subject;
  state->operation = operation;
  state->args = std::move(args);
  state->config = config;
  state->done = std::move(done);
  state->attempts_left = max_attempts;
  RetryAttempt(std::move(state));
}

}  // namespace ibus
