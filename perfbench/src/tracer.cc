#include "src/tracer.h"

#include <chrono>
#include <cstring>

#include "src/alloc_hook.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::AllocNow() { return AllocCount(); }

Tracer::Tracer() : spans_(kFirstEventKey) {
  names_ = {"sim.core",
            "gen.publish",
            "app.upcall",
            "trace.tap",
            "net.loopback_deliver",
            "net.medium_deliver.data",
            "net.medium_deliver.batch",
            "net.medium_deliver.heartbeat",
            "net.medium_deliver.nak",
            "net.medium_deliver.other"};
  spans_.Reserve(16);
  kind_keys_.reserve(32);
}

void Tracer::Attach(ibus::Simulator* sim, ibus::Network* net) {
  sim_ = sim;
  net_ = net;
  sim_->SetObserver(this);
  net_->AttachTap(this);
}

void Tracer::Detach() {
  if (sim_ != nullptr) {
    sim_->SetObserver(nullptr);
    net_->DetachTap(this);
  }
  sim_ = nullptr;
  net_ = nullptr;
}

size_t Tracer::KeyFor(const char* kind) {
  for (const auto& [ptr, key] : kind_keys_) {
    if (ptr == kind) {
      return key;
    }
  }
  // A kind string seen for the first time (or through another literal's address).
  std::string name = std::string("event.") + kind;
  size_t key = names_.size();
  for (size_t i = kFirstEventKey; i < names_.size(); ++i) {
    if (names_[i] == name) {
      key = i;
    }
  }
  if (key == names_.size()) {
    names_.push_back(std::move(name));
  }
  kind_keys_.emplace_back(kind, key);
  return key;
}

void Tracer::OnEventDispatched(const char* kind, ibus::SimTime /*at*/) {
  const int64_t t1 = NowNs();
  const uint64_t a1 = AllocNow();
  spans_.Close(t1, a1);  // sim.core
  events_++;
  pending_hwm_ = std::max(pending_hwm_, sim_->pending_events());
  if (datagram_kind_ == nullptr && std::strcmp(kind, "net.datagram_deliver") == 0) {
    datagram_kind_ = kind;
  }
  in_datagram_ = kind == datagram_kind_;
  medium_type_ = -1;
  spans_.Open(in_datagram_ ? kLoopbackDeliver : KeyFor(kind), t1, a1);
  in_event_ = true;
}

void Tracer::AfterStep() {
  const int64_t t2 = NowNs();
  const uint64_t a2 = AllocNow();
  size_t key = SpanStack::kSameKey;
  if (in_event_ && in_datagram_ && medium_type_ >= 0) {
    switch (medium_type_) {
      case 1: key = kMediumData; break;
      case 2: key = kMediumBatch; break;
      case 3: key = kMediumHeartbeat; break;
      case 4: key = kMediumNak; break;
      default: key = kMediumOther; break;
    }
  }
  spans_.Close(t2, a2, key);  // the event, or sim.core when the queue was empty
  stepped_ns_ += t2 - step_start_ns_;
  in_event_ = false;
}

void Tracer::OnFrame(const ibus::CapturedFrame& f) {
  spans_.Open(kTap, NowNs(), AllocNow());
  using ibus::FrameFate;
  const bool arrival = f.fate != FrameFate::kDroppedFault && f.fate != FrameFate::kMtuRejected;
  if (in_datagram_ && arrival && f.conn_id == 0 && f.payload.size() > 3) {
    medium_type_ = f.payload[3];  // frame header: magic u16 | version u8 | type u8
  }
  if (seen_tx_.insert(f.tx_id).second) {
    tx_.push_back(TxRecord{f.sent_at, f.segment, f.queued_us, f.wire_us});
    if (f.conn_id == 0 && !f.duplicate && !f.payload.empty()) {
      frames_.push_back(f.payload);
    }
  }
  spans_.Close(NowNs(), AllocNow());
}

}  // namespace perfbench
