#include "src/telemetry/flight_recorder.h"

#include <cstdio>
#include <sstream>

#include "src/common/hash.h"

namespace ibus::telemetry {
namespace {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string_view FlightEventKindName(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kPublish:
      return "publish";
    case FlightEventKind::kDrop:
      return "drop";
    case FlightEventKind::kRetransmit:
      return "retransmit";
    case FlightEventKind::kGap:
      return "gap";
    case FlightEventKind::kElection:
      return "election";
    case FlightEventKind::kHealth:
      return "health";
  }
  return "unknown";
}

std::string FlightEvent::ToJson(const std::string& node) const {
  std::string out = "{\"t\":" + std::to_string(at_us) + ",\"node\":\"";
  AppendJsonEscaped(&out, node);
  out += "\",\"kind\":\"";
  out += FlightEventKindName(kind);
  out += "\",\"subject\":\"";
  AppendJsonEscaped(&out, subject);
  out += "\",\"detail\":\"";
  AppendJsonEscaped(&out, detail);
  out += "\"}";
  return out;
}

FlightRecorder::FlightRecorder(std::string node, size_t capacity)
    : node_(std::move(node)), capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void FlightRecorder::Record(int64_t at_us, FlightEventKind kind, std::string subject,
                            std::string detail) {
  FlightEvent& slot = ring_[next_];
  slot.at_us = at_us;
  slot.kind = kind;
  slot.subject = std::move(subject);
  slot.detail = std::move(detail);
  next_ = (next_ + 1) % capacity_;
  if (size_ < capacity_) {
    ++size_;
  }
  ++total_recorded_;
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  out.reserve(size_);
  size_t start = (size_ == capacity_) ? next_ : 0;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::string FlightRecorder::DumpJsonl() const {
  std::string out;
  for (const FlightEvent& e : Events()) {
    out += e.ToJson(node_);
    out += '\n';
  }
  return out;
}

uint64_t FlightRecorder::DumpHash() const {
  return Fnv1a(DumpJsonl());
}

std::string FlightRecorder::RenderTail(size_t n) const {
  std::vector<FlightEvent> events = Events();
  size_t start = events.size() > n ? events.size() - n : 0;
  std::ostringstream out;
  for (size_t i = start; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out << "t=" << e.at_us << "us " << FlightEventKindName(e.kind);
    if (!e.subject.empty()) {
      out << " " << e.subject;
    }
    if (!e.detail.empty()) {
      out << " " << e.detail;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace ibus::telemetry
