#include "src/prof/profiler.h"

#include <cstdio>
#include <cstdlib>

#include "src/capture/capture.h"
#include "src/common/hash.h"
#include "src/proto/packets.h"
#include "src/wire/wire.h"

namespace ibus::prof {

using telemetry::HopRecord;

TraceContext PeekTraceContext(const Bytes& marshalled) {
  // Message::Marshal header order; all header fields precede the length-prefixed
  // payload, so a frag-0 chunk prefix parses cleanly.
  WireReader r(marshalled);
  TraceContext ctx;
  if (!r.ReadStringView().ok()) return ctx;  // subject
  if (!r.ReadStringView().ok()) return ctx;  // reply_subject
  if (!r.ReadStringView().ok()) return ctx;  // type_name
  if (!r.ReadStringView().ok()) return ctx;  // sender
  if (!r.ReadU64().ok()) return ctx;         // certified_id
  if (!r.ReadU64().ok()) return ctx;         // publisher_id
  if (!r.ReadU8().ok()) return ctx;          // hops
  if (!r.ReadStringView().ok()) return ctx;  // via
  auto trace_id = r.ReadU64();
  auto trace_hop = r.ReadU8();
  if (!trace_id.ok() || !trace_hop.ok()) return ctx;
  ctx.ok = true;
  ctx.trace_id = *trace_id;
  ctx.trace_hop = *trace_hop;
  return ctx;
}

bool ParseDaemonNode(const std::string& node, HostId* host) {
  constexpr char kPrefix[] = "daemon@";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (node.size() <= kPrefixLen || node.compare(0, kPrefixLen, kPrefix) != 0) {
    return false;
  }
  char* end = nullptr;
  unsigned long long v = std::strtoull(node.c_str() + kPrefixLen, &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *host = static_cast<HostId>(v);
  return true;
}

void CriticalPathProfiler::IndexMessage(const Bytes& marshalled, uint64_t stream_id,
                                        uint64_t seq) {
  TraceContext ctx = PeekTraceContext(marshalled);
  if (!ctx.ok || ctx.trace_id == 0) {
    return;
  }
  // First occurrence wins (capture order): retransmissions of the same message
  // map to the same (stream, seq) anyway.
  msg_index_.emplace(std::make_pair(ctx.trace_id, ctx.trace_hop),
                     std::make_pair(stream_id, seq));
}

void CriticalPathProfiler::IndexCapture(const std::vector<CapturedFrame>& frames) {
  for (const CapturedFrame& f : frames) {
    if (f.payload.empty()) {
      continue;
    }
    auto parsed = ParseFrame(f.payload);
    if (!parsed.ok()) {
      continue;
    }
    if (parsed->frame_type == kPktData) {
      auto pkt = DataPacket::Unmarshal(parsed->payload);
      if (!pkt.ok()) {
        continue;
      }
      if (pkt->frag_index == 0) {
        IndexMessage(pkt->chunk, pkt->stream_id, pkt->seq);
      }
      attempts_[std::make_tuple(pkt->stream_id, pkt->seq, f.dst_host)].push_back(
          Attempt{f.sent_at, f.delivered_at, f.fate});
    } else if (parsed->frame_type == kPktBatch) {
      auto pkt = BatchPacket::Unmarshal(parsed->payload);
      if (!pkt.ok()) {
        continue;
      }
      for (size_t i = 0; i < pkt->messages.size(); ++i) {
        uint64_t seq = pkt->first_seq + i;
        IndexMessage(pkt->messages[i], pkt->stream_id, seq);
        attempts_[std::make_tuple(pkt->stream_id, seq, f.dst_host)].push_back(
            Attempt{f.sent_at, f.delivered_at, f.fate});
      }
    }
  }
}

void CriticalPathProfiler::SplitWireInterval(const HopRecord& wire_send,
                                             const HopRecord& dispatch,
                                             StageBreakdown* out) const {
  const int64_t span = dispatch.at_us - wire_send.at_us;
  HostId host = 0;
  auto charge_all_transit = [&] { (*out)[StageKind::kMediumTransit] += span; };
  if (!ParseDaemonNode(dispatch.node, &host)) {
    charge_all_transit();
    return;
  }
  auto mi = msg_index_.find(std::make_pair(wire_send.trace_id, wire_send.hop));
  if (mi == msg_index_.end()) {
    charge_all_transit();
    return;
  }
  auto ai = attempts_.find(std::make_tuple(mi->second.first, mi->second.second, host));
  if (ai == attempts_.end()) {
    charge_all_transit();
    return;
  }
  // Attempts toward the dispatching host inside the interval: the earliest send
  // anchors the daemon-side queueing, the last frame landing before the dispatch
  // completes the message (fragmented messages finish on their last fragment).
  SimTime first_sent = -1;
  const Attempt* completing = nullptr;
  for (const Attempt& a : ai->second) {
    if (a.sent_at < wire_send.at_us || a.sent_at > dispatch.at_us) {
      continue;
    }
    if (first_sent < 0 || a.sent_at < first_sent) {
      first_sent = a.sent_at;
    }
    const bool landed = a.fate == FrameFate::kDelivered || a.fate == FrameFate::kQueuedDelay ||
                        a.fate == FrameFate::kDuplicated;
    if (landed && a.delivered_at <= dispatch.at_us) {
      if (completing == nullptr || a.delivered_at > completing->delivered_at) {
        completing = &a;
      }
    }
  }
  if (first_sent < 0 || completing == nullptr) {
    charge_all_transit();
    return;
  }
  // Exact four-way partition of [wire_send.at, dispatch.at]; the pieces telescope
  // back to `span`, preserving the reconciliation invariant.
  (*out)[StageKind::kDaemonQueue] += first_sent - wire_send.at_us;
  (*out)[StageKind::kRetransmitRepair] += completing->sent_at - first_sent;
  (*out)[StageKind::kMediumTransit] += completing->delivered_at - completing->sent_at;
  (*out)[StageKind::kDaemonQueue] += dispatch.at_us - completing->delivered_at;
}

void CriticalPathProfiler::AddTimeline(const std::vector<HopRecord>& timeline) {
  WireSplitFn split = [this](const HopRecord& ws, const HopRecord& disp, StageBreakdown* out) {
    SplitWireInterval(ws, disp, out);
  };
  for (PathProfile& p : DecomposeTimeline(timeline, split)) {
    accumulator_.Add(p);
    paths_.push_back(std::move(p));
  }
}

void CriticalPathProfiler::AddCollector(const telemetry::TraceCollector& collector) {
  for (uint64_t id : collector.trace_ids()) {
    AddTimeline(collector.Timeline(id));
  }
}

bool CriticalPathProfiler::Reconciled() const {
  for (const PathProfile& p : paths_) {
    if (p.stages.total_us() != p.end_to_end_us) {
      return false;
    }
  }
  return true;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string StagesJson(const StageBreakdown& stages) {
  std::string out = "{";
  for (size_t i = 0; i < kStageCount; ++i) {
    if (i != 0) {
      out += ",";
    }
    StageKind k = static_cast<StageKind>(i);
    out += std::string("\"") + StageName(k) + "\":" + std::to_string(stages.at(k));
  }
  out += "}";
  return out;
}

}  // namespace

std::string CriticalPathProfiler::RenderJson(
    const std::vector<std::pair<std::string, std::string>>& extra_sections) const {
  std::string out = "{\"schema\":\"BUSPROF_1\"";
  out += ",\"path_count\":" + std::to_string(paths_.size());
  out += std::string(",\"reconciled\":") + (Reconciled() ? "true" : "false");
  out += ",\"end_to_end_total_us\":" + std::to_string(accumulator_.end_to_end_total_us());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", accumulator_.UnattributedShare());
  out += std::string(",\"unattributed_share\":") + buf;
  out += ",\"stage_totals_us\":{";
  for (size_t i = 0; i < kStageCount; ++i) {
    StageKind k = static_cast<StageKind>(i);
    out += std::string(i == 0 ? "\"" : ",\"") + StageName(k) +
           "\":" + std::to_string(accumulator_.total_us(k));
  }
  out += "},\"stage_p99_us\":{";
  for (size_t i = 0; i < kStageCount; ++i) {
    StageKind k = static_cast<StageKind>(i);
    out += std::string(i == 0 ? "\"" : ",\"") + StageName(k) +
           "\":" + std::to_string(accumulator_.histogram(k)->p99());
  }
  out += "},\"paths\":[";
  for (size_t i = 0; i < paths_.size(); ++i) {
    const PathProfile& p = paths_[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"trace_id\":" + std::to_string(p.trace_id);
    out += ",\"subject\":\"" + JsonEscape(p.subject) + "\"";
    out += ",\"dest\":\"" + JsonEscape(p.dest) + "\"";
    out += ",\"hop\":" + std::to_string(p.hop);
    out += ",\"end_to_end_us\":" + std::to_string(p.end_to_end_us);
    out += std::string(",\"reconciled\":") +
           (p.stages.total_us() == p.end_to_end_us ? "true" : "false");
    out += ",\"stages\":" + StagesJson(p.stages) + "}";
  }
  out += "]";
  for (const auto& [key, value] : extra_sections) {
    out += ",\"" + JsonEscape(key) + "\":" + value;
  }
  out += "}";
  return out;
}

std::string CriticalPathProfiler::RenderCollapsed() const {
  // Flamegraph-collapsed aggregation: frame stack bus;dest;subject;stage, weight
  // in microseconds. Zero-weight stages are omitted, map order makes the output
  // byte-stable.
  std::map<std::string, int64_t> stacks;
  for (const PathProfile& p : paths_) {
    for (size_t i = 0; i < kStageCount; ++i) {
      StageKind k = static_cast<StageKind>(i);
      int64_t us = p.stages.at(k);
      if (us <= 0) {
        continue;
      }
      stacks["bus;" + p.dest + ";" + p.subject + ";" + StageName(k)] += us;
    }
  }
  std::string out;
  for (const auto& [stack, us] : stacks) {
    out += stack + " " + std::to_string(us) + "\n";
  }
  return out;
}

uint64_t CriticalPathProfiler::Hash() const {
  return Fnv1a(RenderCollapsed(), Fnv1a(RenderJson()));
}

}  // namespace ibus::prof
