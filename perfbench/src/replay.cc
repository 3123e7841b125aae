#include "src/replay.h"

#include <map>

#include "src/alloc_hook.h"
#include "src/bus/message.h"
#include "src/proto/packets.h"
#include "src/stats.h"
#include "src/subject/trie.h"
#include "src/tracer.h"
#include "src/types/codec.h"
#include "src/wire/wire.h"

namespace perfbench {

namespace {

constexpr int kMinPasses = 5;
constexpr int64_t kMinReplayNs = 30'000'000;  // per codec

size_t g_sink = 0;  // keeps replayed results observable

// Runs `pass` (one sweep over `items` inputs) until both limits are met and returns
// the median host nanoseconds per item.
template <typename Pass>
double NsPerCall(size_t items, Pass pass) {
  if (items == 0) {
    return 0;
  }
  std::vector<double> per_call;
  int64_t spent = 0;
  while (static_cast<int>(per_call.size()) < kMinPasses || spent < kMinReplayNs) {
    const int64_t t0 = NowNs();
    pass();
    const int64_t dt = NowNs() - t0;
    spent += dt;
    per_call.push_back(static_cast<double>(dt) / static_cast<double>(items));
  }
  return Median(per_call);
}

}  // namespace

ReplayResult Replay(const std::vector<ibus::Bytes>& frames,
                    const std::vector<Subscription>& subscriptions) {
  ReplayResult r;
  r.frames = frames.size();

  // Frame layer.
  std::vector<ibus::ParsedFrame> parsed;
  parsed.reserve(frames.size());
  for (const ibus::Bytes& f : frames) {
    auto p = ibus::ParseFrame(f);
    if (p.ok()) {
      parsed.push_back(p.take());
    } else {
      r.decode_errors++;
    }
  }
  r.parse_frame_ns = NsPerCall(frames.size(), [&]() {
    for (const ibus::Bytes& f : frames) {
      g_sink += ibus::ParseFrame(f).ok();
    }
  });
  r.frame_message_ns = NsPerCall(parsed.size(), [&]() {
    for (const ibus::ParsedFrame& p : parsed) {
      g_sink += ibus::FrameMessage(p.frame_type, p.payload).size();
    }
  });

  // Reliable-protocol packets and the bus messages they carry.
  std::vector<const ibus::ParsedFrame*> data_frames;
  std::vector<ibus::Bytes> message_bytes;
  for (const ibus::ParsedFrame& p : parsed) {
    if (p.frame_type == ibus::kPktData) {
      auto pkt = ibus::DataPacket::Unmarshal(p.payload);
      if (!pkt.ok()) {
        r.decode_errors++;
        continue;
      }
      data_frames.push_back(&p);
      if (pkt->frag_count == 1) {
        message_bytes.push_back(pkt->chunk);
      }
    } else if (p.frame_type == ibus::kPktBatch) {
      auto pkt = ibus::BatchPacket::Unmarshal(p.payload);
      if (!pkt.ok()) {
        r.decode_errors++;
        continue;
      }
      data_frames.push_back(&p);
      for (ibus::Bytes& m : pkt->messages) {
        message_bytes.push_back(std::move(m));
      }
    }
  }
  r.packets = data_frames.size();
  r.packet_unmarshal_ns = NsPerCall(data_frames.size(), [&]() {
    for (const ibus::ParsedFrame* p : data_frames) {
      g_sink += p->frame_type == ibus::kPktData ? ibus::DataPacket::Unmarshal(p->payload).ok()
                                                : ibus::BatchPacket::Unmarshal(p->payload).ok();
    }
  });
  std::vector<ibus::Message> messages;
  messages.reserve(message_bytes.size());
  for (const ibus::Bytes& b : message_bytes) {
    auto m = ibus::Message::Unmarshal(b);
    if (m.ok()) {
      messages.push_back(m.take());
    } else {
      r.decode_errors++;
    }
  }
  r.messages = messages.size();
  r.message_unmarshal_ns = NsPerCall(message_bytes.size(), [&]() {
    for (const ibus::Bytes& b : message_bytes) {
      g_sink += ibus::Message::Unmarshal(b).ok();
    }
  });
  r.message_marshal_ns = NsPerCall(messages.size(), [&]() {
    for (const ibus::Message& m : messages) {
      g_sink += m.Marshal().size();
    }
  });

  // Subject matching: every captured subject against each daemon's pattern set.
  std::map<ibus::HostId, ibus::SubjectTrie> tries;
  std::map<ibus::HostId, size_t> patterns;
  for (size_t i = 0; i < subscriptions.size(); ++i) {
    if (tries[subscriptions[i].host].Insert(subscriptions[i].pattern, i).ok()) {
      patterns[subscriptions[i].host]++;
    }
  }
  size_t total_patterns = 0;
  for (const auto& [host, n] : patterns) {
    total_patterns += n;
  }
  r.patterns_per_daemon =
      tries.empty() ? 0 : static_cast<double>(total_patterns) / static_cast<double>(tries.size());
  r.match_calls = messages.size() * tries.size();
  std::vector<uint64_t> out;
  r.match_ns = NsPerCall(r.match_calls, [&]() {
    for (const ibus::Message& m : messages) {
      for (const auto& [host, trie] : tries) {
        out.clear();
        trie.Match(m.subject, &out);
        g_sink += out.size();
      }
    }
  });

  // Self-describing objects (news stories); bus-internal types are skipped.
  std::vector<const ibus::Bytes*> object_bytes;
  std::vector<ibus::DataObjectPtr> objects;
  for (const ibus::Message& m : messages) {
    if (m.type_name.empty() || m.type_name[0] == '_') {
      continue;
    }
    auto obj = ibus::UnmarshalObject(m.payload);
    if (!obj.ok()) {
      r.decode_errors++;
      continue;
    }
    object_bytes.push_back(&m.payload);
    objects.push_back(obj.take());
  }
  r.objects = objects.size();
  if (!objects.empty()) {
    const uint64_t a0 = AllocCount();
    for (const ibus::Bytes* b : object_bytes) {
      g_sink += ibus::UnmarshalObject(*b).ok();
    }
    r.allocs_per_unmarshal =
        static_cast<double>(AllocCount() - a0) / static_cast<double>(objects.size());
  }
  r.unmarshal_object_ns = NsPerCall(object_bytes.size(), [&]() {
    for (const ibus::Bytes* b : object_bytes) {
      g_sink += ibus::UnmarshalObject(*b).ok();
    }
  });
  r.marshal_object_ns = NsPerCall(objects.size(), [&]() {
    for (const ibus::DataObjectPtr& o : objects) {
      g_sink += ibus::MarshalObject(*o).size();
    }
  });
  return r;
}

}  // namespace perfbench
