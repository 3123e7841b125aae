#include "src/capture/capture.h"

#include <fstream>

#include "src/capture/dissect.h"
#include "src/common/hash.h"
#include "src/subject/subject.h"
#include "src/wire/wire.h"

namespace ibus::capture {

namespace {

constexpr uint8_t kFlagBroadcast = 1u << 0;
constexpr uint8_t kFlagDuplicate = 1u << 1;
constexpr uint8_t kFlagContinuation = 1u << 2;

}  // namespace

Status CaptureBuffer::SetFilter(const std::string& pattern) {
  if (pattern.empty()) {
    filter_.clear();
    return OkStatus();
  }
  IBUS_RETURN_IF_ERROR(ValidatePattern(pattern));
  filter_ = pattern;
  return OkStatus();
}

void CaptureBuffer::OnFrame(const CapturedFrame& frame) {
  seen_++;
  if (!filter_.empty()) {
    bool match = false;
    for (const std::string& s : PeekSubjects(frame.payload)) {
      if (SubjectMatches(filter_, s)) {
        match = true;
        break;
      }
    }
    if (!match) {
      return;
    }
  }
  frames_.push_back(frame);
}

void CaptureBuffer::Clear() {
  frames_.clear();
  seen_ = 0;
}

std::string CanonicalRecord(const CapturedFrame& f) {
  uint64_t payload_fnv = Fnv1a(
      std::string_view(reinterpret_cast<const char*>(f.payload.data()), f.payload.size()));
  std::string s = "idx=" + std::to_string(f.index) + " tx=" + std::to_string(f.tx_id) +
                  " seg=" + std::to_string(f.segment) + " src=" +
                  std::to_string(f.src_host) + ":" + std::to_string(f.src_port) +
                  " dst=" + std::to_string(f.dst_host) + ":" +
                  std::to_string(f.dst_port) + " fate=" + FrameFateName(f.fate) +
                  " sent=" + std::to_string(f.sent_at) + " at=" +
                  std::to_string(f.delivered_at) + " queued=" +
                  std::to_string(f.queued_us) + " wire=" + std::to_string(f.wire_us) +
                  " bytes=" + std::to_string(f.wire_bytes) + " ovh=" +
                  std::to_string(f.frame_overhead);
  if (f.conn_id != 0) {
    s += " conn=" + std::to_string(f.conn_id) + "/" + std::to_string(f.conn_msg_id);
  }
  if (f.broadcast) {
    s += " bcast";
  }
  if (f.duplicate) {
    s += " dup";
  }
  if (f.continuation) {
    s += " cont";
  }
  s += " payload_fnv=" + std::to_string(payload_fnv);
  return s;
}

uint64_t CaptureBuffer::CaptureHash(const std::vector<CapturedFrame>& frames) {
  uint64_t h = kFnvOffset;
  for (const CapturedFrame& f : frames) {
    h = Fnv1a("\n", Fnv1a(CanonicalRecord(f), h));
  }
  return h;
}

// wirecheck: codec(capture_file, version=1)
Bytes SerializeCapture(const std::vector<CapturedFrame>& frames) {
  WireWriter w;
  w.PutU32(kCaptureMagic);
  w.PutU16(kCaptureVersion);
  w.PutVarint(frames.size());
  for (const CapturedFrame& f : frames) {
    w.PutVarint(f.index);
    w.PutVarint(f.tx_id);
    w.PutU32(f.segment);
    w.PutU32(f.src_host);
    w.PutU16(f.src_port);
    w.PutU32(f.dst_host);
    w.PutU16(f.dst_port);
    w.PutVarint(f.conn_id);
    w.PutVarint(f.conn_msg_id);
    uint8_t flags = 0;
    flags |= f.broadcast ? kFlagBroadcast : 0;
    flags |= f.duplicate ? kFlagDuplicate : 0;
    flags |= f.continuation ? kFlagContinuation : 0;
    w.PutU8(flags);
    w.PutU8(static_cast<uint8_t>(f.fate));
    w.PutI64(f.sent_at);
    w.PutI64(f.delivered_at);
    w.PutI64(f.queued_us);
    w.PutI64(f.wire_us);
    w.PutU32(f.wire_bytes);
    w.PutU32(f.frame_overhead);
    w.PutBytes(f.payload);
  }
  return w.Take();
}

// wirecheck: codec(capture_file, version=1)
Result<std::vector<CapturedFrame>> DeserializeCapture(const Bytes& data) {
  WireReader r(data);
  auto magic = r.ReadU32();
  auto version = r.ReadU16();
  if (!magic.ok() || !version.ok() || *magic != kCaptureMagic) {
    return DataLoss("capture: bad magic (not an IBCP capture file)");
  }
  if (*version != kCaptureVersion) {
    return Unimplemented("capture: unsupported version " + std::to_string(*version));
  }
  auto count = r.ReadVarint();
  if (!count.ok()) {
    return DataLoss("capture: truncated header");
  }
  // Each record is dozens of bytes on the wire; a count beyond the remaining
  // byte budget is corrupt and must not size an allocation.
  if (*count > r.remaining()) {
    return DataLoss("capture: implausible frame count");
  }
  std::vector<CapturedFrame> frames;
  frames.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    CapturedFrame f;
    auto index = r.ReadVarint();
    auto tx_id = r.ReadVarint();
    auto segment = r.ReadU32();
    auto src_host = r.ReadU32();
    auto src_port = r.ReadU16();
    auto dst_host = r.ReadU32();
    auto dst_port = r.ReadU16();
    auto conn_id = r.ReadVarint();
    auto conn_msg_id = r.ReadVarint();
    auto flags = r.ReadU8();
    auto fate = r.ReadU8();
    auto sent_at = r.ReadI64();
    auto delivered_at = r.ReadI64();
    auto queued_us = r.ReadI64();
    auto wire_us = r.ReadI64();
    auto wire_bytes = r.ReadU32();
    auto frame_overhead = r.ReadU32();
    auto payload = r.ReadBytes();
    if (!index.ok() || !tx_id.ok() || !segment.ok() || !src_host.ok() ||
        !src_port.ok() || !dst_host.ok() || !dst_port.ok() || !conn_id.ok() ||
        !conn_msg_id.ok() || !flags.ok() || !fate.ok() || !sent_at.ok() ||
        !delivered_at.ok() || !queued_us.ok() || !wire_us.ok() || !wire_bytes.ok() ||
        !frame_overhead.ok() || !payload.ok()) {
      return DataLoss("capture: truncated record " + std::to_string(i));
    }
    if (*fate < static_cast<uint8_t>(FrameFate::kDelivered) ||
        *fate > static_cast<uint8_t>(FrameFate::kDroppedNoListener)) {
      return DataLoss("capture: record " + std::to_string(i) + " has unknown fate " +
                      std::to_string(*fate));
    }
    f.index = *index;
    f.tx_id = *tx_id;
    f.segment = *segment;
    f.src_host = *src_host;
    f.src_port = *src_port;
    f.dst_host = *dst_host;
    f.dst_port = *dst_port;
    f.conn_id = *conn_id;
    f.conn_msg_id = *conn_msg_id;
    f.broadcast = (*flags & kFlagBroadcast) != 0;
    f.duplicate = (*flags & kFlagDuplicate) != 0;
    f.continuation = (*flags & kFlagContinuation) != 0;
    f.fate = static_cast<FrameFate>(*fate);
    f.sent_at = *sent_at;
    f.delivered_at = *delivered_at;
    f.queued_us = *queued_us;
    f.wire_us = *wire_us;
    f.wire_bytes = *wire_bytes;
    f.frame_overhead = *frame_overhead;
    f.payload = payload.take();
    frames.push_back(std::move(f));
  }
  if (!r.AtEnd()) {
    return DataLoss("capture: trailing bytes after last record");
  }
  return frames;
}

Status WriteCaptureFile(const std::string& path,
                        const std::vector<CapturedFrame>& frames) {
  Bytes data = SerializeCapture(frames);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Unavailable("capture: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    return DataLoss("capture: short write to " + path);
  }
  return OkStatus();
}

Result<std::vector<CapturedFrame>> ReadCaptureFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("capture: cannot open " + path);
  }
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return DeserializeCapture(data);
}

}  // namespace ibus::capture
