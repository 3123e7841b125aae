// Capture plane over sim::Network taps: an in-memory ring of CapturedFrame records
// with an optional subject filter (compiled with the real src/subject grammar), a
// stable on-disk capture-file format, and an order-sensitive FNV-1a hash used by the
// determinism gate (sim_replay_check scenario 6) — identical seeds must yield
// bit-identical captures, fault fates included. See docs/TELEMETRY.md ("Wire
// capture") for the file format and fate taxonomy.
#ifndef SRC_CAPTURE_CAPTURE_H_
#define SRC_CAPTURE_CAPTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/network.h"

namespace ibus::capture {

// Capture-file magic: "IBCP" as little-endian u32, version 1. Records are the
// CapturedFrame fields in declaration order via src/wire primitives.
inline constexpr uint32_t kCaptureMagic = 0x50434249u;  // "IBCP"
inline constexpr uint16_t kCaptureVersion = 1;

// NetworkTap that appends every observed frame. With a filter set, only frames
// whose dissection yields at least one subject matching the pattern are kept;
// subject-less protocol frames (heartbeats, NAKs, adverts, registrations) are
// filtered out — a filtered capture is an application-traffic view.
class CaptureBuffer : public NetworkTap {
 public:
  CaptureBuffer() = default;

  // Compiles `pattern` with the real subject grammar (ValidatePattern); "" clears
  // the filter. Rejects malformed patterns exactly as Subscribe would.
  Status SetFilter(const std::string& pattern);
  const std::string& filter() const { return filter_; }

  void OnFrame(const CapturedFrame& frame) override;

  const std::vector<CapturedFrame>& frames() const { return frames_; }
  uint64_t frames_seen() const { return seen_; }
  uint64_t frames_kept() const { return frames_.size(); }
  void Clear();

  // Order-sensitive FNV-1a over the canonical record lines (payload hashed, not
  // embedded). Bit-identical across replays of the same seed.
  uint64_t Hash() const { return CaptureHash(frames_); }

  static uint64_t CaptureHash(const std::vector<CapturedFrame>& frames);

 private:
  std::string filter_;
  uint64_t seen_ = 0;
  std::vector<CapturedFrame> frames_;
};

// Canonical single-line rendering of one record; the unit of CaptureHash and the
// byte-stable spine of text reports.
std::string CanonicalRecord(const CapturedFrame& f);

// Capture file IO. Write is atomic enough for tooling (truncate + write);
// Read validates magic/version and every record bound.
Status WriteCaptureFile(const std::string& path, const std::vector<CapturedFrame>& frames);
Result<std::vector<CapturedFrame>> ReadCaptureFile(const std::string& path);

// In-memory (de)serialization behind the file IO; exposed for tests.
Bytes SerializeCapture(const std::vector<CapturedFrame>& frames);
Result<std::vector<CapturedFrame>> DeserializeCapture(const Bytes& data);

}  // namespace ibus::capture

#endif  // SRC_CAPTURE_CAPTURE_H_
