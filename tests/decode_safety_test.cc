// Regression tests for the decode-safety findings wirecheck surfaced: every
// count clamp and trailing-bytes rejection added to the real codecs gets a
// hostile input here — a garbage count that must not size an allocation or
// spin a loop, and appended garbage that must not decode silently. These
// inputs crashed, over-allocated, or decoded-to-garbage before the fixes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/bus/message.h"
#include "src/capture/capture.h"
#include "src/journal/format.h"
#include "src/telemetry/busstat.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/types/type_descriptor.h"
#include "src/wire/wire.h"

namespace ibus {
namespace {

// --- trailing garbage: valid record + appended byte must be rejected -------------

TEST(DecodeSafety, MessageRejectsTrailingGarbage) {
  Message m;
  m.subject = "a.b";
  m.payload = {1, 2, 3};
  Bytes b = m.Marshal();
  ASSERT_TRUE(Message::Unmarshal(b).ok());
  b.push_back(0x5A);
  EXPECT_FALSE(Message::Unmarshal(b).ok());
}

TEST(DecodeSafety, HopRecordRejectsTrailingGarbage) {
  telemetry::HopRecord rec;
  rec.trace_id = 7;
  rec.node = "n1";
  Bytes b = rec.Marshal();
  ASSERT_TRUE(telemetry::HopRecord::Unmarshal(b).ok());
  b.push_back(0xFF);
  EXPECT_FALSE(telemetry::HopRecord::Unmarshal(b).ok());
}

TEST(DecodeSafety, HealthEventRejectsTrailingGarbage) {
  telemetry::HealthEvent e;
  e.node = "n1";
  Bytes b = e.Marshal();
  ASSERT_TRUE(telemetry::HealthEvent::Unmarshal(b).ok());
  b.push_back(0x00);
  EXPECT_FALSE(telemetry::HealthEvent::Unmarshal(b).ok());
}

TEST(DecodeSafety, CaptureRejectsTrailingGarbage) {
  Bytes b = capture::SerializeCapture({});
  ASSERT_TRUE(capture::DeserializeCapture(b).ok());
  b.push_back(0x42);
  EXPECT_FALSE(capture::DeserializeCapture(b).ok());
}

// --- garbage counts: must fail fast, not allocate or loop on the count -----------

TEST(DecodeSafety, JournalBlockRejectsImplausibleRecordCount) {
  WireWriter w;
  w.PutU32(journal::kBlockMagic);
  w.PutU32(0);           // segment
  w.PutU64(1);           // first lsn
  w.PutU32(0xFFFFFFFFu); // record count far beyond the buffer
  journal::BlockHeader header;
  std::vector<journal::Record> records;
  EXPECT_FALSE(journal::DecodeBlock(w.Take(), &header, &records).ok());
  EXPECT_TRUE(records.empty());
}

TEST(DecodeSafety, CaptureRejectsImplausibleFrameCount) {
  WireWriter w;
  w.PutU32(capture::kCaptureMagic);
  w.PutU16(capture::kCaptureVersion);
  w.PutVarint(0xFFFFFFFFFFull);  // frame count with no frames behind it
  EXPECT_FALSE(capture::DeserializeCapture(w.Take()).ok());
}

TEST(DecodeSafety, TypeDescriptorRejectsImplausibleAttributeCount) {
  WireWriter w;
  w.PutString("T");
  w.PutString("");
  w.PutU32(1);
  w.PutVarint(0xFFFFFFFFull);  // attribute count
  Bytes b = w.Take();
  WireReader r(b);
  EXPECT_FALSE(TypeDescriptor::FromWire(&r).ok());
}

TEST(DecodeSafety, BusstatRejectsImplausibleScalarDictCount) {
  WireWriter w;
  w.PutU8(telemetry::kTsWireVersion);
  w.PutU8(telemetry::kTsKindKeyframe);
  w.PutString("node");
  w.PutVarint(0);  // seq
  w.PutI64(0);     // at_us
  w.PutVarint(1);  // sample period
  w.PutVarint(0xFFFFFFFFFFull);  // scalar dictionary size
  telemetry::StatSeriesDecoder dec;
  EXPECT_FALSE(dec.DecodeSample(w.Take()).ok());
}

TEST(DecodeSafety, BusstatRejectsTrailingGarbage) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("bus.publishes")->Inc(3);
  telemetry::StatSeriesEncoder enc("node", 4);
  Bytes b = enc.EncodeSample(registry, nullptr, nullptr, 10, 1);
  telemetry::StatSeriesDecoder ok_dec;
  ASSERT_TRUE(ok_dec.DecodeSample(b).ok());
  b.push_back(0x07);
  telemetry::StatSeriesDecoder dec;
  EXPECT_FALSE(dec.DecodeSample(b).ok());
}

}  // namespace
}  // namespace ibus
