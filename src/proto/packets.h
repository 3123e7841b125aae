// Packet schemas for the bus transport protocols. Every datagram on the bus port is a
// framed message (src/wire framing); the frame type selects the schema below.
#ifndef SRC_PROTO_PACKETS_H_
#define SRC_PROTO_PACKETS_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/wire/wire.h"

namespace ibus {

// Frame types: every frame-type number on the wire is allocated here.
enum PacketType : uint8_t {
  kPktData = 1,       // one (possibly fragmented) application message
  kPktBatch = 2,      // several small messages packed into one frame
  kPktHeartbeat = 3,  // sender liveness + tail-loss detection
  kPktNak = 4,        // receiver requests retransmission of missing sequences
  // Bus/daemon control plane (defined in src/bus but allocated here to keep the
  // numbering space in one place).
  kPktClientRegister = 16,
  kPktClientMessage = 17,
  kPktSubscribe = 18,
  kPktUnsubscribe = 19,
  kPktClientDeliver = 20,
  kPktCertifiedAck = 21,
  kPktClientUnregister = 22,
  // RMI request/reply over point-to-point connections (src/rmi).
  kPktRmiRequest = 40,
  kPktRmiReply = 41,
  // Information-router link frames (src/router): subscription adverts and
  // forwarded messages.
  kPktRouterAdvert = 50,
  kPktRouterMessage = 51,
  // Centralized-broker baseline (src/baseline).
  kPktBrokerSubscribe = 60,
  kPktBrokerPublish = 61,
  kPktBrokerDeliver = 62,
};

struct DataPacket {
  uint64_t stream_id = 0;
  uint64_t seq = 0;
  uint16_t frag_index = 0;
  uint16_t frag_count = 1;
  Bytes chunk;

  Bytes Marshal() const;
  static Result<DataPacket> Unmarshal(const Bytes& payload);
};

struct BatchPacket {
  uint64_t stream_id = 0;
  uint64_t first_seq = 0;
  std::vector<Bytes> messages;

  Bytes Marshal() const;
  static Result<BatchPacket> Unmarshal(const Bytes& payload);
};

struct HeartbeatPacket {
  uint64_t stream_id = 0;
  uint64_t highest_seq = 0;     // last sequence sent on the wire (0 = none yet)
  uint64_t lowest_retained = 0; // oldest sequence still retransmittable

  Bytes Marshal() const;
  static Result<HeartbeatPacket> Unmarshal(const Bytes& payload);
};

struct NakPacket {
  uint64_t stream_id = 0;
  std::vector<uint64_t> missing;

  Bytes Marshal() const;
  static Result<NakPacket> Unmarshal(const Bytes& payload);
};

}  // namespace ibus

#endif  // SRC_PROTO_PACKETS_H_
