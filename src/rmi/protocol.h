// Wire schemas for the RMI request/reply protocol and the discovery "I am" payload.
#ifndef SRC_RMI_PROTOCOL_H_
#define SRC_RMI_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/sim/network.h"
#include "src/types/type_descriptor.h"
#include "src/types/value.h"

namespace ibus {

// Discovery response payload: where to connect and how loaded the server is.
struct RmiAdvert {
  std::string server_name;
  std::string subject;  // the subject the service answers on (set by directory adverts)
  HostId host = kNoHost;
  Port port = 0;
  uint64_t load = 0;  // currently executing + queued requests
  TypeDescriptor interface;

  Bytes Marshal() const;
  static Result<RmiAdvert> Unmarshal(const Bytes& b);
};

enum class RmiCall : uint8_t {
  kInvoke = 1,
  kDescribe = 2,  // returns the service interface (introspection over the wire)
};

struct RmiRequest {
  uint64_t request_id = 0;
  RmiCall call = RmiCall::kInvoke;
  std::string operation;
  std::vector<Value> args;

  Bytes Marshal() const;
  static Result<RmiRequest> Unmarshal(const Bytes& b);
};

struct RmiReply {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string error_message;
  Value result;

  Bytes Marshal() const;
  static Result<RmiReply> Unmarshal(const Bytes& b);
};

}  // namespace ibus

#endif  // SRC_RMI_PROTOCOL_H_
