// Outside-in tracing for the per-layer run. The benchmark drives the simulator with
// Step(); the tracer sees each dispatch through the public SimObserver hook and each
// medium frame through the public NetworkTap hook, and times the benchmark's own
// calls into the library (gen.publish) and out of it (app.upcall). Nothing inside
// src/ is instrumented.
//
// Spans per Step(): sim.core runs from Step entry to the observer callback (heap pop,
// cancellation check), event.<kind> from the callback to Step return. Children of an
// event: gen.publish, app.upcall and trace.tap (the tap's own cost). Datagram
// deliveries are filed as net.medium_deliver.<frame type> when the tap reported a
// medium frame arriving inside them, otherwise as net.loopback_deliver.
#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/bytes.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/stats.h"

namespace perfbench {

int64_t NowNs();

// One id-bearing span: a publish call or a subscriber upcall of message (publisher, seq).
struct SpanRecord {
  size_t key;
  uint32_t publisher;
  uint64_t seq;
  int64_t start_ns;
  int64_t dur_ns;
  uint64_t allocs;
};

// One medium transmission as the tap first saw it.
struct TxRecord {
  ibus::SimTime sent_at = 0;
  ibus::SegmentId segment = 0;
  ibus::SimTime queued_us = 0;
  ibus::SimTime wire_us = 0;
};

class Tracer : public ibus::SimObserver, public ibus::NetworkTap {
 public:
  // Fixed span keys; event kinds get keys from kFirstEventKey on.
  enum Key : size_t {
    kSimCore = 0,
    kGenPublish,
    kAppUpcall,
    kTap,
    kLoopbackDeliver,
    kMediumData,
    kMediumBatch,
    kMediumHeartbeat,
    kMediumNak,
    kMediumOther,
    kFirstEventKey,
  };

  Tracer();

  void Attach(ibus::Simulator* sim, ibus::Network* net);
  void Detach();

  // The drive loop brackets every Step() with these two calls.
  void BeforeStep() {
    step_start_ns_ = NowNs();
    spans_.Open(kSimCore, step_start_ns_, AllocNow());
    in_event_ = false;
  }
  void AfterStep();

  // Children opened by the benchmark's own call sites (gen.publish, app.upcall); each
  // is kept as a span record under the (publisher, seq) id of its message.
  void OpenChild(Key key) { spans_.Open(key, NowNs(), AllocNow()); }
  void CloseChild(uint32_t publisher, uint64_t seq) {
    const size_t key = spans_.innermost_key();
    SpanStack::Closed c = spans_.Close(NowNs(), AllocNow());
    records_.push_back(SpanRecord{key, publisher, seq, c.start_ns, c.dur_ns, c.allocs});
  }

  void OnEventDispatched(const char* kind, ibus::SimTime at) override;
  void OnFrame(const ibus::CapturedFrame& frame) override;

  // Results.
  const std::vector<SpanStack::Totals>& totals() const { return spans_.totals(); }
  const std::vector<std::string>& key_names() const { return names_; }
  int64_t stepped_ns() const { return stepped_ns_; }  // sum over steps of Step duration
  uint64_t events() const { return events_; }
  size_t pending_hwm() const { return pending_hwm_; }
  std::vector<SpanRecord>& records() { return records_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  const std::vector<ibus::Bytes>& frames() const { return frames_; }
  const std::vector<TxRecord>& transmissions() const { return tx_; }

  static uint64_t AllocNow();

 private:
  size_t KeyFor(const char* kind);

  ibus::Simulator* sim_ = nullptr;
  ibus::Network* net_ = nullptr;
  SpanStack spans_;
  std::vector<std::string> names_;
  std::vector<std::pair<const char*, size_t>> kind_keys_;
  const char* datagram_kind_ = nullptr;  // the pointer of "net.datagram_deliver"

  int64_t step_start_ns_ = 0;
  int64_t stepped_ns_ = 0;
  bool in_event_ = false;
  bool in_datagram_ = false;
  int medium_type_ = -1;  // frame type of a medium frame delivered in this event
  uint64_t events_ = 0;
  size_t pending_hwm_ = 0;

  std::vector<SpanRecord> records_;
  std::vector<ibus::Bytes> frames_;  // payloads of data-plane medium frames, one per tx
  std::vector<TxRecord> tx_;
  std::unordered_set<uint64_t> seen_tx_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
