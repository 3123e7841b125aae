// The three benchmark workloads: their fixed parameters, the topology each one
// builds against the library's public API, the seeded open-loop arrival generator,
// and the output check every upcall runs through.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/bus/certified.h"
#include "src/bus/client.h"
#include "src/bus/daemon.h"
#include "src/journal/journal.h"
#include "src/router/router.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/stable_store.h"
#include "src/types/data_object.h"

namespace perfbench {

class Tracer;

enum class Kind { kLanFanout, kNewsSelective, kWanCertified };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  double base_rate;            // aggregate publishes per simulated second
  ibus::SimTime publish_us;    // publishing window of one base-rate episode
  ibus::SimTime drain_us;      // simulated time after the window before the episode ends
  double latency_limit_us;     // p99 limit used by the offered-rate ladder
  std::vector<double> ladder;  // offered rates, as multiples of base_rate
  int sub_seeds;               // distinct base-rate episodes pooled per run
  double rung_deliveries;      // owed deliveries a ladder rung publishes at least
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// Independent reference matcher for the subject grammar ('*' one element, '>' one or
// more trailing elements); used to compute who must receive each message.
bool PatternMatches(std::string_view pattern, std::string_view subject);

// One generated publish and what the output check learned about it.
struct Arrival {
  ibus::SimTime at = 0;
  uint32_t publisher = 0;
  uint64_t seq = 0;  // per publisher, from 1
  uint32_t subject = 0;
  ibus::Bytes payload;            // lan_fanout, wan_certified (copied at publish)
  ibus::DataObjectPtr object;     // news_selective
  std::vector<uint32_t> expected;  // subscription indices that must see it
  std::vector<uint8_t> got;        // upcalls seen, per expected subscription
};

// Output-check and latency tally of one episode.
struct Tally {
  uint64_t expected = 0;       // (subscription, message) deliveries owed
  uint64_t upcalls = 0;        // application upcalls
  uint64_t missing = 0;        // owed deliveries never seen (after the drain)
  uint64_t duplicates = 0;     // repeats of a seen (publisher, seq), or unexpected ones
  uint64_t order_violations = 0;
  uint64_t content_mismatches = 0;  // payload/object differs from what was published
  uint64_t unretired = 0;      // certified publishes still pending after the drain
  uint64_t publish_errors = 0;  // publishes the library refused
  uint64_t delivered_owed = 0;  // first upcalls of owed deliveries so far
  std::vector<double> latency_us;  // publish -> upcall, simulated

  uint64_t Misses() const {
    return missing + order_violations + content_mismatches + unretired + publish_errors;
  }
};

// Cumulative library counters, read through public stats accessors.
struct Counters {
  uint64_t frames_sent = 0, bytes_on_wire = 0, frames_dropped_fault = 0;
  uint64_t proto_published = 0, packets_sent = 0, retransmits = 0, heartbeats = 0;
  uint64_t naks_sent = 0, rx_duplicates = 0, dispatched = 0, no_match = 0;
  uint64_t router_forwarded = 0, journal_appends = 0, journal_flushes = 0;
  uint64_t cert_retransmits = 0, cert_dups_dropped = 0;

  Counters operator-(const Counters& o) const;
  bool operator==(const Counters& o) const = default;

  static constexpr uint64_t Counters::*kFields[] = {
      &Counters::frames_sent,      &Counters::bytes_on_wire,   &Counters::frames_dropped_fault,
      &Counters::proto_published,  &Counters::packets_sent,    &Counters::retransmits,
      &Counters::heartbeats,       &Counters::naks_sent,       &Counters::rx_duplicates,
      &Counters::dispatched,       &Counters::no_match,        &Counters::router_forwarded,
      &Counters::journal_appends,  &Counters::journal_flushes, &Counters::cert_retransmits,
      &Counters::cert_dups_dropped};
};

struct Subscription {
  ibus::HostId host = 0;
  std::string pattern;
};

// One built topology. Build() is the set-up phase (topology, subscriptions, router
// link, warm-up); Publish() hands one generated arrival to its publisher.
class World {
 public:
  static std::unique_ptr<World> Build(const WorkloadSpec& spec, uint64_t seed);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  ibus::Simulator* sim() { return sim_.get(); }
  ibus::Network* net() { return net_.get(); }
  const WorkloadSpec& spec() const { return spec_; }
  size_t publishers() const { return n_publishers_; }
  const std::vector<std::string>& subjects() const { return subjects_; }
  const std::vector<Subscription>& subscriptions() const { return subs_; }
  // Subscription indices owed each subject (the reference matcher over subs_).
  const std::vector<std::vector<uint32_t>>& subject_subs() const;

  // Binds the arrival table and tally the upcalls of the next episode report into.
  void Bind(std::vector<Arrival>* arrivals, Tally* tally);
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  ibus::Status Publish(Arrival& a);
  Counters Snapshot() const;
  uint64_t CertifiedPending() const;

  // End-of-episode gauges and histograms (cumulative since Build).
  int64_t RouterBacklogHwmUs() const;
  int64_t JournalCommitP99Us() const;
  int64_t CertifiedRetireP99Us() const;

 private:
  explicit World(const WorkloadSpec& spec) : spec_(spec) {}
  ibus::Status BuildLan(bool news);
  ibus::Status BuildWan();
  void OnUpcall(uint32_t sub, const ibus::Message& m, const ibus::DataObject* obj);

  WorkloadSpec spec_;
  size_t n_publishers_ = 0;
  std::vector<std::string> subjects_;
  std::vector<Subscription> subs_;

  std::unique_ptr<ibus::Simulator> sim_;
  std::unique_ptr<ibus::Network> net_;
  std::vector<std::unique_ptr<ibus::BusDaemon>> daemons_;
  std::vector<std::unique_ptr<ibus::BusClient>> clients_;
  std::vector<ibus::BusClient*> publishers_;
  std::vector<std::unique_ptr<ibus::InfoRouter>> routers_;
  std::vector<std::unique_ptr<ibus::MemoryStableStore>> devices_;
  std::vector<std::unique_ptr<ibus::telemetry::MetricsRegistry>> journal_metrics_;
  std::vector<std::unique_ptr<ibus::journal::Journal>> journals_;
  std::vector<std::unique_ptr<ibus::CertifiedPublisher>> cert_pubs_;
  std::vector<std::unique_ptr<ibus::CertifiedSubscriber>> cert_subs_;

  std::vector<Arrival>* arrivals_ = nullptr;
  std::vector<std::vector<uint32_t>> arrival_of_;  // [publisher][seq - 1] -> arrival
  std::vector<uint64_t> last_seq_;                 // [sub * publishers + publisher]
  Tally* tally_ = nullptr;
  Tracer* tracer_ = nullptr;
};

// Seeded open-loop Poisson arrivals of independent publishers over
// [start, start + window) at `rate` aggregate publishes per simulated second. The
// same (spec, seed, rate, window) always yields the same inputs.
std::vector<Arrival> Generate(const World& world, uint64_t seed, double rate,
                              ibus::SimTime start, ibus::SimTime window);

// Order-sensitive digest of generated inputs (times, publishers, subjects, payloads).
uint64_t DigestArrivals(const std::vector<Arrival>& arrivals);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
