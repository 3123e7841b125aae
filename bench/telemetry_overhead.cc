// Telemetry self-overhead accounting: runs the canonical busstat WAN scenario
// (src/scenario/busstat_demo.h) at three trace-sampling settings — trace
// everything (period 1), the default 1/64 sample, and tracing off — and reports
// the stats plane's self-measured overhead ratio at each: the fraction of all
// daemon-published bytes injected by the observability plane itself (trace spans,
// busstat time-series records, health beacons). The ratio comes from the fleet's
// own telemetry.self.bytes / bus.publish_bytes counters as merged by the
// StatsAggregator, so the bench measures exactly what operators see in busstat.
//
// The acceptance budget is enforced here, not just diffed: at the default 1/64
// sampling the plane must cost < 5% of published bytes, or the bench fails.
// scripts/bench_diff.py additionally gates overhead_ratio growth between runs.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/scenario/busstat_demo.h"

namespace ibus {
namespace bench {
namespace {

constexpr double kOverheadBudget = 0.05;  // at the default 1/64 sampling

struct OverheadRow {
  std::string name;
  uint32_t sample_period;
  scenario::BusStatScenario run;
};

int Run() {
  std::printf("=== Telemetry self-overhead (busstat WAN scenario, seed 42) ===\n");
  std::printf("topology: 2 LANs x 2 hosts + router pair; 300 x 1KB publishes; "
              "6 busstat reporters at 1s cadence; 10%% loss + 300us jitter\n\n");

  std::vector<OverheadRow> rows;
  for (auto [label, period] : {std::pair<const char*, uint32_t>{"sample_1", 1},
                               {"sample_64", 64},
                               {"off", 0}}) {
    scenario::BusStatScenarioOptions options;
    options.sample_period = period;
    scenario::BusStatScenario run = scenario::RunBusstatWanScenario(42, options);
    if (!run.trace.empty() && run.trace.front().rfind("error:", 0) == 0) {
      std::fprintf(stderr, "telemetry_overhead: scenario failed at %s: %s\n", label,
                   run.trace.front().c_str());
      return 1;
    }
    rows.push_back({std::string("telemetry_overhead/") + label, period, std::move(run)});
  }

  std::printf("%26s %10s %14s %12s %10s %8s\n", "series", "delivered", "publish_bytes",
              "self_bytes", "self_msgs", "overhead");
  for (const OverheadRow& r : rows) {
    std::printf("%26s %10llu %14llu %12llu %10llu %7.3f%%\n", r.name.c_str(),
                static_cast<unsigned long long>(r.run.delivered),
                static_cast<unsigned long long>(r.run.publish_bytes),
                static_cast<unsigned long long>(r.run.self_bytes),
                static_cast<unsigned long long>(r.run.self_msgs),
                r.run.overhead_ratio * 100.0);
  }
  std::printf("\n(overhead = fleet telemetry.self.bytes / bus.publish_bytes, merged "
              "by the StatsAggregator;\nthe busstat time-series records count against "
              "their own budget)\n");

  // Hand-emitted rows: carry the overhead_ratio key that EmitBenchJson's fixed
  // schema does not know about. bench_diff.py gates on it when both sides of a
  // comparison have it, and reports it as a new series against older baselines.
  if (const char* path = std::getenv("BENCH_JSON")) {
    if (std::FILE* f = std::fopen(path, "a")) {
      for (const OverheadRow& r : rows) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"p50_us\": 0.000, \"p90_us\": 0.000, "
                     "\"p99_us\": 0.000, \"msgs_per_sec\": 0.000, "
                     "\"overhead_ratio\": %.6f, \"self_bytes\": %llu, "
                     "\"publish_bytes\": %llu}\n",
                     r.name.c_str(), r.run.overhead_ratio,
                     static_cast<unsigned long long>(r.run.self_bytes),
                     static_cast<unsigned long long>(r.run.publish_bytes));
      }
      std::fclose(f);
    }
  }

  for (const OverheadRow& r : rows) {
    if (r.sample_period == 64 && r.run.overhead_ratio >= kOverheadBudget) {
      std::fprintf(stderr,
                   "telemetry_overhead: FAIL — overhead %.3f%% at 1/64 sampling "
                   "exceeds the %.0f%% budget\n",
                   r.run.overhead_ratio * 100.0, kOverheadBudget * 100.0);
      return 1;
    }
  }
  std::printf("\nbudget: OK — %.3f%% at 1/64 sampling (< %.0f%%)\n",
              rows[1].run.overhead_ratio * 100.0, kOverheadBudget * 100.0);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ibus

int main() { return ibus::bench::Run(); }
