#include "src/telemetry/busstat.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/common/hash.h"
#include "src/subject/subject.h"
#include "src/wire/wire.h"

namespace ibus::telemetry {

namespace {

constexpr uint8_t kTagCounter = 0;
constexpr uint8_t kTagGauge = 1;

// Zigzag so small negative gauge deltas stay one varint byte.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutZigZag(WireWriter* w, int64_t v) { w->PutVarint(ZigZag(v)); }

// Current (tag, name, value) view of a registry: counters then gauges, each in the
// registry's deterministic name order. Histograms travel separately.
struct ScalarEntry {
  uint8_t tag;
  const std::string* name;
  int64_t value;
};
std::vector<ScalarEntry> ScalarsOf(const MetricsRegistry& registry) {
  std::vector<ScalarEntry> out;
  out.reserve(registry.counters().size() + registry.gauges().size());
  for (const auto& [name, c] : registry.counters()) {
    out.push_back({kTagCounter, &name, static_cast<int64_t>(c->value())});
  }
  for (const auto& [name, g] : registry.gauges()) {
    out.push_back({kTagGauge, &name, g->value()});
  }
  return out;
}

void EncodeHistogramAbsolute(WireWriter* w, const std::string& name,
                             const LatencyHistogram& h) {
  w->PutString(name);
  w->PutI64(h.sum());
  w->PutI64(h.min());
  w->PutI64(h.max());
  size_t nonzero = 0;
  for (size_t b = 0; b < LatencyHistogram::kBuckets; b++) {
    if (h.bucket_count(b) != 0) {
      nonzero++;
    }
  }
  w->PutVarint(nonzero);
  for (size_t b = 0; b < LatencyHistogram::kBuckets; b++) {
    if (h.bucket_count(b) != 0) {
      w->PutVarint(b);
      w->PutVarint(h.bucket_count(b));
    }
  }
}

// Deterministic JSON escaping for metric/subject names (conservative: names are
// ASCII identifiers, but a hostile subject could carry anything).
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<uint8_t>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendSketchJson(std::string* out, const char* key, const TopKSketch& sk) {
  out->append("\"");
  out->append(key);
  out->append("\": [");
  bool first = true;
  for (const TopKSketch::Entry& e : sk.Entries()) {
    if (!first) {
      out->append(", ");
    }
    first = false;
    out->append("{\"key\": ");
    AppendJsonString(out, e.key);
    out->append(", \"count\": " + std::to_string(e.count));
    out->append(", \"error\": " + std::to_string(e.error) + "}");
  }
  out->append("]");
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoder

// wirecheck: codec(stat_series, version=181)
Bytes StatSeriesEncoder::EncodeSample(const MetricsRegistry& registry,
                                      const TopKSketch* subject_sketch,
                                      const TopKSketch* peer_sketch, int64_t at_us,
                                      uint32_t sample_period) {
  const bool keyframe = seq_ % keyframe_every_ == 0;
  WireWriter w;
  w.PutU8(kTsWireVersion);
  w.PutU8(keyframe ? kTsKindKeyframe : kTsKindDelta);
  w.PutString(node_);
  w.PutVarint(seq_);
  w.PutI64(at_us);
  w.PutVarint(sample_period);

  // Scalar section. The dictionary is append-only: registries never drop metrics,
  // so an index, once assigned, stays valid for the stream's lifetime.
  std::vector<ScalarEntry> scalars = ScalarsOf(registry);
  auto dict_index = [this](uint8_t tag, const std::string& name) -> ptrdiff_t {
    for (size_t i = 0; i < dict_.size(); i++) {
      if (dict_[i].first == tag && dict_[i].second == name) {
        return static_cast<ptrdiff_t>(i);
      }
    }
    return -1;
  };
  if (keyframe) {
    // Fold any new names in first, then emit the whole dictionary with absolutes.
    for (const ScalarEntry& e : scalars) {
      ptrdiff_t i = dict_index(e.tag, *e.name);
      if (i < 0) {
        dict_.emplace_back(e.tag, *e.name);
        last_.push_back(e.value);
      } else {
        last_[static_cast<size_t>(i)] = e.value;
      }
    }
    w.PutVarint(dict_.size());
    for (size_t i = 0; i < dict_.size(); i++) {
      w.PutU8(dict_[i].first);
      w.PutString(dict_[i].second);
      PutZigZag(&w, last_[i]);
    }
  } else {
    std::vector<ScalarEntry> fresh;
    std::vector<std::pair<uint64_t, int64_t>> changed;  // (index, delta)
    for (const ScalarEntry& e : scalars) {
      ptrdiff_t i = dict_index(e.tag, *e.name);
      if (i < 0) {
        fresh.push_back(e);
      } else if (e.value != last_[static_cast<size_t>(i)]) {
        changed.emplace_back(static_cast<uint64_t>(i),
                             e.value - last_[static_cast<size_t>(i)]);
        last_[static_cast<size_t>(i)] = e.value;
      }
    }
    w.PutVarint(fresh.size());
    for (const ScalarEntry& e : fresh) {
      w.PutU8(e.tag);
      w.PutString(*e.name);
      PutZigZag(&w, e.value);
      dict_.emplace_back(e.tag, *e.name);
      last_.push_back(e.value);
    }
    w.PutVarint(changed.size());
    for (const auto& [i, delta] : changed) {
      w.PutVarint(i);
      PutZigZag(&w, delta);
    }
  }

  // Histogram section (same dictionary discipline; bucket counts are monotone so
  // deltas are plain varints).
  const auto& hists = registry.histograms();
  auto hist_index = [this](const std::string& name) -> ptrdiff_t {
    for (size_t i = 0; i < hist_dict_.size(); i++) {
      if (hist_dict_[i] == name) {
        return static_cast<ptrdiff_t>(i);
      }
    }
    return -1;
  };
  auto buckets_of = [](const LatencyHistogram& h) {
    std::vector<uint64_t> counts(LatencyHistogram::kBuckets, 0);
    for (size_t b = 0; b < LatencyHistogram::kBuckets; b++) {
      counts[b] = h.bucket_count(b);
    }
    return counts;
  };
  if (keyframe) {
    for (const auto& [name, h] : hists) {
      ptrdiff_t i = hist_index(name);
      if (i < 0) {
        hist_dict_.push_back(name);
        hist_last_.push_back(buckets_of(*h));
      } else {
        hist_last_[static_cast<size_t>(i)] = buckets_of(*h);
      }
    }
    // Emit in dictionary order (not registry map order): decoders rebuild their
    // dictionary from record order, and later delta indices must line up.
    w.PutVarint(hist_dict_.size());
    for (const std::string& name : hist_dict_) {
      EncodeHistogramAbsolute(&w, name, *hists.at(name));
    }
  } else {
    std::vector<const std::string*> fresh;
    // (hist index, changed (bucket, dcount) pairs) for pre-existing histograms.
    struct ChangedHist {
      uint64_t index;
      const LatencyHistogram* h;
      std::vector<std::pair<uint64_t, uint64_t>> dbuckets;
    };
    std::vector<ChangedHist> changed;
    for (const auto& [name, h] : hists) {
      ptrdiff_t i = hist_index(name);
      if (i < 0) {
        fresh.push_back(&name);
        continue;
      }
      std::vector<uint64_t>& prev = hist_last_[static_cast<size_t>(i)];
      ChangedHist ch{static_cast<uint64_t>(i), h.get(), {}};
      for (size_t b = 0; b < LatencyHistogram::kBuckets; b++) {
        uint64_t now = h->bucket_count(b);
        if (now != prev[b]) {
          ch.dbuckets.emplace_back(b, now - prev[b]);
          prev[b] = now;
        }
      }
      if (!ch.dbuckets.empty()) {
        changed.push_back(std::move(ch));
      }
    }
    w.PutVarint(fresh.size());
    for (const std::string* name : fresh) {
      const LatencyHistogram& h = *hists.at(*name);
      EncodeHistogramAbsolute(&w, *name, h);
      hist_dict_.push_back(*name);
      hist_last_.push_back(buckets_of(h));
    }
    w.PutVarint(changed.size());
    for (const ChangedHist& ch : changed) {
      w.PutVarint(ch.index);
      w.PutI64(ch.h->sum());
      w.PutI64(ch.h->min());
      w.PutI64(ch.h->max());
      w.PutVarint(ch.dbuckets.size());
      for (const auto& [b, d] : ch.dbuckets) {
        w.PutVarint(b);
        w.PutVarint(d);
      }
    }
  }

  // Sketches ride whole every sample: they are O(capacity), and deltas of a
  // structure that evicts keys would be larger than the structure itself.
  w.PutBool(subject_sketch != nullptr);
  if (subject_sketch != nullptr) {
    subject_sketch->Encode(&w);
  }
  w.PutBool(peer_sketch != nullptr);
  if (peer_sketch != nullptr) {
    peer_sketch->Encode(&w);
  }

  seq_++;
  return w.Take();
}

// ---------------------------------------------------------------------------
// Decoder

// wirecheck: codec(stat_series, version=181)
Status StatSeriesDecoder::DecodeSample(const Bytes& record) {
  WireReader r(record);
  auto version = r.ReadU8();
  if (!version.ok()) {
    return DataLoss("busstat: empty record");
  }
  if (*version != kTsWireVersion) {
    return Unimplemented("busstat: foreign record version " + std::to_string(*version));
  }
  auto kind = r.ReadU8();
  auto node = r.ReadString();
  auto seq = r.ReadVarint();
  auto at_us = r.ReadI64();
  auto sample_period = r.ReadVarint();
  if (!kind.ok() || !node.ok() || !seq.ok() || !at_us.ok() || !sample_period.ok()) {
    return DataLoss("busstat: truncated header");
  }
  const bool keyframe = *kind == kTsKindKeyframe;
  if (!keyframe && *kind != kTsKindDelta) {
    return DataLoss("busstat: unknown record kind");
  }
  if (!keyframe && (!synced_ || *seq != latest_.seq + 1)) {
    // A delta we cannot anchor: drop it and wait for the next keyframe rather
    // than corrupting absolute state.
    desyncs_++;
    synced_ = false;
    return FailedPrecondition("busstat: delta without anchored keyframe");
  }

  if (keyframe) {
    // Keyframes carry everything: rebuild from scratch.
    dict_.clear();
    hist_dict_.clear();
    latest_.values.clear();
    latest_.histograms.clear();
    auto n = r.ReadVarint();
    if (!n.ok()) {
      return DataLoss("busstat: truncated scalar dict");
    }
    // Each dictionary entry costs at least three bytes; a count beyond the
    // remaining buffer is garbage, not a big dictionary.
    if (*n > r.remaining()) {
      return DataLoss("busstat: implausible scalar dict size");
    }
    for (uint64_t i = 0; i < *n; i++) {
      auto tag = r.ReadU8();
      auto name = r.ReadString();
      auto value = r.ReadVarint();
      if (!tag.ok() || !name.ok() || !value.ok()) {
        return DataLoss("busstat: truncated scalar entry");
      }
      dict_.emplace_back(*tag, *name);
      latest_.values[name.take()] = UnZigZag(*value);
    }
  } else {
    auto fresh = r.ReadVarint();
    if (!fresh.ok()) {
      return DataLoss("busstat: truncated scalar appends");
    }
    if (*fresh > r.remaining()) {
      return DataLoss("busstat: implausible scalar append count");
    }
    for (uint64_t i = 0; i < *fresh; i++) {
      auto tag = r.ReadU8();
      auto name = r.ReadString();
      auto value = r.ReadVarint();
      if (!tag.ok() || !name.ok() || !value.ok()) {
        return DataLoss("busstat: truncated scalar append");
      }
      dict_.emplace_back(*tag, *name);
      latest_.values[name.take()] = UnZigZag(*value);
    }
    auto changed = r.ReadVarint();
    if (!changed.ok()) {
      return DataLoss("busstat: truncated scalar deltas");
    }
    if (*changed > r.remaining()) {
      return DataLoss("busstat: implausible scalar delta count");
    }
    for (uint64_t i = 0; i < *changed; i++) {
      auto index = r.ReadVarint();
      auto delta = r.ReadVarint();
      if (!index.ok() || !delta.ok()) {
        return DataLoss("busstat: truncated scalar delta");
      }
      if (*index >= dict_.size()) {
        desyncs_++;
        synced_ = false;
        return FailedPrecondition("busstat: scalar index out of dictionary");
      }
      latest_.values[dict_[*index].second] += UnZigZag(*delta);
    }
  }

  // Histogram section.
  auto decode_absolute_hist = [this, &r]() -> Status {
    auto name = r.ReadString();
    auto sum = r.ReadI64();
    auto min = r.ReadI64();
    auto max = r.ReadI64();
    auto nonzero = r.ReadVarint();
    if (!name.ok() || !sum.ok() || !min.ok() || !max.ok() || !nonzero.ok()) {
      return DataLoss("busstat: truncated histogram");
    }
    if (*nonzero > r.remaining()) {
      return DataLoss("busstat: implausible histogram bucket count");
    }
    LatencyHistogram h;
    for (uint64_t b = 0; b < *nonzero; b++) {
      auto idx = r.ReadVarint();
      auto count = r.ReadVarint();
      if (!idx.ok() || !count.ok()) {
        return DataLoss("busstat: truncated histogram bucket");
      }
      h.RestoreBucket(static_cast<size_t>(*idx), *count);
    }
    h.RestoreStats(*sum, *min, *max);
    hist_dict_.push_back(*name);
    latest_.histograms[name.take()] = h;
    return OkStatus();
  };
  if (keyframe) {
    auto n = r.ReadVarint();
    if (!n.ok()) {
      return DataLoss("busstat: truncated histogram dict");
    }
    if (*n > r.remaining()) {
      return DataLoss("busstat: implausible histogram dict size");
    }
    for (uint64_t i = 0; i < *n; i++) {
      IBUS_RETURN_IF_ERROR(decode_absolute_hist());
    }
  } else {
    auto fresh = r.ReadVarint();
    if (!fresh.ok()) {
      return DataLoss("busstat: truncated histogram appends");
    }
    if (*fresh > r.remaining()) {
      return DataLoss("busstat: implausible histogram append count");
    }
    for (uint64_t i = 0; i < *fresh; i++) {
      IBUS_RETURN_IF_ERROR(decode_absolute_hist());
    }
    auto changed = r.ReadVarint();
    if (!changed.ok()) {
      return DataLoss("busstat: truncated histogram deltas");
    }
    if (*changed > r.remaining()) {
      return DataLoss("busstat: implausible histogram delta count");
    }
    for (uint64_t i = 0; i < *changed; i++) {
      auto index = r.ReadVarint();
      auto sum = r.ReadI64();
      auto min = r.ReadI64();
      auto max = r.ReadI64();
      auto nbuckets = r.ReadVarint();
      if (!index.ok() || !sum.ok() || !min.ok() || !max.ok() || !nbuckets.ok()) {
        return DataLoss("busstat: truncated histogram delta");
      }
      if (*nbuckets > r.remaining()) {
        return DataLoss("busstat: implausible delta bucket count");
      }
      if (*index >= hist_dict_.size()) {
        desyncs_++;
        synced_ = false;
        return FailedPrecondition("busstat: histogram index out of dictionary");
      }
      LatencyHistogram& h = latest_.histograms[hist_dict_[*index]];
      for (uint64_t b = 0; b < *nbuckets; b++) {
        auto idx = r.ReadVarint();
        auto dcount = r.ReadVarint();
        if (!idx.ok() || !dcount.ok()) {
          return DataLoss("busstat: truncated histogram delta bucket");
        }
        h.RestoreBucket(static_cast<size_t>(*idx), *dcount);
      }
      h.RestoreStats(*sum, *min, *max);
    }
  }

  // Sketch section.
  auto has_subject = r.ReadBool();
  if (!has_subject.ok()) {
    return DataLoss("busstat: truncated sketch flags");
  }
  if (*has_subject) {
    auto sk = TopKSketch::Decode(&r);
    if (!sk.ok()) {
      return sk.status();
    }
    latest_.subject_sketch = sk.take();
  }
  auto has_peer = r.ReadBool();
  if (!has_peer.ok()) {
    return DataLoss("busstat: truncated sketch flags");
  }
  if (*has_peer) {
    auto sk = TopKSketch::Decode(&r);
    if (!sk.ok()) {
      return sk.status();
    }
    latest_.peer_sketch = sk.take();
  }

  if (!r.AtEnd()) {
    return DataLoss("busstat: trailing bytes after sample");
  }
  latest_.node = node.take();
  latest_.seq = *seq;
  latest_.at_us = *at_us;
  latest_.sample_period = static_cast<uint32_t>(*sample_period);
  synced_ = true;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Reporter

BusStatReporter::BusStatReporter(BusClient* bus, const std::string& node,
                                 const MetricsRegistry* registry,
                                 const TopKSketch* subject_sketch,
                                 const TopKSketch* peer_sketch,
                                 const BusStatReporterOptions& options)
    : bus_(bus),
      node_(node),
      registry_(registry),
      subject_sketch_(subject_sketch),
      peer_sketch_(peer_sketch),
      options_(options),
      encoder_(node, options.keyframe_every),
      alive_(std::make_shared<bool>(true)) {}

Result<std::unique_ptr<BusStatReporter>> BusStatReporter::Create(
    BusClient* bus, const std::string& node, const MetricsRegistry* registry,
    const TopKSketch* subject_sketch, const TopKSketch* peer_sketch,
    const BusStatReporterOptions& options) {
  if (options.interval_us <= 0) {
    return InvalidArgument("busstat reporter: interval must be positive");
  }
  if (node.empty()) {
    return InvalidArgument("busstat reporter: node name must be non-empty");
  }
  auto reporter = std::unique_ptr<BusStatReporter>(
      new BusStatReporter(bus, node, registry, subject_sketch, peer_sketch, options));
  reporter->PublishSample();
  return reporter;
}

BusStatReporter::~BusStatReporter() { *alive_ = false; }

void BusStatReporter::PublishSample() {
  Message m;
  m.subject = std::string(kReservedStatsTsPrefix) + node_;
  m.type_name = "_ibus.stats.ts";  // buslint: allow(reserved-subject)
  m.payload = encoder_.EncodeSample(*registry_, subject_sketch_, peer_sketch_,
                                    bus_->sim()->Now(), options_.sample_period);
  if (bus_->PublishInternal(std::move(m)).ok()) {
    samples_++;
  }
  bus_->sim()->ScheduleAfter(
      options_.interval_us,
      [this, alive = alive_]() {
        if (*alive) {
          PublishSample();
        }
      },
      "busstat.report");
}

// ---------------------------------------------------------------------------
// Aggregator

Result<std::unique_ptr<StatsAggregator>> StatsAggregator::Create(BusClient* bus) {
  auto agg = std::unique_ptr<StatsAggregator>(new StatsAggregator());
  agg->bus_ = bus;
  auto sub = bus->Subscribe(std::string(kReservedStatsTsPrefix) + ">",
                            [a = agg.get()](const Message& m) { a->Consume(m.payload); });
  if (!sub.ok()) {
    return sub.status();
  }
  agg->sub_ = *sub;
  return agg;
}

StatsAggregator::~StatsAggregator() {
  if (bus_ != nullptr && sub_ != 0) {
    bus_->Unsubscribe(sub_);
  }
}

void StatsAggregator::Consume(const Bytes& record) {
  // Peek the node name so each stream gets its own decoder: version, kind, node.
  WireReader r(record);
  auto version = r.ReadU8();
  if (!version.ok() || *version != kTsWireVersion) {
    return;  // foreign record: not ours to count
  }
  auto kind = r.ReadU8();
  auto node = r.ReadString();
  if (!kind.ok() || !node.ok() || node->empty()) {
    decode_errors_++;
    return;
  }
  NodeState& state = nodes_[*node];
  Status s = state.decoder.DecodeSample(record);
  if (!s.ok()) {
    if (s.code() != StatusCode::kFailedPrecondition) {
      decode_errors_++;
    }
    return;
  }
  samples_++;
  RingEntry entry;
  entry.seq = state.decoder.latest().seq;
  entry.at_us = state.decoder.latest().at_us;
  entry.values = state.decoder.latest().values;
  if (state.ring.size() < kStatsRingDepth) {
    state.ring.push_back(std::move(entry));
  } else {
    state.ring[state.ring_next] = std::move(entry);
  }
  state.ring_next = (state.ring_next + 1) % kStatsRingDepth;
  state.ring_seen++;
}

std::vector<std::string> StatsAggregator::Nodes() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, state] : nodes_) {
    out.push_back(name);
  }
  return out;
}

const DecodedSample* StatsAggregator::Latest(const std::string& node) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.ring_seen == 0) {
    return nullptr;
  }
  return &it->second.decoder.latest();
}

std::vector<StatsAggregator::RingEntry> StatsAggregator::History(
    const std::string& node) const {
  std::vector<RingEntry> out;
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return out;
  }
  const NodeState& state = it->second;
  out.reserve(state.ring.size());
  // Oldest first: the ring wraps at ring_next once full.
  size_t start = state.ring.size() < kStatsRingDepth ? 0 : state.ring_next;
  for (size_t i = 0; i < state.ring.size(); i++) {
    out.push_back(state.ring[(start + i) % state.ring.size()]);
  }
  return out;
}

int64_t StatsAggregator::FleetValue(const std::string& metric) const {
  int64_t total = 0;
  for (const auto& [name, state] : nodes_) {
    const auto& values = state.decoder.latest().values;
    auto it = values.find(metric);
    if (it != values.end()) {
      total += it->second;
    }
  }
  return total;
}

LatencyHistogram StatsAggregator::MergedHistogram(const std::string& hist) const {
  LatencyHistogram merged;
  for (const auto& [name, state] : nodes_) {
    const auto& hists = state.decoder.latest().histograms;
    auto it = hists.find(hist);
    if (it != hists.end()) {
      merged.Merge(it->second);
    }
  }
  return merged;
}

TopKSketch StatsAggregator::MergedSubjectSketch() const {
  TopKSketch merged(TopKSketch::kDefaultCapacity);
  for (const auto& [name, state] : nodes_) {
    merged.Merge(state.decoder.latest().subject_sketch);
  }
  return merged;
}

TopKSketch StatsAggregator::MergedPeerSketch() const {
  TopKSketch merged(TopKSketch::kDefaultCapacity);
  for (const auto& [name, state] : nodes_) {
    merged.Merge(state.decoder.latest().peer_sketch);
  }
  return merged;
}

double StatsAggregator::OverheadRatio() const {
  int64_t self = FleetValue(kMetricSelfBytes);
  int64_t total = FleetValue(kMetricPublishBytes);
  if (total <= 0) {
    return 0.0;
  }
  return static_cast<double>(self) / static_cast<double>(total);
}

uint64_t StatsAggregator::desyncs() const {
  uint64_t total = 0;
  for (const auto& [name, state] : nodes_) {
    total += state.decoder.desyncs();
  }
  return total;
}

std::string StatsAggregator::RenderJson() const {
  std::string out;
  out.reserve(4096);
  out.append("{\"schema\": \"BUSSTAT_1\",\n\"nodes\": {");
  bool first_node = true;
  for (const auto& [name, state] : nodes_) {
    if (state.ring_seen == 0) {
      continue;
    }
    const DecodedSample& s = state.decoder.latest();
    if (!first_node) {
      out.append(",");
    }
    first_node = false;
    out.append("\n  ");
    AppendJsonString(&out, name);
    out.append(": {\"seq\": " + std::to_string(s.seq));
    out.append(", \"at_us\": " + std::to_string(s.at_us));
    out.append(", \"sample_period\": " + std::to_string(s.sample_period));
    out.append(", \"values\": {");
    bool first_v = true;
    for (const auto& [metric, value] : s.values) {
      if (!first_v) {
        out.append(", ");
      }
      first_v = false;
      AppendJsonString(&out, metric);
      out.append(": " + std::to_string(value));
    }
    out.append("}}");
  }
  out.append("\n},\n\"fleet\": {\n");
  // Fleet scalar roll-up: the union of metric names across nodes, summed.
  std::map<std::string, int64_t> fleet;
  for (const auto& [name, state] : nodes_) {
    for (const auto& [metric, value] : state.decoder.latest().values) {
      fleet[metric] += value;
    }
  }
  out.append("  \"values\": {");
  bool first_f = true;
  for (const auto& [metric, value] : fleet) {
    if (!first_f) {
      out.append(", ");
    }
    first_f = false;
    AppendJsonString(&out, metric);
    out.append(": " + std::to_string(value));
  }
  out.append("},\n");
  // Merged quantiles for every histogram name seen anywhere in the fleet.
  std::map<std::string, LatencyHistogram> merged_hists;
  for (const auto& [name, state] : nodes_) {
    for (const auto& [hist, h] : state.decoder.latest().histograms) {
      merged_hists[hist].Merge(h);
    }
  }
  out.append("  \"histograms\": {");
  bool first_h = true;
  for (const auto& [hist, h] : merged_hists) {
    if (!first_h) {
      out.append(", ");
    }
    first_h = false;
    AppendJsonString(&out, hist);
    out.append(": {\"count\": " + std::to_string(h.count()));
    out.append(", \"min\": " + std::to_string(h.min()));
    out.append(", \"max\": " + std::to_string(h.max()));
    out.append(", \"p50\": " + std::to_string(h.p50()));
    out.append(", \"p90\": " + std::to_string(h.p90()));
    out.append(", \"p99\": " + std::to_string(h.p99()));
    out.append("}");
  }
  out.append("},\n");
  AppendSketchJson(&out, "top_subjects", MergedSubjectSketch());
  out.append(",\n");
  AppendSketchJson(&out, "top_peers", MergedPeerSketch());
  out.append(",\n");
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.6f", OverheadRatio());
  out.append("  \"overhead_ratio\": ");
  out.append(ratio);
  out.append("\n}}\n");
  return out;
}

std::string StatsAggregator::RenderTable() const {
  std::ostringstream out;
  out << "busstat fleet view: " << nodes_.size() << " node(s), " << samples_
      << " sample(s), " << desyncs() << " desync(s)\n";
  for (const auto& [name, state] : nodes_) {
    if (state.ring_seen == 0) {
      continue;
    }
    const DecodedSample& s = state.decoder.latest();
    out << "node " << name << " seq=" << s.seq << " at=" << s.at_us << "us"
        << " sample_period=" << s.sample_period << "\n";
  }
  out << "fleet publish_bytes=" << FleetValue(kMetricPublishBytes)
      << " self_bytes=" << FleetValue(kMetricSelfBytes) << " overhead=";
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.4f", OverheadRatio());
  out << ratio << "\n";
  out << "top subjects:\n" << MergedSubjectSketch().RenderTable();
  out << "top peers:\n" << MergedPeerSketch().RenderTable();
  return out.str();
}

uint64_t StatsAggregator::Hash() const { return Fnv1a(RenderJson()); }

}  // namespace ibus::telemetry
