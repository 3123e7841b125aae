#include "src/telemetry/sketch.h"

#include <algorithm>
#include <sstream>

#include "src/common/hash.h"
#include "src/wire/wire.h"

namespace ibus::telemetry {

namespace {

// Ranking used by Entries(): hottest first, ties by key so output is stable.
bool RankBefore(const TopKSketch::Entry& a, const TopKSketch::Entry& b) {
  if (a.count != b.count) {
    return a.count > b.count;
  }
  return a.key < b.key;
}

}  // namespace

TopKSketch::TopKSketch(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  slots_.reserve(capacity_);
}

void TopKSketch::Offer(std::string_view key, uint64_t weight) {  // hotlint: hot
  offered_ += weight;
  // Linear probe: capacity is a small constant, so this beats any hash map both in
  // cycles and in allocation behavior. Track the eviction victim in the same pass.
  Entry* victim = nullptr;
  for (Entry& e : slots_) {
    if (e.key == key) {
      e.count += weight;
      return;
    }
    if (victim == nullptr || e.count < victim->count ||
        (e.count == victim->count && e.key > victim->key)) {
      victim = &e;
    }
  }
  if (slots_.size() < capacity_) {
    // Fill phase only: after `capacity_` distinct keys the vector never grows again
    // (storage was reserved up front, so not even the fill phase reallocates).
    Entry e;
    e.key.assign(key.data(), key.size());
    e.count = weight;
    slots_.push_back(std::move(e));  // hotlint: allow(hot-container-growth) -- bounded fill phase into reserved storage; steady state never grows
    return;
  }
  // Space-saving eviction: the newcomer inherits the victim's count as its error
  // bound. assign() reuses the victim's string capacity, so no allocation once
  // keys of this length have been seen.
  victim->error = victim->count;
  victim->count += weight;
  victim->key.assign(key.data(), key.size());  // hotlint: allow(hot-string) -- reuses the evicted slot's capacity; no steady-state allocation
}

void TopKSketch::Merge(const TopKSketch& other) {
  offered_ += other.offered_;
  // Union by key, summing counts and error bounds, then keep the top capacity_.
  // Merges happen on the aggregation path (periodic, not per-message), so the
  // temporary union vector is fine here.
  std::vector<Entry> merged = slots_;
  for (const Entry& oe : other.slots_) {
    bool found = false;
    for (Entry& e : merged) {
      if (e.key == oe.key) {
        e.count += oe.count;
        e.error += oe.error;
        found = true;
        break;
      }
    }
    if (!found) {
      merged.push_back(oe);
    }
  }
  std::sort(merged.begin(), merged.end(), RankBefore);
  if (merged.size() > capacity_) {
    merged.resize(capacity_);
  }
  slots_ = std::move(merged);
}

std::vector<TopKSketch::Entry> TopKSketch::Entries() const {
  std::vector<Entry> out = slots_;
  std::sort(out.begin(), out.end(), RankBefore);
  return out;
}

std::string TopKSketch::RenderTable() const {
  std::ostringstream out;
  out << "topk capacity=" << capacity_ << " tracked=" << slots_.size()
      << " offered=" << offered_ << "\n";
  for (const Entry& e : Entries()) {
    out << "  " << e.key << " " << e.count;
    if (e.error > 0) {
      out << " (±" << e.error << ")";
    }
    out << "\n";
  }
  return out.str();
}

uint64_t TopKSketch::Hash() const {
  return Fnv1a(RenderTable());
}

// wirecheck: codec(topk_sketch, version=0)
void TopKSketch::Encode(WireWriter* w) const {
  w->PutVarint(capacity_);
  w->PutVarint(offered_);
  std::vector<Entry> ranked = Entries();
  w->PutVarint(ranked.size());
  for (const Entry& e : ranked) {
    w->PutString(e.key);
    w->PutVarint(e.count);
    w->PutVarint(e.error);
  }
}

// wirecheck: codec(topk_sketch, version=0)
Result<TopKSketch> TopKSketch::Decode(WireReader* r, size_t max_capacity) {
  Result<uint64_t> capacity = r->ReadVarint();
  if (!capacity.ok()) {
    return capacity.status();
  }
  if (*capacity == 0 || *capacity > max_capacity) {
    return DataLoss("sketch: capacity out of range");
  }
  TopKSketch s(static_cast<size_t>(*capacity));
  Result<uint64_t> offered = r->ReadVarint();
  if (!offered.ok()) {
    return offered.status();
  }
  s.offered_ = *offered;
  Result<uint64_t> n = r->ReadVarint();
  if (!n.ok()) {
    return n.status();
  }
  if (*n > *capacity) {
    return DataLoss("sketch: entry count exceeds capacity");
  }
  for (uint64_t i = 0; i < *n; i++) {
    Result<std::string> key = r->ReadString();
    if (!key.ok()) {
      return key.status();
    }
    Result<uint64_t> count = r->ReadVarint();
    if (!count.ok()) {
      return count.status();
    }
    Result<uint64_t> error = r->ReadVarint();
    if (!error.ok()) {
      return error.status();
    }
    Entry e;
    e.key = key.take();
    e.count = *count;
    e.error = *error;
    s.slots_.push_back(std::move(e));
  }
  return s;
}

}  // namespace ibus::telemetry
