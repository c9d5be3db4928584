#include "core/map_stores.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace ftmr::core {

Status MapStores::open(int p, const Make& make, mr::SpillableKvBuffer*& out) {
  if (auto s = unpark(p, make); !s.ok()) return s;
  auto it = resident_.find(p);
  if (it == resident_.end()) it = resident_.emplace(p, make(p)).first;
  out = &it->second;
  return Status::Ok();
}

Status MapStores::find(int p, const Make& make, mr::SpillableKvBuffer*& out) {
  out = nullptr;
  if (auto s = unpark(p, make); !s.ok()) return s;
  if (const auto it = resident_.find(p); it != resident_.end()) out = &it->second;
  return Status::Ok();
}

Status MapStores::all(const Make& make, std::map<int, mr::SpillableKvBuffer>*& out) {
  while (!parked_.empty()) {
    if (auto s = unpark(parked_.begin()->first, make); !s.ok()) return s;
  }
  out = &resident_;
  return Status::Ok();
}

void MapStores::park(storage::SegmentStore& segments, mr::ResidencyMeter* meter) {
  std::vector<std::span<const std::byte>> images;
  std::vector<int> parts;
  for (const auto& [p, store] : resident_) {
    const mr::KvBuffer* whole = store.in_core();
    if (whole == nullptr || whole->empty()) continue;  // paged, or empty
    images.push_back(whole->wire_view());
    parts.push_back(p);
  }
  storage::SegmentStore::Extent run;
  if (!images.empty() && segments.stash(images, run).ok()) {
    segments_ = &segments;
    uint64_t at = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      const uint64_t len = images[i].size();
      const auto it = resident_.find(parts[i]);
      const size_t bytes = it->second.resident_bytes();
      resident_.erase(it);  // unbooked before the parked image books
      parked_.try_emplace(parts[i], run, at, len, mr::MeterBooking(meter))
          .first->second.booking.set(bytes);
      at += len;
    }
  }
  shrink_to_fit();
}

void MapStores::shrink_to_fit() {
  for (auto& [p, store] : resident_) store.shrink_to_fit();
}

Status MapStores::unpark(int p, const Make& make) {
  const auto it = parked_.find(p);
  if (it == parked_.end()) return Status::Ok();
  Bytes wire(it->second.len);
  if (auto s = segments_->load(it->second.run, it->second.at, wire); !s.ok()) {
    return s;
  }
  mr::KvBuffer kv;
  if (auto s = kv.adopt(std::move(wire)); !s.ok()) return s;
  parked_.erase(it);
  mr::SpillableKvBuffer* store = nullptr;
  if (auto s = open(p, make, store); !s.ok()) return s;
  return store->absorb_kv(std::move(kv));
}

Status MapStores::whole_blocks(bool release, const Emit& emit) {
  // Each run the parked stores share, read once: bytes [lo, hi) of it
  // cover every image still parked there.
  struct Loaded {
    const storage::SegmentStore::Extent* run = nullptr;
    uint64_t lo = std::numeric_limits<uint64_t>::max();
    uint64_t hi = 0;
    std::shared_ptr<const Bytes> bytes;
  };
  std::map<const void*, Loaded> runs;
  for (const auto& [p, k] : parked_) {
    Loaded& l = runs[k.run.run.get()];
    l.run = &k.run;
    l.lo = std::min(l.lo, k.at);
    l.hi = std::max(l.hi, k.at + k.len);
  }
  for (auto& [id, l] : runs) {
    auto bytes = std::make_shared<Bytes>(l.hi - l.lo);
    if (auto s = segments_->load(*l.run, l.lo, *bytes); !s.ok()) return s;
    l.bytes = std::move(bytes);
  }
  // Parked and resident stores, merged in partition order.
  auto r = resident_.begin();
  auto k = parked_.begin();
  while (r != resident_.end() || k != parked_.end()) {
    Status s;
    if (r == resident_.end() || (k != parked_.end() && k->first < r->first)) {
      const Loaded& l = runs[k->second.run.run.get()];
      const std::span<const std::byte> image(l.bytes->data() + (k->second.at - l.lo),
                                             k->second.len);
      s = emit({k->first, image, l.bytes});
      ++k;
    } else if (r->second.empty()) {
      ++r;
    } else if (!release) {
      s = emit({r->first, r->second.in_core()});  // unbounded: never paged
      ++r;
    } else {
      const int p = r->first;
      mr::KvBuffer kv;
      if (s = r->second.drain_to(kv); !s.ok()) return s;
      r = resident_.erase(r);
      s = emit({p, std::move(kv).take_wire()});
    }
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

double MapStores::take_io_seconds(double io) {
  for (auto& [p, store] : resident_) io += store.take_io_seconds();
  return io;
}

}  // namespace ftmr::core
