#include "storage/replica.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace ftmr::storage {

Status ReplicaStore::put(int holder, std::string_view path,
                         std::span<const std::byte> data, double* sim_cost) {
  Extent blob;  // released after put() has let go of the mutex
  if (auto s = segments_.stash(data, blob); !s.ok()) return s;
  return put(holder, path, blob, sim_cost);
}

Status ReplicaStore::put(int holder, std::string_view path, const Extent& blob,
                         double* sim_cost) {
  Extent previous;  // the holder's previous copy
  Dropped dropped;
  MutexLock lock(mu_);
  dropped.swap(released_);
  if (dead_.contains(holder)) {
    return {ErrorCode::kProcFailed,
            "replica target rank " + std::to_string(holder) + " is dead"};
  }
  size_t prefix = 0;
  if (auto s = injector_.write_fault(faults_, path, blob.len, &prefix); !s.ok()) {
    return s;
  }
  auto pit = held_.find(path);
  if (pit == held_.end()) pit = held_.emplace(std::string(path), Holders{}).first;
  by_holder_[holder].insert(pit->first);
  // A torn put keeps a strict prefix of the run, for this holder only.
  previous = std::exchange(pit->second[holder], Extent{blob.run, prefix});
  stats_.bytes_written += prefix;
  stats_.write_ops++;
  if (sim_cost) *sim_cost = model_.cost(prefix, 1);
  return Status::Ok();
}

Status ReplicaStore::lookup(int holder, std::string_view path, Extent& out,
                            std::optional<FaultInjector::BitFlip>& flip,
                            double* sim_cost) {
  out = {};  // released before the mutex is taken
  Dropped dropped;
  MutexLock lock(mu_);
  dropped.swap(released_);
  bool corrupt = false;
  if (auto s = injector_.read_fault(faults_, path, &corrupt); !s.ok()) return s;
  const Extent* blob = find_locked(holder, path);
  if (blob == nullptr) {
    return {ErrorCode::kNotFound, "no replica of " + std::string(path) +
                                      " on rank " + std::to_string(holder)};
  }
  out = *blob;
  if (corrupt && out.len > 0) flip = injector_.draw_flip(out.len);
  stats_.bytes_read += out.len;
  stats_.read_ops++;
  if (sim_cost) *sim_cost = model_.cost(out.len, 1);
  return Status::Ok();
}

Status ReplicaStore::get(int holder, std::string_view path, Bytes& out,
                         double* sim_cost) {
  Extent blob;
  std::optional<FaultInjector::BitFlip> flip;
  if (auto s = lookup(holder, path, blob, flip, sim_cost); !s.ok()) return s;
  if (auto s = segments_.load(blob, out); !s.ok()) return s;
  if (flip) flip->apply(out);  // the stored blob stays pristine
  return Status::Ok();
}

Status ReplicaStore::get(int holder, std::string_view path, Extent& out,
                         double* sim_cost) {
  std::optional<FaultInjector::BitFlip> flip;
  if (auto s = lookup(holder, path, out, flip, sim_cost); !s.ok()) return s;
  if (!flip) return Status::Ok();
  Bytes flipped;
  if (auto s = segments_.load(out, flipped); !s.ok()) return s;
  flip->apply(flipped);
  return segments_.stash(flipped, out);
}

const ReplicaStore::Extent* ReplicaStore::find_locked(int holder,
                                                      std::string_view path) const {
  auto pit = held_.find(path);
  if (pit == held_.end()) return nullptr;
  auto hit = pit->second.find(holder);
  return hit == pit->second.end() ? nullptr : &hit->second;
}

void ReplicaStore::remove(int holder, std::string_view path) {
  Extent removed;
  Dropped dropped;
  MutexLock lock(mu_);
  dropped.swap(released_);
  auto pit = held_.find(path);
  if (pit == held_.end()) return;
  auto hit = pit->second.find(holder);
  if (hit == pit->second.end()) return;
  removed = std::move(hit->second);
  pit->second.erase(hit);
  const auto mine = by_holder_.find(holder);
  mine->second.erase(path);
  if (mine->second.empty()) by_holder_.erase(mine);
  if (pit->second.empty()) held_.erase(pit);
}

bool ReplicaStore::exists(int holder, std::string_view path) const {
  MutexLock lock(mu_);
  return find_locked(holder, path) != nullptr;
}

std::vector<int> ReplicaStore::holders_of(std::string_view path) const {
  MutexLock lock(mu_);
  std::vector<int> out;
  auto pit = held_.find(path);
  if (pit == held_.end()) return out;
  out.reserve(pit->second.size());
  for (const auto& [rank, blob] : pit->second) out.push_back(rank);
  return out;  // map iteration order is already ascending
}

std::vector<std::string> ReplicaStore::all_paths() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(held_.size());
  for (const auto& [path, holders] : held_) out.push_back(path);
  return out;  // keys are sorted and every entry has a holder
}

std::vector<std::string> ReplicaStore::paths_held_by(int holder) const {
  MutexLock lock(mu_);
  const auto it = by_holder_.find(holder);
  if (it == by_holder_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

bool ReplicaStore::is_dead(int rank) const {
  MutexLock lock(mu_);
  return dead_.contains(rank);
}

void ReplicaStore::wipe_rank(int rank) {
  MutexLock lock(mu_);
  if (auto node = by_holder_.extract(rank)) {
    for (std::string_view path : node.mapped()) {
      const auto pit = held_.find(path);
      const auto hit = pit->second.find(rank);
      released_.push_back(std::move(hit->second));
      pit->second.erase(hit);
      if (pit->second.empty()) held_.erase(pit);
    }
  }
  dead_.insert(rank);
}

void ReplicaStore::wipe_all() {
  decltype(held_) held;
  Dropped dropped;
  MutexLock lock(mu_);
  by_holder_.clear();
  held.swap(held_);
  dropped.swap(released_);
  dead_.clear();
}

TierStats ReplicaStore::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ReplicaStore::set_fault_injector(uint64_t seed, TierFaults faults,
                                      std::string path_filter) {
  MutexLock lock(mu_);
  faults_ = faults;
  injector_.arm(seed, std::move(path_filter));
}

void ReplicaStore::clear_fault_injector() {
  MutexLock lock(mu_);
  injector_.disarm();
}

FaultStats ReplicaStore::fault_stats() const {
  MutexLock lock(mu_);
  return injector_.stats();
}

std::vector<int> replica_placement(int owner, int k, const std::vector<int>& live,
                                   int ppn, uint64_t seed) {
  std::vector<int> out;
  if (k <= 0 || ppn <= 0) return out;
  const int owner_node = owner / ppn;
  std::vector<int> eligible;
  eligible.reserve(live.size());
  for (int r : live) {
    if (r != owner && r / ppn != owner_node) eligible.push_back(r);
  }
  // `live` arrives sorted; keep eligible sorted too so the rotation start
  // is the only seed-dependent choice and placement is fully deterministic.
  std::sort(eligible.begin(), eligible.end());
  if (eligible.empty()) return out;
  const size_t start = static_cast<size_t>(
      mix64(static_cast<uint64_t>(owner) * 0x9e3779b97f4a7c15ULL ^ seed) %
      eligible.size());
  const size_t take = std::min<size_t>(static_cast<size_t>(k), eligible.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(eligible[(start + i) % eligible.size()]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ftmr::storage
