#include "storage/replica.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace ftmr::storage {

Status ReplicaStore::put(int holder, std::string_view path,
                         std::span<const std::byte> data, double* sim_cost) {
  return put(holder, path, std::make_shared<const Bytes>(data.begin(), data.end()),
             sim_cost);
}

Status ReplicaStore::put(int holder, std::string_view path,
                         std::shared_ptr<const Bytes> blob, double* sim_cost) {
  MutexLock lock(mu_);
  if (dead_.contains(holder)) {
    return {ErrorCode::kProcFailed,
            "replica target rank " + std::to_string(holder) + " is dead"};
  }
  size_t prefix = 0;
  if (auto s = injector_.write_fault(faults_, path, blob->size(), &prefix); !s.ok()) {
    return s;
  }
  if (prefix < blob->size()) {  // torn: this holder keeps a private prefix
    const auto end = blob->begin() + static_cast<ptrdiff_t>(prefix);
    blob = std::make_shared<const Bytes>(blob->begin(), end);
  }
  const size_t n = blob->size();
  auto pit = held_.find(path);
  if (pit == held_.end()) pit = held_.emplace(std::string(path), Holders{}).first;
  pit->second[holder] = std::move(blob);
  stats_.bytes_written += n;
  stats_.write_ops++;
  if (sim_cost) *sim_cost = model_.cost(n, 1);
  return Status::Ok();
}

Status ReplicaStore::get(int holder, std::string_view path, Bytes& out,
                         double* sim_cost) {
  std::shared_ptr<const Bytes> blob;
  if (auto s = get(holder, path, blob, sim_cost); !s.ok()) return s;
  out = *blob;
  return Status::Ok();
}

Status ReplicaStore::get(int holder, std::string_view path,
                         std::shared_ptr<const Bytes>& out, double* sim_cost) {
  MutexLock lock(mu_);
  bool corrupt = false;
  if (auto s = injector_.read_fault(faults_, path, &corrupt); !s.ok()) return s;
  const std::shared_ptr<const Bytes>* blob = find_locked(holder, path);
  if (blob == nullptr) {
    return {ErrorCode::kNotFound, "no replica of " + std::string(path) +
                                      " on rank " + std::to_string(holder)};
  }
  out = *blob;
  if (corrupt && !out->empty()) {  // the stored blob stays pristine
    Bytes flipped = *out;
    injector_.flip_bit(flipped);
    out = std::make_shared<const Bytes>(std::move(flipped));
  }
  stats_.bytes_read += out->size();
  stats_.read_ops++;
  if (sim_cost) *sim_cost = model_.cost(out->size(), 1);
  return Status::Ok();
}

const std::shared_ptr<const Bytes>* ReplicaStore::find_locked(
    int holder, std::string_view path) const {
  auto pit = held_.find(path);
  if (pit == held_.end()) return nullptr;
  auto hit = pit->second.find(holder);
  return hit == pit->second.end() ? nullptr : &hit->second;
}

void ReplicaStore::remove(int holder, std::string_view path) {
  MutexLock lock(mu_);
  auto pit = held_.find(path);
  if (pit == held_.end()) return;
  pit->second.erase(holder);
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
  std::vector<std::string> out;
  for (const auto& [path, holders] : held_) {
    if (holders.contains(holder)) out.push_back(path);
  }
  return out;
}

bool ReplicaStore::is_dead(int rank) const {
  MutexLock lock(mu_);
  return dead_.contains(rank);
}

void ReplicaStore::wipe_rank(int rank) {
  MutexLock lock(mu_);
  for (auto pit = held_.begin(); pit != held_.end();) {
    pit->second.erase(rank);
    pit = pit->second.empty() ? held_.erase(pit) : std::next(pit);
  }
  dead_.insert(rank);
}

void ReplicaStore::wipe_all() {
  MutexLock lock(mu_);
  held_.clear();
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
