#include "storage/storage.hpp"

#include <unistd.h>

#include <atomic>
#include <system_error>

#include "common/hash.hpp"
#include "storage/replica.hpp"
#include "storage/segment_store.hpp"

namespace ftmr::storage {

namespace fs = std::filesystem;

StorageSystem::StorageSystem(StorageOptions opts)
    : opts_(std::move(opts)),
      store_(std::make_unique<SegmentStore>(opts_.root)),
      memory_(std::make_unique<ReplicaStore>(opts_.memory, *store_)) {}

StorageSystem::~StorageSystem() = default;

void FaultInjector::arm(uint64_t seed, std::string path_filter) {
  rng_ = Rng(seed);
  path_filter_ = std::move(path_filter);
  armed_ = true;
}

void FaultInjector::fail_next(int count, Status error) {
  fail_next_ = count;
  fail_error_ = std::move(error);
}

Status FaultInjector::take_counted() {
  if (fail_next_ <= 0) return Status::Ok();
  --fail_next_;
  stats_.count_failures++;
  return fail_error_;
}

FaultInjector::Draw FaultInjector::draw(std::string_view path, double p_fail,
                                        double p_silent) {
  if (!armed_) return Draw::kNone;
  if (!path_filter_.empty() && path.find(path_filter_) == std::string_view::npos) {
    return Draw::kNone;
  }
  if (p_fail > 0.0 && rng_.next_double() < p_fail) return Draw::kFail;
  if (p_silent > 0.0 && rng_.next_double() < p_silent) return Draw::kSilent;
  return Draw::kNone;
}

Status FaultInjector::write_fault(const TierFaults& f, std::string_view path,
                                  size_t size, size_t* prefix) {
  *prefix = size;
  if (auto s = take_counted(); !s.ok()) return s;
  const Draw d = draw(path, f.p_write_fail, f.p_torn_write);
  if (d == Draw::kFail) {
    stats_.write_failures++;
    return {ErrorCode::kIo, "injected write failure: " + std::string(path)};
  }
  if (d == Draw::kSilent) {
    stats_.torn_writes++;
    *prefix = rng_.next_below(size);
  }
  return Status::Ok();
}

Status FaultInjector::read_fault(const TierFaults& f, std::string_view path,
                                 bool* corrupt) {
  *corrupt = false;
  if (auto s = take_counted(); !s.ok()) return s;
  const Draw d = draw(path, f.p_read_fail, f.p_corrupt_read);
  if (d == Draw::kFail) {
    stats_.read_failures++;
    return {ErrorCode::kIo, "injected read failure: " + std::string(path)};
  }
  if (d == Draw::kSilent) {
    stats_.corrupt_reads++;
    *corrupt = true;
  }
  return Status::Ok();
}

FaultInjector::BitFlip FaultInjector::draw_flip(size_t size) {
  BitFlip f;
  f.byte = rng_.next_below(size);
  f.bit = static_cast<int>(rng_.next_below(8));
  return f;
}

void FaultInjector::flip_bit(Bytes& buf) {
  if (!buf.empty()) draw_flip(buf.size()).apply(buf);
}

void StorageSystem::inject_io_failures(int count, Status error) {
  MutexLock lock(stats_mu_);
  injector_.fail_next(count, std::move(error));
}

void StorageSystem::set_fault_injector(FaultInjectorConfig cfg) {
  // The memory tier draws from its own derived-seed stream so arming it
  // does not perturb the file tiers' (seed-reproducible) fault sequences.
  memory_->set_fault_injector(mix64(cfg.seed ^ 0x6d656d6f7279ULL), cfg.memory,
                              cfg.path_filter);
  MutexLock lock(stats_mu_);
  local_faults_ = cfg.local;
  shared_faults_ = cfg.shared;
  injector_.arm(cfg.seed, std::move(cfg.path_filter));
}

void StorageSystem::clear_fault_injector() {
  memory_->clear_fault_injector();
  MutexLock lock(stats_mu_);
  injector_.disarm();
}

FaultStats StorageSystem::fault_stats() const {
  FaultStats total = memory_->fault_stats();
  MutexLock lock(stats_mu_);
  total += injector_.stats();
  return total;
}

Status StorageSystem::check_tier(Tier tier) const {
  if (tier == Tier::kMemory) {
    // Not a file-backed tier: replicas live in ReplicaStore (memory()).
    return {ErrorCode::kInvalidArgument,
            "memory tier is not file-backed; use StorageSystem::memory()"};
  }
  if (tier == Tier::kLocal && !opts_.has_local_disk) {
    // A configuration error, not a transient fault: retry layers must not
    // spin on it and best-effort checkpointing must surface it.
    return {ErrorCode::kFailedPrecondition, "no node-local disk on this cluster"};
  }
  return Status::Ok();
}

double StorageSystem::cost_of(Tier tier, size_t bytes, int ops,
                              int concurrency) const noexcept {
  const TierModel& m = (tier == Tier::kLocal)    ? opts_.local
                       : (tier == Tier::kShared) ? opts_.shared
                                                 : opts_.memory;
  return m.cost(bytes, ops, concurrency);
}

Status StorageSystem::write_file(Tier tier, int node, std::string_view path,
                                 std::span<const std::byte> data, double* sim_cost,
                                 int concurrency) {
  return write_body(tier, node, path, data, sim_cost, concurrency,
                    /*append=*/false);
}

Status StorageSystem::append_file(Tier tier, int node, std::string_view path,
                                  std::span<const std::byte> data, double* sim_cost,
                                  int concurrency) {
  return write_body(tier, node, path, data, sim_cost, concurrency,
                    /*append=*/true);
}

Status StorageSystem::decide_read(Tier tier, std::string_view path, bool* corrupt) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  MutexLock lock(stats_mu_);
  return injector_.read_fault(faults_of(tier), path, corrupt);
}

Status StorageSystem::decide_write(Tier tier, std::string_view path, size_t size,
                                   size_t* prefix) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  MutexLock lock(stats_mu_);
  return injector_.write_fault(faults_of(tier), path, size, prefix);
}

void StorageSystem::book_read(Tier tier, size_t bytes, Bytes* data, bool corrupt) {
  MutexLock lock(stats_mu_);
  if (corrupt) injector_.flip_bit(*data);
  TierStats& st = stats_of(tier);
  st.bytes_read += bytes;
  st.read_ops++;
}

void StorageSystem::book_write(Tier tier, size_t bytes) {
  MutexLock lock(stats_mu_);
  TierStats& st = stats_of(tier);
  st.bytes_written += bytes;
  st.write_ops++;
}

Status StorageSystem::write_body(Tier tier, int node, std::string_view path,
                                 std::span<const std::byte> data,
                                 double* sim_cost, int concurrency,
                                 bool append) {
  size_t prefix = 0;
  if (auto s = decide_write(tier, path, data.size(), &prefix); !s.ok()) return s;
  data = data.first(prefix);
  if (auto s = store_->write(tier, node, path, data, append); !s.ok()) return s;
  if (sim_cost) *sim_cost = cost_of(tier, data.size(), 1, concurrency);
  book_write(tier, data.size());
  return Status::Ok();
}

Status StorageSystem::read_file(Tier tier, int node, std::string_view path,
                                Bytes& out, double* sim_cost, int concurrency) {
  bool corrupt = false;
  if (auto s = decide_read(tier, path, &corrupt); !s.ok()) return s;
  if (auto s = store_->read(tier, node, path, out); !s.ok()) return s;
  if (sim_cost) *sim_cost = cost_of(tier, out.size(), 1, concurrency);
  book_read(tier, out.size(), &out, corrupt);
  return Status::Ok();
}

bool StorageSystem::exists(Tier tier, int node, std::string_view path) const {
  return check_tier(tier).ok() && store_->exists(tier, node, path);
}

int64_t StorageSystem::file_size(Tier tier, int node, std::string_view path) const {
  return check_tier(tier).ok() ? store_->size(tier, node, path) : -1;
}

Status StorageSystem::remove(Tier tier, int node, std::string_view path) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  store_->remove(tier, node, path);
  return Status::Ok();
}

Status StorageSystem::list_dir(Tier tier, int node, std::string_view dir,
                               std::vector<std::string>& names) const {
  names.clear();
  if (auto s = check_tier(tier); !s.ok()) return s;
  store_->list(tier, node, dir, names);
  return Status::Ok();
}

Status StorageSystem::copy(Tier src_tier, int src_node, std::string_view src_path,
                           Tier dst_tier, int dst_node, std::string_view dst_path,
                           double* sim_cost, int concurrency) {
  // read_file(src)'s decision, cost and booking; the bytes are loaded only
  // when a corrupt read makes the destination differ from the source.
  bool corrupt = false;
  if (auto s = decide_read(src_tier, src_path, &corrupt); !s.ok()) return s;
  Bytes data;
  size_t size = 0;
  if (corrupt) {
    if (auto s = store_->read(src_tier, src_node, src_path, data); !s.ok()) return s;
    size = data.size();
  } else {
    const int64_t n = store_->size(src_tier, src_node, src_path);
    if (n < 0) {
      return {ErrorCode::kNotFound, "read_file: no such file " + std::string(src_path)};
    }
    size = static_cast<size_t>(n);
  }
  const double read_cost = cost_of(src_tier, size, 1, concurrency);
  book_read(src_tier, size, &data, corrupt);

  // write_file(dst)'s decision, cost and booking. A corrupt read's flipped
  // bytes are written; otherwise the destination shares the source's
  // extents, cut to the persisted prefix.
  size_t prefix = 0;
  if (auto s = decide_write(dst_tier, dst_path, size, &prefix); !s.ok()) return s;
  const Status written =
      corrupt ? store_->write(dst_tier, dst_node, dst_path,
                              std::span<const std::byte>(data).first(prefix),
                              /*append=*/false)
              : store_->copy(src_tier, src_node, src_path, dst_tier, dst_node, dst_path,
                             prefix);
  if (!written.ok()) return written;
  if (sim_cost) *sim_cost = read_cost + cost_of(dst_tier, prefix, 1, concurrency);
  book_write(dst_tier, prefix);
  return Status::Ok();
}

void StorageSystem::wipe_node_local(int node) {
  if (!opts_.has_local_disk) return;
  store_->wipe(Tier::kLocal, node);
}

TierStats StorageSystem::stats(Tier tier) const {
  if (tier == Tier::kMemory) return memory_->stats();
  MutexLock lock(stats_mu_);
  return tier == Tier::kLocal ? local_stats_ : shared_stats_;
}

namespace {
std::atomic<uint64_t> g_tempdir_seq{0};
}

TempDir::TempDir(std::string_view prefix) {
  const uint64_t n =
      g_tempdir_seq.fetch_add(1) ^ static_cast<uint64_t>(::getpid()) << 32;
  path_ = fs::temp_directory_path() /
          (std::string(prefix) + "-" + std::to_string(n));
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace ftmr::storage
