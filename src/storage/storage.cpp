#include <unistd.h>
#include "storage/storage.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <system_error>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "storage/replica.hpp"

namespace ftmr::storage {

namespace fs = std::filesystem;

StorageSystem::StorageSystem(StorageOptions opts)
    : opts_(std::move(opts)),
      memory_(std::make_unique<ReplicaStore>(opts_.memory)) {
  std::error_code ec;
  fs::create_directories(opts_.root / "shared", ec);
  if (opts_.has_local_disk) fs::create_directories(opts_.root / "local", ec);
}

StorageSystem::~StorageSystem() = default;

fs::path StorageSystem::real_path(Tier tier, int node, std::string_view path) const {
  if (tier == Tier::kShared) return opts_.root / "shared" / fs::path(path);
  return opts_.root / "local" / ("node" + std::to_string(node)) / fs::path(path);
}

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

void FaultInjector::flip_bit(Bytes& buf) {
  if (buf.empty()) return;
  const size_t byte_idx = rng_.next_below(buf.size());
  const int bit = static_cast<int>(rng_.next_below(8));
  buf[byte_idx] ^= static_cast<std::byte>(1u << bit);
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

Status StorageSystem::write_body(Tier tier, int node, std::string_view path,
                                 std::span<const std::byte> data,
                                 double* sim_cost, int concurrency,
                                 bool append) {
  const char* op = append ? "append" : "write";
  if (auto s = check_tier(tier); !s.ok()) return s;
  size_t prefix = 0;
  {
    MutexLock lock(stats_mu_);
    Status s = injector_.write_fault(faults_of(tier), path, data.size(), &prefix);
    if (!s.ok()) return s;
  }
  data = data.first(prefix);
  const fs::path p = real_path(tier, node, path);
  std::error_code ec;
  fs::create_directories(p.parent_path(), ec);
  std::ofstream f(p, std::ios::binary |
                         (append ? std::ios::app : std::ios::trunc));
  if (!f) {
    return {ErrorCode::kIo, std::string(op) + "_file: cannot open " + p.string()};
  }
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) {
    return {ErrorCode::kIo, std::string(op) + "_file: short write to " + p.string()};
  }
  if (sim_cost) *sim_cost = cost_of(tier, data.size(), 1, concurrency);
  {
    MutexLock lock(stats_mu_);
    TierStats& st = (tier == Tier::kLocal) ? local_stats_ : shared_stats_;
    st.bytes_written += data.size();
    st.write_ops++;
  }
  return Status::Ok();
}

Status StorageSystem::read_file(Tier tier, int node, std::string_view path,
                                Bytes& out, double* sim_cost, int concurrency) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  bool corrupt = false;
  {
    MutexLock lock(stats_mu_);
    Status s = injector_.read_fault(faults_of(tier), path, &corrupt);
    if (!s.ok()) return s;
  }
  const fs::path p = real_path(tier, node, path);
  std::ifstream f(p, std::ios::binary | std::ios::ate);
  if (!f) return {ErrorCode::kNotFound, "read_file: no such file " + p.string()};
  const auto size = f.tellg();
  f.seekg(0);
  out.resize(static_cast<size_t>(size));
  f.read(reinterpret_cast<char*>(out.data()), size);
  if (!f) return {ErrorCode::kIo, "read_file: short read from " + p.string()};
  if (sim_cost) *sim_cost = cost_of(tier, out.size(), 1, concurrency);
  {
    MutexLock lock(stats_mu_);
    if (corrupt) injector_.flip_bit(out);
    TierStats& st = (tier == Tier::kLocal) ? local_stats_ : shared_stats_;
    st.bytes_read += out.size();
    st.read_ops++;
  }
  return Status::Ok();
}

bool StorageSystem::exists(Tier tier, int node, std::string_view path) const {
  if (!check_tier(tier).ok()) return false;
  std::error_code ec;
  return fs::exists(real_path(tier, node, path), ec);
}

int64_t StorageSystem::file_size(Tier tier, int node, std::string_view path) const {
  if (!check_tier(tier).ok()) return -1;
  std::error_code ec;
  const auto sz = fs::file_size(real_path(tier, node, path), ec);
  return ec ? -1 : static_cast<int64_t>(sz);
}

Status StorageSystem::remove(Tier tier, int node, std::string_view path) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  std::error_code ec;
  fs::remove_all(real_path(tier, node, path), ec);
  return ec ? Status{ErrorCode::kIo, "remove failed: " + ec.message()} : Status::Ok();
}

Status StorageSystem::list_dir(Tier tier, int node, std::string_view dir,
                               std::vector<std::string>& names) const {
  names.clear();
  if (auto s = check_tier(tier); !s.ok()) return s;
  const fs::path base = real_path(tier, node, dir);
  std::error_code ec;
  if (!fs::exists(base, ec)) return Status::Ok();  // empty dir == no entries
  for (auto it = fs::recursive_directory_iterator(base, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      names.push_back(fs::relative(it->path(), base, ec).generic_string());
    }
  }
  std::sort(names.begin(), names.end());
  return Status::Ok();
}

Status StorageSystem::copy(Tier src_tier, int src_node, std::string_view src_path,
                           Tier dst_tier, int dst_node, std::string_view dst_path,
                           double* sim_cost, int concurrency) {
  Bytes data;
  double read_cost = 0.0, write_cost = 0.0;
  if (auto s = read_file(src_tier, src_node, src_path, data, &read_cost, concurrency);
      !s.ok()) {
    return s;
  }
  if (auto s = write_file(dst_tier, dst_node, dst_path, data, &write_cost, concurrency);
      !s.ok()) {
    return s;
  }
  if (sim_cost) *sim_cost = read_cost + write_cost;
  return Status::Ok();
}

void StorageSystem::wipe_node_local(int node) {
  if (!opts_.has_local_disk) return;
  std::error_code ec;
  fs::remove_all(opts_.root / "local" / ("node" + std::to_string(node)), ec);
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
