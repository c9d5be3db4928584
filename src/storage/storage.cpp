#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include "storage/storage.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <system_error>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "storage/replica.hpp"

namespace ftmr::storage {

namespace fs = std::filesystem;

namespace {

// Host files are immutable once written: a truncating write replaces its
// path with a new file, and an append first gives a file whose bytes
// another name shares a private copy. So copy() can share bytes across
// tiers through hard links, and remove() and wipe_node_local() only drop
// names.

/// Run `op`, a syscall that creates `p`; if it fails for want of a parent
/// directory, create the directories and run it once more.
template <typename Op>
int creating_parents(const fs::path& p, Op&& op) {
  int rc = op();
  if (rc < 0 && errno == ENOENT) {
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
    rc = op();
  }
  return rc;
}

/// The one host read: the whole file at `p` into `out`.
Status load(const fs::path& p, Bytes& out) {
  const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {ErrorCode::kNotFound, "read_file: no such file " + p.string()};
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out.resize(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < out.size()) {
      const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    ok = got == out.size();
  }
  ::close(fd);
  if (!ok) return {ErrorCode::kIo, "read_file: short read from " + p.string()};
  return Status::Ok();
}

/// The `len` bytes at `offset` of the file at `p` into `out`.
Status load_range(const fs::path& p, uint64_t offset, size_t len, Bytes& out) {
  const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {ErrorCode::kNotFound, "read_range: no such file " + p.string()};
  out.resize(len);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, out.data() + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != len) {
    out.clear();
    return {ErrorCode::kIo, "read_range: range past the end of " + p.string()};
  }
  return Status::Ok();
}

/// The one host write: `data` as the new file at `p`, or appended to it.
Status persist(const fs::path& p, std::span<const std::byte> data, bool append) {
  const char* op = append ? "append" : "write";
  if (append) {
    struct stat st {};
    if (::stat(p.c_str(), &st) == 0 && st.st_nlink > 1) {
      Bytes whole;
      if (auto s = load(p, whole); !s.ok()) return s;
      whole.insert(whole.end(), data.begin(), data.end());
      return persist(p, whole, /*append=*/false);
    }
  } else {
    (void)::unlink(p.c_str());
  }
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (append ? O_APPEND : O_TRUNC);
  const int fd = creating_parents(p, [&] { return ::open(p.c_str(), flags, 0644); });
  if (fd < 0) {
    return {ErrorCode::kIo, std::string(op) + "_file: cannot open " + p.string()};
  }
  bool ok = true;
  while (ok && !data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) data = data.subspan(static_cast<size_t>(n));
  }
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    return {ErrorCode::kIo, std::string(op) + "_file: short write to " + p.string()};
  }
  return Status::Ok();
}

/// Make `dst` another name of `src`'s bytes, replacing any file there.
/// False when the file system refuses the link.
bool link_over(const fs::path& src, const fs::path& dst) {
  const auto link = [&] { return ::link(src.c_str(), dst.c_str()); };
  if (creating_parents(dst, link) == 0) return true;
  if (errno != EEXIST) return false;
  struct stat a {}, b {};
  if (::stat(src.c_str(), &a) == 0 && ::stat(dst.c_str(), &b) == 0 &&
      a.st_dev == b.st_dev && a.st_ino == b.st_ino) {
    return true;  // already one file, e.g. a copy onto itself
  }
  return ::unlink(dst.c_str()) == 0 && link() == 0;
}

}  // namespace

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
  if (auto s = persist(real_path(tier, node, path), data, append); !s.ok()) return s;
  if (sim_cost) *sim_cost = cost_of(tier, data.size(), 1, concurrency);
  book_write(tier, data.size());
  return Status::Ok();
}

Status StorageSystem::read_file(Tier tier, int node, std::string_view path,
                                Bytes& out, double* sim_cost, int concurrency) {
  bool corrupt = false;
  if (auto s = decide_read(tier, path, &corrupt); !s.ok()) return s;
  if (auto s = load(real_path(tier, node, path), out); !s.ok()) return s;
  if (sim_cost) *sim_cost = cost_of(tier, out.size(), 1, concurrency);
  book_read(tier, out.size(), &out, corrupt);
  return Status::Ok();
}

Status StorageSystem::read_range(Tier tier, int node, std::string_view path,
                                 uint64_t offset, size_t len, Bytes& out,
                                 double* sim_cost, int concurrency) {
  bool corrupt = false;
  if (auto s = decide_read(tier, path, &corrupt); !s.ok()) return s;
  if (auto s = load_range(real_path(tier, node, path), offset, len, out); !s.ok()) {
    return s;
  }
  if (sim_cost) *sim_cost = cost_of(tier, len, 1, concurrency);
  book_read(tier, len, &out, corrupt);
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
      names.push_back(it->path().lexically_relative(base).generic_string());
    }
  }
  std::sort(names.begin(), names.end());
  return Status::Ok();
}

Status StorageSystem::copy(Tier src_tier, int src_node, std::string_view src_path,
                           Tier dst_tier, int dst_node, std::string_view dst_path,
                           double* sim_cost, int concurrency) {
  // read_file(src)'s decision, cost and booking; the bytes are loaded only
  // when a corrupt read makes the destination differ from the source.
  bool corrupt = false;
  if (auto s = decide_read(src_tier, src_path, &corrupt); !s.ok()) return s;
  const fs::path src = real_path(src_tier, src_node, src_path);
  Bytes data;
  size_t size = 0;
  if (corrupt) {
    if (auto s = load(src, data); !s.ok()) return s;
    size = data.size();
  } else {
    struct stat st {};
    if (::stat(src.c_str(), &st) != 0) {
      return {ErrorCode::kNotFound, "read_file: no such file " + src.string()};
    }
    size = static_cast<size_t>(st.st_size);
  }
  const double read_cost = cost_of(src_tier, size, 1, concurrency);
  book_read(src_tier, size, &data, corrupt);

  // write_file(dst)'s decision, cost and booking; a destination whose
  // bytes equal the source's shares them.
  size_t prefix = 0;
  if (auto s = decide_write(dst_tier, dst_path, size, &prefix); !s.ok()) return s;
  const fs::path dst = real_path(dst_tier, dst_node, dst_path);
  if (corrupt || prefix < size || !link_over(src, dst)) {
    if (!corrupt) {
      if (auto s = load(src, data); !s.ok()) return s;
    }
    const auto bytes = std::span<const std::byte>(data).first(std::min(prefix, data.size()));
    if (auto s = persist(dst, bytes, /*append=*/false); !s.ok()) return s;
  }
  if (sim_cost) *sim_cost = read_cost + cost_of(dst_tier, prefix, 1, concurrency);
  book_write(dst_tier, prefix);
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
