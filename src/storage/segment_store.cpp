#include "storage/segment_store.hpp"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>

namespace ftmr::storage {

namespace fs = std::filesystem;

/// One write's bytes in the host file. A run starts on a block and the
/// next run starts on the block after its end, so its blocks are its own:
/// the last reference punches them out.
struct SegmentStore::Run {
  Run(const SegmentStore& s, uint64_t at, uint64_t n) : store(s), offset(at), len(n) {}
  ~Run() {
    if (store.closing_) return;
    (void)::fallocate(store.fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                      static_cast<off_t>(offset), static_cast<off_t>(store.blocks(len)));
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  const SegmentStore& store;
  const uint64_t offset;
  const uint64_t len;
};

namespace {

/// `path` with no empty, "." or ".." components and no leading or trailing
/// slash, so every spelling of a path names one index entry.
std::string normal(std::string_view path) {
  bool plain = !path.empty() && path.front() != '/' && path.back() != '/';
  for (size_t at = 0; plain && at <= path.size();) {
    const size_t slash = std::min(path.find('/', at), path.size());
    const std::string_view part = path.substr(at, slash - at);
    plain = !part.empty() && part != "." && part != "..";
    at = slash + 1;
  }
  if (plain) return std::string(path);
  std::string s = fs::path(path).lexically_normal().generic_string();
  while (!s.empty() && s.front() == '/') s.erase(0, 1);
  while (!s.empty() && s.back() == '/') s.pop_back();
  return s == "." ? std::string() : s;
}

/// The entries of `m` under directory `dir` (all of them for ""): the keys
/// that start with "dir/" are exactly those in ["dir/", "dir0"), since '0'
/// follows '/'.
template <typename Map>
auto subtree(Map& m, const std::string& dir) {
  if (dir.empty()) return std::pair(m.begin(), m.end());
  const std::string first = dir + '/', last = dir + '0';
  return std::pair(m.lower_bound(std::string_view(first)),
                   m.lower_bound(std::string_view(last)));
}

/// Bytes in a file's extents.
template <typename Extents>
uint64_t size_of(const Extents& extents) {
  uint64_t n = 0;
  for (const auto& e : extents) n += e.len;
  return n;
}

/// The one host write: `pieces`, back to back, at `offset` of `fd`, in as
/// few gather writes as IOV_MAX allows.
bool host_write(int fd, uint64_t offset,
                std::span<const std::span<const std::byte>> pieces) {
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (std::span<const std::byte> p : pieces) {
    if (!p.empty()) iov.push_back({const_cast<std::byte*>(p.data()), p.size()});
  }
  size_t first = 0;
  while (first < iov.size()) {
    const int n = static_cast<int>(std::min<size_t>(iov.size() - first, IOV_MAX));
    const ssize_t done = ::pwritev(fd, &iov[first], n, static_cast<off_t>(offset));
    if (done < 0 && errno == EINTR) continue;
    if (done <= 0) return false;
    offset += static_cast<uint64_t>(done);
    // Skip what was written; a piece written in part resumes at its rest.
    for (size_t left = static_cast<size_t>(done); left > 0;) {
      if (left >= iov[first].iov_len) {
        left -= iov[first++].iov_len;
      } else {
        iov[first].iov_base = static_cast<std::byte*>(iov[first].iov_base) + left;
        iov[first].iov_len -= left;
        left = 0;
      }
    }
  }
  return true;
}

/// The one host read: `n` bytes at `offset` of `fd` into `out`.
bool host_read(int fd, uint64_t offset, std::byte* out, uint64_t n) {
  while (n > 0) {
    const ssize_t done = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (done < 0 && errno == EINTR) continue;
    if (done <= 0) return false;
    out += done;
    offset += static_cast<uint64_t>(done);
    n -= static_cast<uint64_t>(done);
  }
  return true;
}

}  // namespace

SegmentStore::SegmentStore(const fs::path& root) : host_((root / "segments").native()) {
  std::error_code ec;
  fs::create_directories(root, ec);
  // A store that cannot open its file fails every write with kIo.
  fd_ = ::open(host_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  struct stat st {};
  if (fd_ >= 0 && ::fstat(fd_, &st) == 0 && st.st_blksize > 0) {
    block_ = static_cast<uint64_t>(st.st_blksize);
  }
}

SegmentStore::~SegmentStore() {
  closing_ = true;  // the whole file goes: no run punches its own blocks
  {
    MutexLock lock(mu_);
    volumes_.clear();
  }
  if (fd_ >= 0) ::close(fd_);
  (void)::unlink(host_.c_str());
}

SegmentStore::Extents& SegmentStore::file_locked(Tier tier, int node,
                                                 const std::string& path) {
  Files& files = volumes_.try_emplace(key_of(tier, node), &pool_).first->second;
  auto it = files.find(std::string_view(path));
  if (it == files.end()) it = files.emplace(path, Extents()).first;
  return it->second;
}

const SegmentStore::Extents* SegmentStore::find_file_locked(Tier tier, int node,
                                                            std::string_view path) const {
  const auto v = volumes_.find(key_of(tier, node));
  if (v == volumes_.end()) return nullptr;
  const auto it = v->second.find(path);
  return it == v->second.end() ? nullptr : &it->second;
}

Status SegmentStore::append_run(std::span<const std::span<const std::byte>> pieces,
                                std::shared_ptr<Run>& out) {
  uint64_t len = 0;
  for (std::span<const std::byte> p : pieces) len += p.size();
  out = std::allocate_shared<Run>(std::pmr::polymorphic_allocator<Run>(&pool_), *this,
                                  end_.fetch_add(blocks(len)), len);
  if (host_write(fd_, out->offset, pieces)) return Status::Ok();
  out.reset();
  return {ErrorCode::kIo, "cannot write the segment file " + host_};
}

Status SegmentStore::write(Tier tier, int node, std::string_view path_in,
                           std::span<const std::byte> data, bool append) {
  const std::string path = normal(path_in);
  std::shared_ptr<Run> run;
  if (!data.empty()) {
    if (!append_run({&data, 1}, run).ok()) {
      return {ErrorCode::kIo, "write_file: cannot write " + path};
    }
  }
  // Declared before the lock: the runs the replaced extents may hold the
  // last reference to are punched after the mutex is released.
  Extents dropped(&pool_);
  MutexLock lock(mu_);
  Extents& f = file_locked(tier, node, path);
  if (!append) dropped.swap(f);
  if (run) f.push_back({std::move(run), data.size()});
  return Status::Ok();
}

Status SegmentStore::read(Tier tier, int node, std::string_view path_in,
                          Bytes& out) const {
  const std::string path = normal(path_in);
  std::vector<Extent> extents;  // holds the runs until the reads are done
  {
    MutexLock lock(mu_);
    const Extents* f = find_file_locked(tier, node, path);
    if (f == nullptr) return {ErrorCode::kNotFound, "read_file: no such file " + path};
    extents.assign(f->begin(), f->end());
  }
  out.resize(size_of(extents));
  std::byte* at = out.data();
  for (const Extent& e : extents) {
    if (!host_read(fd_, e.run->offset, at, e.len)) {
      return {ErrorCode::kIo, "read_file: short read from " + path};
    }
    at += e.len;
  }
  return Status::Ok();
}

Status SegmentStore::copy(Tier src_tier, int src_node, std::string_view src_in,
                          Tier dst_tier, int dst_node, std::string_view dst_in,
                          uint64_t len) {
  const std::string src = normal(src_in);
  const std::string dst = normal(dst_in);
  // The copy's extents; once swapped into `dst`, the extents it replaced,
  // whose last runs are punched after the mutex is released.
  Extents shared(&pool_);
  MutexLock lock(mu_);
  const Extents* f = find_file_locked(src_tier, src_node, src);
  if (f == nullptr) return {ErrorCode::kNotFound, "read_file: no such file " + src};
  for (auto e = f->begin(); len > 0 && e != f->end(); ++e) {
    shared.push_back({e->run, std::min(e->len, len)});
    len -= shared.back().len;
  }
  file_locked(dst_tier, dst_node, dst).swap(shared);
  return Status::Ok();
}

int64_t SegmentStore::size(Tier tier, int node, std::string_view path_in) const {
  const std::string path = normal(path_in);
  MutexLock lock(mu_);
  const Extents* f = find_file_locked(tier, node, path);
  return f == nullptr ? -1 : static_cast<int64_t>(size_of(*f));
}

bool SegmentStore::exists(Tier tier, int node, std::string_view path_in) const {
  const std::string path = normal(path_in);
  MutexLock lock(mu_);
  if (find_file_locked(tier, node, path) != nullptr) return true;
  const auto it = volumes_.find(key_of(tier, node));
  if (it == volumes_.end()) return false;
  const auto [first, last] = subtree(it->second, path);
  return first != last;
}

void SegmentStore::remove(Tier tier, int node, std::string_view path_in) {
  const std::string path = normal(path_in);
  // The removed files, destroyed (and their last runs punched) after the
  // mutex is released.
  std::vector<Files::node_type> dropped;
  MutexLock lock(mu_);
  const auto v = volumes_.find(key_of(tier, node));
  if (v == volumes_.end()) return;
  Files& files = v->second;
  if (auto it = files.find(std::string_view(path)); it != files.end()) {
    dropped.push_back(files.extract(it));
  }
  for (auto [it, last] = subtree(files, path); it != last;) {
    dropped.push_back(files.extract(it++));
  }
}

void SegmentStore::list(Tier tier, int node, std::string_view dir_in,
                        std::vector<std::string>& names) const {
  const std::string dir = normal(dir_in);
  const size_t skip = dir.empty() ? 0 : dir.size() + 1;
  MutexLock lock(mu_);
  const auto v = volumes_.find(key_of(tier, node));
  if (v == volumes_.end()) return;
  for (auto [it, last] = subtree(v->second, dir); it != last; ++it) {
    names.emplace_back(std::string_view(it->first).substr(skip));
  }
}

Status SegmentStore::stash(std::span<const std::byte> data, Extent& out) {
  return stash({&data, 1}, out);
}

Status SegmentStore::stash(std::span<const std::span<const std::byte>> pieces,
                           Extent& out) {
  out = Extent{};
  uint64_t len = 0;
  for (std::span<const std::byte> p : pieces) len += p.size();
  if (len == 0) return Status::Ok();
  if (auto s = append_run(pieces, out.run); !s.ok()) return s;
  out.len = len;
  return Status::Ok();
}

Status SegmentStore::load(const Extent& extent, Bytes& out) const {
  out.resize(extent.len);
  return load(extent, 0, out);
}

Status SegmentStore::load(const Extent& extent, uint64_t at,
                          std::span<std::byte> out) const {
  if (at > extent.len || out.size() > extent.len - at) {
    return {ErrorCode::kOutOfRange, "segment load past the extent's end"};
  }
  if (!out.empty() && !host_read(fd_, extent.run->offset + at, out.data(), out.size())) {
    return {ErrorCode::kIo, "cannot read the segment file " + host_};
  }
  return Status::Ok();
}

bool SegmentStore::extent_of(Tier tier, int node, std::string_view path_in,
                             Extent& out) const {
  const std::string path = normal(path_in);
  Extent found;
  {
    MutexLock lock(mu_);
    const Extents* f = find_file_locked(tier, node, path);
    if (f == nullptr || f->size() > 1) return false;
    if (!f->empty()) found = f->front();
  }
  out = std::move(found);  // what `out` held is released outside the mutex
  return true;
}

void SegmentStore::wipe(Tier tier, int node) {
  decltype(volumes_)::node_type dropped;  // punched after the mutex is released
  MutexLock lock(mu_);
  dropped = volumes_.extract(key_of(tier, node));
}

}  // namespace ftmr::storage
