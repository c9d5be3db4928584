#include "storage/segment_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <system_error>

namespace ftmr::storage {

namespace fs = std::filesystem;

/// One host segment file. `end` and `extents` are guarded by the store's
/// mutex; the host path never changes. The last reference unlinks it.
struct SegmentStore::Segment {
  Segment(std::string_view host_path, std::pmr::memory_resource* pool)
      : host(host_path, pool) {}
  ~Segment() { (void)::unlink(host.c_str()); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  const std::pmr::string host;
  uint64_t end = 0;  // bytes reserved so far
  int extents = 0;   // writes reserved so far
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

/// The directory of a normalized path ("" at the volume root).
std::string_view dir_of(std::string_view path) {
  const size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string_view() : path.substr(0, slash);
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

/// Bytes a copy moves per host read and write.
constexpr uint64_t kCopyChunk = 64 << 10;

/// Open segment file `host` for writing, creating it (and its directory).
int open_for_write(const std::pmr::string& host) {
  return creating_parents(
      host, [&] { return ::open(host.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644); });
}

/// The one host write: `n` bytes from `in` at `offset` of segment `fd`.
bool store(int fd, uint64_t offset, const std::byte* in, uint64_t n) {
  while (n > 0) {
    const ssize_t done = ::pwrite(fd, in, n, static_cast<off_t>(offset));
    if (done < 0 && errno == EINTR) continue;
    if (done <= 0) return false;
    in += done;
    offset += static_cast<uint64_t>(done);
    n -= static_cast<uint64_t>(done);
  }
  return true;
}

/// The one host read: `n` bytes at `offset` of segment `fd` into `out`.
bool load(int fd, uint64_t offset, std::byte* out, uint64_t n) {
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

SegmentStore::SegmentStore(fs::path root) : root_(std::move(root)) {}

SegmentStore::~SegmentStore() = default;

SegmentStore::Volume& SegmentStore::volume_locked(Tier tier, int node) {
  return volumes_.try_emplace(key_of(tier, node), &pool_).first->second;
}

const SegmentStore::Extents* SegmentStore::find_file_locked(Tier tier, int node,
                                                            std::string_view path) const {
  const auto v = volumes_.find(key_of(tier, node));
  if (v == volumes_.end()) return nullptr;
  const auto it = v->second.files.find(path);
  return it == v->second.files.end() ? nullptr : &it->second;
}

std::shared_ptr<SegmentStore::Segment> SegmentStore::reserve(
    Tier tier, int node, std::string_view path, uint64_t len, uint64_t* offset) {
  MutexLock lock(mu_);
  Volume& vol = volume_locked(tier, node);
  const std::string_view dir = dir_of(path);
  auto it = vol.open.find(dir);
  if (it == vol.open.end()) it = vol.open.emplace(dir, std::weak_ptr<Segment>()).first;
  std::shared_ptr<Segment> seg = it->second.lock();
  if (!seg || seg->extents == kExtentsPerSegment) {
    char name[32];
    std::snprintf(name, sizeof(name), "seg_%06llu",
                  static_cast<unsigned long long>(next_segment_++));
    const fs::path host = tier == Tier::kShared
                              ? root_ / "shared" / name
                              : root_ / "local" / ("node" + std::to_string(node)) / name;
    seg = std::allocate_shared<Segment>(std::pmr::polymorphic_allocator<Segment>(&pool_),
                                        host.native(), &pool_);
    it->second = seg;
  }
  *offset = seg->end;
  seg->end += len;
  seg->extents++;
  return seg;
}

void SegmentStore::commit(Tier tier, int node, const std::string& path,
                          std::shared_ptr<Segment> seg, uint64_t offset, uint64_t len,
                          bool append) {
  // Declared before the lock: the segments the replaced extents may hold
  // the last reference to are unlinked after the mutex is released.
  Extents dropped(&pool_);
  MutexLock lock(mu_);
  Volume& vol = volume_locked(tier, node);
  auto it = vol.files.find(std::string_view(path));
  if (it == vol.files.end()) it = vol.files.emplace(path, Extents()).first;
  Extents& f = it->second;
  if (!append) {
    dropped = std::move(f);
    f.clear();
  }
  if (!seg) return;
  if (!f.empty() && f.back().seg == seg && f.back().offset + f.back().len == offset) {
    f.back().len += len;  // an append right behind the file's end
  } else {
    f.push_back({std::move(seg), offset, len});
  }
}

template <typename Sink>
bool SegmentStore::scan(const std::vector<Extent>& extents, uint64_t len, Sink&& sink) {
  int fd = -1;
  const Segment* open_seg = nullptr;
  bool ok = true;
  for (auto e = extents.begin(); ok && len > 0 && e != extents.end(); ++e) {
    if (e->seg.get() != open_seg) {
      if (fd >= 0) ::close(fd);
      fd = ::open(e->seg->host.c_str(), O_RDONLY | O_CLOEXEC);
      open_seg = e->seg.get();
    }
    const uint64_t n = std::min(e->len, len);
    ok = fd >= 0 && sink(fd, e->offset, n);
    len -= n;
  }
  if (fd >= 0) ::close(fd);
  return ok;
}

Status SegmentStore::write(Tier tier, int node, std::string_view path_in,
                           std::span<const std::byte> data, bool append) {
  const std::string path = normal(path_in);
  std::shared_ptr<Segment> seg;
  uint64_t offset = 0;
  if (!data.empty()) {
    seg = reserve(tier, node, path, data.size(), &offset);
    const int fd = open_for_write(seg->host);
    const bool ok = fd >= 0 && store(fd, offset, data.data(), data.size());
    const bool closed = fd < 0 || ::close(fd) == 0;
    if (!ok || !closed) return {ErrorCode::kIo, "write_file: cannot write " + path};
  }
  commit(tier, node, path, std::move(seg), offset, data.size(), append);
  return Status::Ok();
}

Status SegmentStore::read(Tier tier, int node, std::string_view path_in,
                          Bytes& out) const {
  const std::string path = normal(path_in);
  std::vector<Extent> extents;  // holds the segments until the reads are done
  {
    MutexLock lock(mu_);
    const Extents* f = find_file_locked(tier, node, path);
    if (f == nullptr) return {ErrorCode::kNotFound, "read_file: no such file " + path};
    extents.assign(f->begin(), f->end());
  }
  const uint64_t size = size_of(extents);
  out.resize(size);
  std::byte* at = out.data();
  const bool ok = scan(extents, size, [&](int fd, uint64_t offset, uint64_t n) {
    if (!load(fd, offset, at, n)) return false;
    at += n;
    return true;
  });
  if (!ok) return {ErrorCode::kIo, "read_file: short read from " + path};
  return Status::Ok();
}

Status SegmentStore::copy(Tier src_tier, int src_node, std::string_view src_in,
                          Tier dst_tier, int dst_node, std::string_view dst_in,
                          uint64_t len) {
  const std::string src = normal(src_in);
  const std::string dst = normal(dst_in);
  std::vector<Extent> extents;  // holds the source segments until copied
  {
    Extents dropped(&pool_);  // unlinked after the mutex is released
    MutexLock lock(mu_);
    const Extents* f = find_file_locked(src_tier, src_node, src);
    if (f == nullptr) return {ErrorCode::kNotFound, "read_file: no such file " + src};
    const uint64_t size = size_of(*f);
    len = std::min(len, size);
    if (len == size && key_of(src_tier, src_node) == key_of(dst_tier, dst_node) &&
        dir_of(src) == dir_of(dst)) {
      if (src != dst) {
        Extents shared(*f, &pool_);
        Volume& vol = volume_locked(dst_tier, dst_node);
        auto d = vol.files.find(std::string_view(dst));
        if (d == vol.files.end()) d = vol.files.emplace(dst, Extents()).first;
        dropped = std::move(d->second);
        d->second = std::move(shared);
      }
      return Status::Ok();
    }
    extents.assign(f->begin(), f->end());
  }
  std::shared_ptr<Segment> seg;
  uint64_t offset = 0;
  if (len > 0) {
    seg = reserve(dst_tier, dst_node, dst, len, &offset);
    const int out = open_for_write(seg->host);
    Bytes buf(std::min(len, kCopyChunk));
    uint64_t to = offset;
    const bool ok = out >= 0 && scan(extents, len, [&](int fd, uint64_t from, uint64_t n) {
      for (uint64_t chunk = 0; n > 0; from += chunk, to += chunk, n -= chunk) {
        chunk = std::min<uint64_t>(n, buf.size());
        if (!load(fd, from, buf.data(), chunk) || !store(out, to, buf.data(), chunk)) {
          return false;
        }
      }
      return true;
    });
    const bool closed = out < 0 || ::close(out) == 0;
    if (!ok || !closed) return {ErrorCode::kIo, "copy: cannot copy " + src + " to " + dst};
  }
  commit(dst_tier, dst_node, dst, std::move(seg), offset, len, /*append=*/false);
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
  const auto [first, last] = subtree(it->second.files, path);
  return first != last;
}

void SegmentStore::remove(Tier tier, int node, std::string_view path_in) {
  const std::string path = normal(path_in);
  // The removed files, destroyed (and their last segments unlinked) after
  // the mutex is released.
  std::vector<decltype(Volume::files)::node_type> dropped;
  MutexLock lock(mu_);
  const auto v = volumes_.find(key_of(tier, node));
  if (v == volumes_.end()) return;
  Volume& vol = v->second;
  if (auto it = vol.files.find(std::string_view(path)); it != vol.files.end()) {
    dropped.push_back(vol.files.extract(it));
  }
  for (auto [it, last] = subtree(vol.files, path); it != last;) {
    dropped.push_back(vol.files.extract(it++));
  }
  // Directories left without files forget their open segment: the removed
  // subtree's, and the parent's once its last file is gone.
  const auto [first, last] = subtree(vol.open, path);
  vol.open.erase(first, last);
  for (const std::string& dir : {path, std::string(dir_of(path))}) {
    const auto [in, end] = subtree(vol.files, dir);
    if (in != end) continue;
    if (auto it = vol.open.find(std::string_view(dir)); it != vol.open.end()) {
      vol.open.erase(it);
    }
  }
}

void SegmentStore::list(Tier tier, int node, std::string_view dir_in,
                        std::vector<std::string>& names) const {
  const std::string dir = normal(dir_in);
  const size_t skip = dir.empty() ? 0 : dir.size() + 1;
  MutexLock lock(mu_);
  const auto v = volumes_.find(key_of(tier, node));
  if (v == volumes_.end()) return;
  for (auto [it, last] = subtree(v->second.files, dir); it != last; ++it) {
    names.emplace_back(std::string_view(it->first).substr(skip));
  }
}

void SegmentStore::wipe(Tier tier, int node) {
  decltype(volumes_)::node_type dropped;  // unlinked after the mutex is released
  MutexLock lock(mu_);
  dropped = volumes_.extract(key_of(tier, node));
}

}  // namespace ftmr::storage
