// segment_store.hpp — the host layout behind StorageSystem's file tiers.
//
// A simulated cluster writes many small files: a checkpoint per record
// batch, a spill page per budget overflow, an output file per partition.
// Making each one a host file costs a new inode per logical file, which
// dominates the simulator's host time on a disk file system. The segment
// store keeps the logical namespace in memory instead and puts only bytes
// on the host:
//
//   * Index. Each volume (the shared tier, or one node's local disk) maps
//     its logical paths to ordered extents {segment, offset, len}.
//   * Segments. A logical directory's bytes are appended to its open
//     segment, a host file that is only ever appended to. A segment takes
//     kExtentsPerSegment writes, then the directory opens the next. A
//     segment's host file is unlinked as soon as no extent references it.
//   * Sharing. Files change only by replacement or append, so extents are
//     values: a whole-file copy within one directory shares its source's
//     extents, and an append adds an extent to one file only. Any other
//     copy streams the bytes through a bounded buffer, so no copy holds a
//     whole file in memory.
//
// So a directory's files cost one host file per kExtentsPerSegment writes,
// and the host holds about one segment per live directory. No descriptor
// is held between calls: a run can have thousands of directories.
//
// Thread-safe. One mutex guards the index; host I/O runs outside it. Every
// extent, and every read or write in flight, holds a reference to its
// segment, so no segment is unlinked under an I/O.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "storage/storage.hpp"

namespace ftmr::storage {

class SegmentStore {
 public:
  /// Writes a segment takes before its directory opens the next one.
  static constexpr int kExtentsPerSegment = 256;

  /// Segments of the shared tier live in `<root>/shared`, those of node
  /// n's local disk in `<root>/local/node<n>`.
  explicit SegmentStore(std::filesystem::path root);
  /// Unlinks every segment: the index that names their bytes goes with it.
  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Append `data` to the open segment of `path`'s directory and make it
  /// the file at `path` (replacing it), or add it to the file's end.
  Status write(Tier tier, int node, std::string_view path,
               std::span<const std::byte> data, bool append);
  /// The whole file at `path` into `out`; kNotFound if there is none.
  Status read(Tier tier, int node, std::string_view path, Bytes& out) const;
  /// Make the file at `dst` (replacing it) the first `len` bytes of the
  /// file at `src`; kNotFound if there is none. All of a file copied
  /// within one directory of one volume shares its extents; any other
  /// copy appends the bytes to the open segment of `dst`'s directory.
  Status copy(Tier src_tier, int src_node, std::string_view src, Tier dst_tier,
              int dst_node, std::string_view dst, uint64_t len);

  /// Size of the file at `path`, or -1 if there is none.
  [[nodiscard]] int64_t size(Tier tier, int node, std::string_view path) const;
  /// True for a file at `path` or a directory holding one.
  [[nodiscard]] bool exists(Tier tier, int node, std::string_view path) const;
  /// Drop the file at `path` and every file under it.
  void remove(Tier tier, int node, std::string_view path);
  /// Append the paths (relative to `dir`, sorted) of the files under `dir`.
  void list(Tier tier, int node, std::string_view dir,
            std::vector<std::string>& names) const;
  /// Drop every file of a volume.
  void wipe(Tier tier, int node);

 private:
  struct Segment;
  struct Extent {
    std::shared_ptr<Segment> seg;
    uint64_t offset = 0;
    uint64_t len = 0;
  };
  /// A file is its extents, in order.
  using Extents = std::pmr::vector<Extent>;
  struct Volume {
    explicit Volume(std::pmr::memory_resource* pool) : files(pool), open(pool) {}
    std::pmr::map<std::pmr::string, Extents, std::less<>> files;
    /// Directory -> the segment its writes append to. Weak: a segment
    /// lives only while an extent or an I/O in flight holds it.
    std::pmr::map<std::pmr::string, std::weak_ptr<Segment>, std::less<>> open;
  };
  using VolumeKey = std::pair<Tier, int>;

  /// The shared tier is one volume whatever the node.
  static VolumeKey key_of(Tier tier, int node) noexcept {
    return {tier, tier == Tier::kShared ? 0 : node};
  }
  Volume& volume_locked(Tier tier, int node) FTMR_REQUIRES(mu_);
  /// The file at normalized `path`, or null.
  const Extents* find_file_locked(Tier tier, int node, std::string_view path) const
      FTMR_REQUIRES(mu_);
  /// Reserve `len` bytes at the end of the open segment of `path`'s
  /// directory, opening a new segment when there is none or it is full.
  std::shared_ptr<Segment> reserve(Tier tier, int node, std::string_view path,
                                   uint64_t len, uint64_t* offset) FTMR_EXCLUDES(mu_);
  /// Make the written bytes `len` at `offset` of `seg` (null: none) the
  /// file at `path`, or add them to its end.
  void commit(Tier tier, int node, const std::string& path, std::shared_ptr<Segment> seg,
              uint64_t offset, uint64_t len, bool append) FTMR_EXCLUDES(mu_);
  /// Hand `sink(fd, offset, n)` the first `len` bytes of `extents` in
  /// order, one extent at a time, with `fd` open on its segment. False as
  /// soon as a segment cannot be opened or the sink fails.
  template <typename Sink>
  static bool scan(const std::vector<Extent>& extents, uint64_t len, Sink&& sink);

  const std::filesystem::path root_;
  // The index and the segments live as long as their files, while the KV
  // buffers churn around them; allocated from the general heap, they pin
  // freed buffer memory (+1.5 MiB peak RSS on perfbench's
  // wc_spill_restart). This pool keeps them together. Thread-safe: a
  // segment may be freed by a reader outside mu_.
  std::pmr::synchronized_pool_resource pool_;
  mutable Mutex mu_{"storage.segments"};
  std::map<VolumeKey, Volume> volumes_ FTMR_GUARDED_BY(mu_);
  uint64_t next_segment_ FTMR_GUARDED_BY(mu_) = 0;
};

}  // namespace ftmr::storage
