// segment_store.hpp — the host layout behind StorageSystem's file tiers.
//
// A simulated cluster writes many small files: a checkpoint per record
// batch, a spill page per budget overflow, an output file per partition.
// Making each one a host file costs a new inode per logical file, and even
// one host file per directory costs an open per write; either dominates
// the simulator's host time. The segment store keeps the logical namespace
// in memory instead and puts only bytes on the host, in one file:
//
//   * Index. Each volume (the shared tier, or one node's local disk) maps
//     its logical paths to ordered extents {run, len}, each the first len
//     bytes of a run.
//   * Runs. Each write appends its bytes to the store's one host file,
//     `<root>/segments`, as a run: a bump allocation that starts on a file
//     system block, so no two runs share a block. The store opens the file
//     once and writes and reads through that one descriptor.
//   * Sharing. Files change only by replacement or append, so extents are
//     values: a copy shares a prefix of its source's extents, whatever the
//     tier, node or directory of either file, and moves no byte on the
//     host. An append adds an extent to one file only.
//   * Reclaim. A run lives while an extent or a read in flight holds it.
//     The last one punches the run's blocks out of the file
//     (fallocate(FALLOC_FL_PUNCH_HOLE)), so the host file holds the live
//     bytes plus at most a block per live extent. Where the file system
//     cannot punch holes, freed blocks stay until the store closes.
//   * Anonymous extents. An extent may also be held outside the index: the
//     memory tier (replica.hpp) keeps its replicas as extents, stashed as
//     runs of their own or shared with the checkpoint file they replicate,
//     so every tier's bytes are in the one host file.
//
// Thread-safe. One mutex guards the index; host I/O runs outside it.
#pragma once

#include <atomic>
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
  /// Creates `root` if need be and opens the host file `<root>/segments`.
  explicit SegmentStore(const std::filesystem::path& root);
  /// Closes and unlinks the host file: the index that names its bytes goes
  /// with it.
  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

 private:
  struct Run;

 public:
  /// The first `len` bytes of a run. A value: a copy shares the run, and
  /// the last extent (or read in flight) to release it punches it out.
  struct Extent {
    std::shared_ptr<Run> run;
    uint64_t len = 0;
  };

  /// Append `data` to the host file as one run and make it the file at
  /// `path` (replacing it), or add it to the file's end.
  Status write(Tier tier, int node, std::string_view path,
               std::span<const std::byte> data, bool append);
  /// The whole file at `path` into `out`; kNotFound if there is none.
  Status read(Tier tier, int node, std::string_view path, Bytes& out) const;
  /// Make the file at `dst` (replacing it) the first `len` bytes of the
  /// file at `src`, sharing its extents; kNotFound if there is none.
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

  /// Append `data` to the host file as one run that no file holds, and
  /// make `out` all of it.
  Status stash(std::span<const std::byte> data, Extent& out);
  /// Same for `pieces` laid back to back in one run, in one host write: a
  /// piece is then a byte range of `out` (see the ranged load).
  Status stash(std::span<const std::span<const std::byte>> pieces, Extent& out);
  /// The bytes of `extent` into `out`.
  Status load(const Extent& extent, Bytes& out) const;
  /// Bytes [at, at + out.size()) of `extent` into `out`; kOutOfRange when
  /// the range passes the extent's end.
  Status load(const Extent& extent, uint64_t at, std::span<std::byte> out) const;
  /// The file at `path` as one extent, sharing its run; false if there is
  /// no such file or it has more than one extent (it was appended to).
  bool extent_of(Tier tier, int node, std::string_view path, Extent& out) const;

 private:
  /// A file is its extents, in order.
  using Extents = std::pmr::vector<Extent>;
  using Files = std::pmr::map<std::pmr::string, Extents, std::less<>>;
  using VolumeKey = std::pair<Tier, int>;

  /// The shared tier is one volume whatever the node.
  static VolumeKey key_of(Tier tier, int node) noexcept {
    return {tier, tier == Tier::kShared ? 0 : node};
  }
  /// `len` rounded up to whole blocks: the bytes a run of `len` reserves.
  [[nodiscard]] uint64_t blocks(uint64_t len) const noexcept {
    return (len + block_ - 1) / block_ * block_;
  }
  /// Append `pieces`, back to back, to the host file as a new run.
  Status append_run(std::span<const std::span<const std::byte>> pieces,
                    std::shared_ptr<Run>& out);
  /// The file at normalized `path`, created empty if there is none.
  Extents& file_locked(Tier tier, int node, const std::string& path) FTMR_REQUIRES(mu_);
  /// The file at normalized `path`, or null.
  const Extents* find_file_locked(Tier tier, int node, std::string_view path) const
      FTMR_REQUIRES(mu_);

  const std::string host_;
  int fd_ = -1;
  uint64_t block_ = 4096;  // the file system's block size; runs start on one
  bool closing_ = false;   // set by the destructor: runs leave their blocks
  std::atomic<uint64_t> end_{0};  // bytes reserved by runs so far
  // The index and the runs live as long as their files, while the KV
  // buffers churn around them; allocated from the general heap, they pin
  // freed buffer memory (+1.5 MiB peak RSS on perfbench's
  // wc_spill_restart). This pool keeps them together. Thread-safe: a run
  // may be freed by a reader outside mu_.
  std::pmr::synchronized_pool_resource pool_;
  mutable Mutex mu_{"storage.segments"};
  std::map<VolumeKey, Files> volumes_ FTMR_GUARDED_BY(mu_);
};

}  // namespace ftmr::storage
