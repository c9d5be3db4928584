// storage.hpp — the simulated HPC storage hierarchy.
//
// The paper's cluster has two tiers (Sec. 4.1.3):
//   * node-local SATA disks — private, cheap ops, survive a *process* crash
//     (the node keeps running; only the MPI process died);
//   * a shared parallel file system (GPFS) — globally visible, optimized for
//     large I/O, and a scalability bottleneck beyond ~256 concurrent
//     writers (the Fig. 5 observation).
//
// This module stores real bytes in a sandbox directory (correctness: the
// checkpoint/recovery code manipulates actual bytes) while *costing* every
// operation with a tier model (latency per op + per-byte bandwidth + an
// aggregate-bandwidth contention term for the shared tier). Costs are
// returned to the caller, which charges them to its rank's virtual clock.
//
// On the host, logical files are not host files: a segment store
// (segment_store.hpp) indexes them in memory and appends their bytes to one
// host file per StorageSystem, so creating a logical file (a checkpoint, a
// spill page) costs a pwrite instead of a new inode, and a copy costs no
// host I/O. The memory tier's replicas are runs of that file too. Fault
// draws, TierStats and modeled cost are those of one file per path.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"

namespace ftmr::storage {

class ReplicaStore;  // replica.hpp — the kMemory tier's backing object
class SegmentStore;  // segment_store.hpp — the file tiers' host layout

/// kMemory is the diskless replication tier (replica.hpp): checkpoint blobs
/// k-replicated into peer ranks' RAM. It is not file-backed — the file-path
/// StorageSystem operations reject it; access it via StorageSystem::memory().
enum class Tier { kLocal, kShared, kMemory };

/// Cost model of one storage tier.
struct TierModel {
  double op_latency_s = 0.0;            // fixed cost per I/O operation
  double bandwidth_Bps = 1.0e9;         // per-process streaming bandwidth
  /// Aggregate bandwidth across all concurrent writers; 0 = uncontended
  /// (local disks are private). Effective per-process bandwidth is
  /// min(bandwidth_Bps, aggregate_bandwidth_Bps / concurrency).
  double aggregate_bandwidth_Bps = 0.0;

  /// Simulated seconds for `ops` operations moving `bytes` bytes with
  /// `concurrency` processes hitting the tier simultaneously.
  [[nodiscard]] double cost(size_t bytes, int ops, int concurrency = 1) const noexcept {
    double bw = bandwidth_Bps;
    if (aggregate_bandwidth_Bps > 0.0 && concurrency > 0) {
      const double share = aggregate_bandwidth_Bps / static_cast<double>(concurrency);
      if (share < bw) bw = share;
    }
    return static_cast<double>(ops) * op_latency_s + static_cast<double>(bytes) / bw;
  }
};

/// Defaults calibrated to the paper's testbed: 250 GB SATA drives
/// (~100 MB/s, sub-ms ops) and a GPFS whose aggregate bandwidth saturates
/// once a few hundred processes write checkpoints concurrently.
struct StorageOptions {
  std::filesystem::path root;  // sandbox; created on demand
  TierModel local{5e-4, 1.0e8, 0.0};
  TierModel shared{2e-3, 4.0e8, 2.0e10};
  /// Memory tier: peer-RAM over the interconnect. Matches the simmpi
  /// NetworkModel defaults (2 us latency, 3.2 GB/s) so pure-model bench
  /// series agree with functional runs that charge wire time via rma ops.
  TierModel memory{2e-6, 3.2e9, 0.0};
  /// Some HPC clusters have no local disks (Sec. 4.1.3 drawback #1);
  /// setting this false makes kLocal operations fail with IO errors so the
  /// library's shared-storage-only fallback paths can be exercised.
  bool has_local_disk = true;
};

/// Byte/op counters per tier, for Fig. 7-style decompositions.
struct TierStats {
  size_t bytes_written = 0;
  size_t bytes_read = 0;
  int64_t write_ops = 0;
  int64_t read_ops = 0;
};

/// Per-tier fault probabilities for the storage fault injector. Each
/// operation draws independently from the injector's seeded RNG.
struct TierFaults {
  /// Write/append fails cleanly (kIo returned, nothing persisted).
  double p_write_fail = 0.0;
  /// Torn write: a random strict prefix of the data is persisted and the
  /// operation *reports success* — the failure mode of a process dying
  /// mid-write, detectable only by end-to-end verification (CRC framing).
  double p_torn_write = 0.0;
  /// Read fails cleanly with kIo (transient: a retry redraws).
  double p_read_fail = 0.0;
  /// Corrupt-on-read: one random bit of the returned buffer is flipped and
  /// the read reports success. Transient (the file on disk is untouched),
  /// modeling bus/media bit rot caught only by checksums.
  double p_corrupt_read = 0.0;
};

/// Seeded, deterministic storage fault injector configuration.
struct FaultInjectorConfig {
  uint64_t seed = 0x5eedULL;
  TierFaults local;
  TierFaults shared;
  TierFaults memory;  // replica-store faults (forwarded to ReplicaStore)
  /// If non-empty, only operations whose logical path contains this
  /// substring are eligible for injection (e.g. "ck/r2" to attack one
  /// rank's checkpoints while leaving job input/output pristine).
  std::string path_filter;
};

/// Robustness counters: what the injector actually did. Benches and tests
/// assert on these the way they assert on TierStats.
struct FaultStats {
  int64_t write_failures = 0;   // clean injected write failures
  int64_t torn_writes = 0;      // silent prefix-only writes
  int64_t read_failures = 0;    // clean injected read failures
  int64_t corrupt_reads = 0;    // silent bit flips on read
  int64_t count_failures = 0;   // legacy inject_io_failures() consumptions

  FaultStats& operator+=(const FaultStats& o) noexcept {
    write_failures += o.write_failures;
    torn_writes += o.torn_writes;
    read_failures += o.read_failures;
    corrupt_reads += o.corrupt_reads;
    count_failures += o.count_failures;
    return *this;
  }
};

/// The one storage fault injector: every tier decides its injected faults
/// here. It holds the armed flag, the path filter, the seeded draw stream,
/// the count-based failures of inject_io_failures() and the FaultStats; the
/// probabilities come with each call, so one stream serves both file tiers.
/// Not locking: each owner keeps its instance under its own mutex.
class FaultInjector {
 public:
  /// Arm the probabilistic draws on a fresh stream seeded with `seed`.
  void arm(uint64_t seed, std::string path_filter);
  void disarm() noexcept { armed_ = false; }
  /// The next `count` decisions fail with `error`, armed or not.
  void fail_next(int count, Status error);

  /// Decide one write of `size` bytes. A clean failure comes back as its
  /// error; otherwise OK, with `*prefix` the bytes to persist: all of them,
  /// or a strict prefix for a torn write.
  Status write_fault(const TierFaults& f, std::string_view path, size_t size,
                     size_t* prefix);
  /// Decide one read. A clean failure comes back as its error; otherwise
  /// OK, with `*corrupt` set if the read must flip_bit() what it returns.
  Status read_fault(const TierFaults& f, std::string_view path, bool* corrupt);
  /// One bit of a buffer, drawn (byte first, then bit) before the buffer is
  /// read, so that a caller can draw under its lock and flip outside it.
  struct BitFlip {
    size_t byte = 0;
    int bit = 0;
    void apply(Bytes& buf) const { buf[byte] ^= static_cast<std::byte>(1u << bit); }
  };
  /// Draw the bit to flip of a non-empty `size`-byte buffer.
  BitFlip draw_flip(size_t size);
  /// Flip one drawn bit of a non-empty `buf`.
  void flip_bit(Bytes& buf);

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  enum class Draw { kNone, kFail, kSilent };
  /// First step of every decision: consume a pending count-based failure.
  Status take_counted();
  /// Then the armed and path-filter checks, and the clean-failure draw
  /// before the silent-fault draw (torn write, corrupt read), each only if
  /// its probability is set.
  Draw draw(std::string_view path, double p_fail, double p_silent);

  bool armed_ = false;
  std::string path_filter_;
  Rng rng_;
  int fail_next_ = 0;
  Status fail_error_;
  FaultStats stats_;
};

/// The one retry ladder every retried storage operation climbs: up to
/// max_attempts tries, with an exponential backoff of 1, 4 and 16 ms of
/// virtual time before the retries. Only transient errors are retried.
/// kNotFound (a missing file), kFailedPrecondition (an unavailable tier,
/// e.g. no node-local disk) and kInvalidArgument (a bad call) cannot be
/// cured by waiting, so they end the ladder at once.
struct RetryPolicy {
  static constexpr int max_attempts = 4;      // total tries, including the first
  static constexpr double backoff_s = 1e-3;   // wait before the 1st retry
  static constexpr double multiplier = 4.0;   // backoff growth per retry

  /// Backoff before retry number `retry` (1-based).
  [[nodiscard]] static constexpr double backoff_before(int retry) noexcept {
    double b = backoff_s;
    for (int i = 1; i < retry; ++i) b *= multiplier;
    return b;
  }
  [[nodiscard]] static constexpr bool transient(ErrorCode code) noexcept {
    return code != ErrorCode::kNotFound && code != ErrorCode::kFailedPrecondition &&
           code != ErrorCode::kInvalidArgument;
  }

  /// Run `body(attempt)` (attempt is 1-based) until it succeeds, fails with
  /// a non-transient error or has made max_attempts tries, and return its
  /// last status. Before each retry, `on_retry(backoff)` sits the backoff
  /// out on the caller's clock and books the retry.
  template <typename Body, typename OnRetry>
  static Status run(Body&& body, OnRetry&& on_retry) {
    Status s = body(1);
    for (int attempt = 2; attempt <= max_attempts && !s.ok() && transient(s.code());
         ++attempt) {
      on_retry(backoff_before(attempt - 1));
      s = body(attempt);
    }
    return s;
  }
};

class StorageSystem {
 public:
  explicit StorageSystem(StorageOptions opts);
  ~StorageSystem();

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  /// The in-memory replica tier (Tier::kMemory). File-path operations on
  /// kMemory fail with kInvalidArgument; this is the real interface.
  [[nodiscard]] ReplicaStore& memory() const noexcept { return *memory_; }
  /// The host layout every tier keeps its bytes in: the memory tier's
  /// replicas are extents of it, shared with the checkpoint files they copy.
  [[nodiscard]] SegmentStore& segments() const noexcept { return *store_; }

  /// Write (create/truncate) a file. `node` namespaces the local tier
  /// (each compute node has its own disk); ignored for kShared.
  /// On success `*sim_cost` (if non-null) is the modeled time. The write
  /// replaces the file, so a copy() that shares its old bytes keeps them.
  Status write_file(Tier tier, int node, std::string_view path,
                    std::span<const std::byte> data, double* sim_cost = nullptr,
                    int concurrency = 1);

  /// Append to a file (creating it if needed). A copy() that shares the
  /// file's bytes does not see the append.
  Status append_file(Tier tier, int node, std::string_view path,
                     std::span<const std::byte> data, double* sim_cost = nullptr,
                     int concurrency = 1);

  Status read_file(Tier tier, int node, std::string_view path, Bytes& out,
                   double* sim_cost = nullptr, int concurrency = 1);

  [[nodiscard]] bool exists(Tier tier, int node, std::string_view path) const;
  [[nodiscard]] int64_t file_size(Tier tier, int node, std::string_view path) const;

  /// Drop a path (recursively); copies of its files keep their bytes.
  Status remove(Tier tier, int node, std::string_view path);
  /// Recursively list file paths (relative) under a logical directory.
  Status list_dir(Tier tier, int node, std::string_view dir,
                  std::vector<std::string>& names) const;

  /// Copy a file across tiers (the copier/prefetcher primitive). Draws the
  /// faults and books the TierStats and cost of read_file(src) followed by
  /// write_file(dst), in that order. On the host, a copy whose bytes
  /// would be a prefix of the source's (no corrupt read) shares them and
  /// writes none, whatever the tiers or nodes; a corrupt read's copy
  /// writes its flipped bytes.
  Status copy(Tier src_tier, int src_node, std::string_view src_path,
              Tier dst_tier, int dst_node, std::string_view dst_path,
              double* sim_cost = nullptr, int concurrency = 1);

  /// Model a node crash: node-local files are lost. (A plain process crash
  /// leaves them intact; the checkpoint/restart model depends on that.)
  void wipe_node_local(int node);

  /// Pure cost query (no I/O): used by components that batch real I/O but
  /// charge modeled time per logical operation.
  [[nodiscard]] double cost_of(Tier tier, size_t bytes, int ops,
                               int concurrency = 1) const noexcept;

  [[nodiscard]] TierStats stats(Tier tier) const;
  [[nodiscard]] const StorageOptions& options() const noexcept { return opts_; }

  /// Deterministic fault injection: the next `count` read/write/append
  /// operations fail with `error`. Kept for tests that need an exact
  /// failure (e.g. "the first read fails, the retry succeeds"); the
  /// probabilistic injector below is the general mechanism.
  void inject_io_failures(int count, Status error = {ErrorCode::kIo,
                                                     "injected I/O failure"});

  /// Arm the seeded probabilistic fault injector (torn writes, bit flips,
  /// clean failures; per tier, optionally path-filtered). Replaces any
  /// previous configuration; fault statistics keep accumulating.
  void set_fault_injector(FaultInjectorConfig cfg);
  /// Disarm the probabilistic injector (stats are retained).
  void clear_fault_injector();
  [[nodiscard]] FaultStats fault_stats() const;

 private:
  Status check_tier(Tier tier) const;

  /// The one body of write_file (truncate) and append_file (`append`):
  /// fault decision, file write, modeled cost and TierStats booking.
  Status write_body(Tier tier, int node, std::string_view path,
                    std::span<const std::byte> data, double* sim_cost,
                    int concurrency, bool append) FTMR_EXCLUDES(stats_mu_);

  /// The halves that read_file, write_body and copy share.
  /// decide_read and decide_write check the tier and draw the operation's
  /// injected fault; book_read flips the drawn bit of a corrupt read's
  /// `*data` and counts the read, book_write counts the write.
  Status decide_read(Tier tier, std::string_view path, bool* corrupt)
      FTMR_EXCLUDES(stats_mu_);
  Status decide_write(Tier tier, std::string_view path, size_t size, size_t* prefix)
      FTMR_EXCLUDES(stats_mu_);
  void book_read(Tier tier, size_t bytes, Bytes* data, bool corrupt)
      FTMR_EXCLUDES(stats_mu_);
  void book_write(Tier tier, size_t bytes) FTMR_EXCLUDES(stats_mu_);

  const TierFaults& faults_of(Tier tier) const FTMR_REQUIRES(stats_mu_) {
    return tier == Tier::kLocal ? local_faults_ : shared_faults_;
  }
  TierStats& stats_of(Tier tier) FTMR_REQUIRES(stats_mu_) {
    return tier == Tier::kLocal ? local_stats_ : shared_stats_;
  }

  // `opts_` is immutable after construction; host I/O is delegated to the
  // (thread-safe) segment store. Everything else mutable — counters and
  // the fault injector, whose one seeded stream both file tiers draw from —
  // lives under stats_mu_, which rank threads and the stress tests hit
  // concurrently.
  StorageOptions opts_;
  mutable Mutex stats_mu_{"storage.stats"};
  TierStats local_stats_ FTMR_GUARDED_BY(stats_mu_);
  TierStats shared_stats_ FTMR_GUARDED_BY(stats_mu_);
  TierFaults local_faults_ FTMR_GUARDED_BY(stats_mu_);
  TierFaults shared_faults_ FTMR_GUARDED_BY(stats_mu_);
  FaultInjector injector_ FTMR_GUARDED_BY(stats_mu_);
  // unique_ptrs to forward-declared types: replica.hpp and
  // segment_store.hpp include this header, so the concrete types are only
  // visible in storage.cpp. The replica store holds extents of the segment
  // store, so it is built after it and destroyed before it.
  std::unique_ptr<SegmentStore> store_;
  std::unique_ptr<ReplicaStore> memory_;
};

/// RAII temp sandbox for tests/benches: creates a unique directory under
/// the system temp dir and removes it on destruction.
class TempDir {
 public:
  explicit TempDir(std::string_view prefix = "ftmr");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace ftmr::storage
