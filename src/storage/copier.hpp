// copier.hpp — background checkpoint copier and recovery prefetcher.
//
// Paper Sec. 4.1.3: FT-MRMPI writes fine-grained checkpoints to the
// node-local disk (cheap small I/O) and a background copier thread owned by
// the master moves them to the shared persistent storage, overlapping the
// slow shared-storage I/O with computation. Sec. 5.1 adds the symmetric
// refinement for recovery: a prefetcher moves checkpoints shared->local
// ahead of the reader.
//
// Substitution note (see DESIGN.md): the copier here is a *virtual-time
// agent*, not an OS thread. It performs the real file copy synchronously
// (correctness: bytes actually land on the shared tier) but accounts the
// copy on its own simulated timeline, so the worker only pays when it must
// wait for the drain at a phase boundary — which is exactly the overlap the
// paper's thread achieves, made deterministic.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "storage/storage.hpp"

namespace ftmr::storage {

/// A drain the retry ladder gave up on. Reported, never silently
/// dropped: recovery treats the missing shared copy as lost-but-known work.
struct FailedDrain {
  std::string local_path;
  std::string shared_path;
  Status error;
};

/// Drains node-local files to shared storage on a simulated background
/// timeline. Thread-safe (a master and a worker may both interact with it).
class CopierAgent {
 public:
  CopierAgent(StorageSystem* storage, int node, int shared_concurrency)
      : storage_(storage), node_(node), concurrency_(shared_concurrency) {}

  /// Copy local:`local_path` -> shared:`shared_path`, issued at worker
  /// virtual time `now`. The real copy happens immediately; `*done_at`
  /// (if non-null) receives the simulated completion time on the copier's
  /// timeline. Transient I/O errors climb the RetryPolicy ladder (the
  /// backoff elapses on the copier's timeline); a drain that fails for good
  /// is recorded in failed_drains() and its error returned.
  Status enqueue(std::string_view local_path, std::string_view shared_path,
                 double now, double* done_at = nullptr);

  /// Simulated time at which all accepted copies are finished.
  [[nodiscard]] double busy_until() const;

  /// Seconds the worker must wait at a sync point at virtual time `now`
  /// for the copier to drain (0 if it already caught up).
  [[nodiscard]] double drain_wait(double now) const;

  [[nodiscard]] double cpu_seconds() const;      // Fig. 7 "CPU time copier"
  [[nodiscard]] double io_seconds() const;       // copier-side I/O time
  [[nodiscard]] size_t bytes_copied() const;
  [[nodiscard]] int copies() const;
  [[nodiscard]] int retries() const;             // transient errors retried
  [[nodiscard]] std::vector<FailedDrain> failed_drains() const;

  /// Record per-copy spans ("copier.copy" on the copier's timeline) and
  /// retry instants into `t` (not owned; may be null). Must be set before
  /// concurrent use; the recorder itself is internally lock-serialized, so
  /// the copier emits into it without holding mu_ (leaf-lock discipline:
  /// no out-calls under mu_).
  void set_trace(metrics::TraceRecorder* t) noexcept { trace_ = t; }

 private:
  // Configuration is immutable after construction; the copier's simulated
  // timeline and its counters are shared between the enqueueing worker and
  // anyone polling drain progress, so they live under mu_.
  StorageSystem* storage_;
  int node_;
  int concurrency_;
  mutable Mutex mu_{"copier.mu"};
  double busy_until_ FTMR_GUARDED_BY(mu_) = 0.0;
  double cpu_seconds_ FTMR_GUARDED_BY(mu_) = 0.0;
  double io_seconds_ FTMR_GUARDED_BY(mu_) = 0.0;
  size_t bytes_ FTMR_GUARDED_BY(mu_) = 0;
  int copies_ FTMR_GUARDED_BY(mu_) = 0;
  int retries_ FTMR_GUARDED_BY(mu_) = 0;
  std::vector<FailedDrain> failed_ FTMR_GUARDED_BY(mu_);
  metrics::TraceRecorder* trace_ = nullptr;  // set-once, before concurrency
};

/// Moves an ordered sequence of shared-storage files to the local disk
/// ahead of a recovering reader (Sec. 5.1). Deterministic virtual-time
/// pipeline: file i becomes locally available at
///   start + sum_{j<=i} (shared read + local write) costs.
/// A reader consuming file i at time t pays max(0, available_at(i) - t)
/// plus the local read cost — instead of the full shared read cost.
///
/// NOT thread-safe: a Prefetcher instance is confined to the recovering
/// rank's thread (start() rebuilds all state, read() consumes it). Cross-
/// thread sharing would race on the staging vectors; use one instance per
/// recovering rank.
class Prefetcher {
 public:
  Prefetcher(StorageSystem* storage, int node, int shared_concurrency)
      : storage_(storage), node_(node), concurrency_(shared_concurrency) {}

  /// Start prefetching `shared_paths` (in consumption order) at virtual
  /// time `start`. Files are copied under local:`local_prefix`/<basename>.
  /// Transient copy errors climb the RetryPolicy ladder on the pipeline
  /// timeline; a file that still fails is marked unavailable (its
  /// read() reports the error so the reader can fall back to the shared
  /// tier directly) instead of aborting the whole pipeline.
  Status start(std::span<const std::string> shared_paths,
               std::string_view local_prefix, double start);

  /// Number of files staged.
  [[nodiscard]] size_t count() const { return available_at_.size(); }

  /// Simulated time at which the i-th file is fully staged locally.
  [[nodiscard]] double available_at(size_t i) const { return available_at_[i]; }

  /// Local path of the i-th staged file.
  [[nodiscard]] const std::string& local_path(size_t i) const {
    return local_paths_[i];
  }

  /// Read the i-th file at virtual time `now`; returns the simulated
  /// seconds the reader spends (stall-for-prefetch + local read).
  Status read(size_t i, double now, Bytes& out, double* sim_cost);

  /// True if the i-th file was staged successfully (read() can serve it).
  [[nodiscard]] bool staged_ok(size_t i) const {
    return i < staged_error_.size() && staged_error_[i].ok();
  }
  [[nodiscard]] int retries() const { return retries_; }

  /// Record per-file staging spans ("prefetch.stage" on the pipeline
  /// timeline), read spans, and retry instants into `t` (not owned; may be
  /// null). The Prefetcher itself stays rank-confined.
  void set_trace(metrics::TraceRecorder* t) noexcept { trace_ = t; }

 private:
  StorageSystem* storage_;
  int node_;
  int concurrency_;
  int retries_ = 0;
  std::vector<double> available_at_;
  std::vector<std::string> local_paths_;
  std::vector<Status> staged_error_;  // per-file: Ok or the permanent error
  metrics::TraceRecorder* trace_ = nullptr;
};

}  // namespace ftmr::storage
