// master.hpp — the distributed master (paper Sec. 3.3).
//
// One master per process; no dedicated master process (which would be both
// a wasted rank and a single point of failure — Sec. 2.2). The master
//   * creates one task per input chunk and assigns tasks by hashing the
//     task id, identically on every rank with no coordination;
//   * tracks local task progress and periodically broadcasts it to the
//     other masters, keeping a merged global status table;
//   * piggybacks the load-balancer's profiling observation on the status
//     message so every rank can fit every other rank's linear model.
//
// Substitution note (DESIGN.md): the paper runs the master as a dedicated
// thread. Here its logic is driven at the task runner's commit() points and
// at phase boundaries; the messaging is identical (a dedicated, dup'ed
// communicator), and the background data movement the paper delegates to
// the master thread is carried by the virtual-time CopierAgent.
#pragma once

#include <optional>

#include "common/metrics.hpp"
#include "common/regression.hpp"
#include "core/task.hpp"
#include "simmpi/comm.hpp"

namespace ftmr::core {

/// Thread model: one DistributedMaster per rank, confined to that rank's
/// thread. Cross-rank coordination happens exclusively through the
/// dedicated communicator (whose Job-level state is lock-protected inside
/// simmpi), never through shared memory — so the task tables and the
/// balancer fit need no locks.
class DistributedMaster {
 public:
  /// `mcomm` must be a dedicated communicator (typically a non-time-
  /// accounting dup of the work comm) so gossip never cross-matches with
  /// data-plane traffic.
  DistributedMaster(simmpi::Comm& mcomm, int status_interval_commits = 256);

  /// Deterministic hash assignment of `ntasks` tasks over `nranks` ranks;
  /// returns this rank's task ids (every master computes the same global
  /// mapping — Sec. 3.3).
  static std::vector<uint64_t> assign_tasks(size_t ntasks, int nranks, int rank);

  // -- local progress tracking (called by the task runner) --
  void on_task_start(uint64_t task_id, uint64_t total_bytes);
  void on_task_progress(uint64_t task_id, uint64_t records_done,
                        uint64_t bytes_done);
  void on_task_done(uint64_t task_id, uint64_t records_done, uint64_t bytes_done);

  /// Called at every commit(): counts commits, and every `status_interval`
  /// commits broadcasts local status and drains incoming gossip.
  /// Returns a non-OK status when the gossip I/O observes a failure — the
  /// caller's failure handler takes it from there.
  Status tick();

  /// Force a status exchange immediately (phase boundaries).
  Status exchange_now();

  /// Merged global view (own table + everything gossiped in).
  [[nodiscard]] const TaskTable& global_table() const noexcept { return global_; }
  [[nodiscard]] const TaskTable& local_table() const noexcept { return local_; }

  /// The observation fed by the runner for the load balancer.
  void observe(double units_done, double elapsed) {
    units_done_ = units_done;
    elapsed_ = elapsed;
    fit_.add(units_done, elapsed);
  }
  [[nodiscard]] LinearModel local_model() const { return fit_.fit(); }
  /// Latest gossiped observation of rank `r` (rel rank on mcomm), if any.
  [[nodiscard]] std::optional<std::pair<double, double>> peer_observation(int r) const;

  [[nodiscard]] simmpi::Comm& comm() noexcept { return mcomm_; }
  /// Re-bind the master to a shrunken communicator after recovery.
  void rebind(simmpi::Comm mcomm) { mcomm_ = std::move(mcomm); }

  /// Record gossip broadcast/drain spans into `t` (not owned; may be null).
  /// Set once during job construction, before any gossip traffic.
  void set_trace(metrics::TraceRecorder* t) noexcept { trace_ = t; }

 private:
  Status broadcast_status();
  Status drain_inbox();

  simmpi::Comm mcomm_;
  int status_interval_;
  int64_t commits_since_exchange_ = 0;
  TaskTable local_;
  TaskTable global_;
  OnlineLinearFit fit_;
  double units_done_ = 0.0;
  double elapsed_ = 0.0;
  std::vector<std::pair<double, double>> peer_obs_;  // rel rank -> (units, t)
  std::vector<bool> peer_obs_valid_;
  metrics::TraceRecorder* trace_ = nullptr;
};

}  // namespace ftmr::core
