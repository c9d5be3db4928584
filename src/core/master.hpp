// master.hpp — the distributed master (paper Sec. 3.3).
//
// One master per process; no dedicated master process (which would be both
// a wasted rank and a single point of failure — Sec. 2.2). The master
//   * creates one task per input chunk and assigns tasks by hashing the
//     task id, identically on every rank with no coordination;
//   * tracks local task progress and, at the end of every map phase,
//     exchanges it with the other masters in one allgather, merging the
//     tables into a global status table every rank holds identically;
//   * feeds the load-balancer's profiling observations into a local linear
//     fit (the models themselves travel in LoadBalancer::exchange_models).
//
// Substitution note (DESIGN.md): the paper runs the master as a dedicated
// thread that broadcasts status periodically. Here its logic is driven at
// the task runner's commit() points, and the broadcast is one collective at
// the map boundary, where every rank synchronises anyway. The background
// data movement the paper delegates to the master thread is carried by the
// virtual-time CopierAgent.
#pragma once

#include "common/metrics.hpp"
#include "common/regression.hpp"
#include "core/task.hpp"
#include "simmpi/comm.hpp"

namespace ftmr::core {

/// Thread model: one DistributedMaster per rank, confined to that rank's
/// thread. Cross-rank coordination happens exclusively through the
/// communicator (whose Job-level state is lock-protected inside simmpi),
/// never through shared memory — so the task tables and the balancer fit
/// need no locks.
class DistributedMaster {
 public:
  /// `comm` is the job's work communicator (a copy of the handle, not a
  /// dup): the exchange is a collective, so it is ordered with the other
  /// collectives every member issues on it.
  explicit DistributedMaster(simmpi::Comm& comm);

  /// Deterministic hash assignment of `ntasks` tasks over `nranks` ranks;
  /// returns this rank's task ids (every master computes the same global
  /// mapping — Sec. 3.3).
  static std::vector<uint64_t> assign_tasks(size_t ntasks, int nranks, int rank);

  // -- local progress tracking (called by the task runner) --
  void on_task_start(uint64_t task_id, uint64_t total_bytes);
  void on_task_progress(uint64_t task_id, uint64_t records_done,
                        uint64_t bytes_done);
  void on_task_done(uint64_t task_id, uint64_t records_done, uint64_t bytes_done);

  /// The status exchange: one allgather of every member's local table,
  /// merged into the global table. Collective over the comm, one op. A
  /// dead member fails it with kProcFailed (ULFM collective semantics), so
  /// it doubles as the map-boundary failure check.
  Status exchange_now();

  /// Merged global view (own table + every member's table as of the last
  /// exchange).
  [[nodiscard]] const TaskTable& global_table() const noexcept { return global_; }
  [[nodiscard]] const TaskTable& local_table() const noexcept { return local_; }

  /// The observation fed by the runner for the load balancer.
  void observe(double units_done, double elapsed) { fit_.add(units_done, elapsed); }
  [[nodiscard]] LinearModel local_model() const { return fit_.fit(); }

  /// Re-bind the master to the shrunken work communicator after recovery.
  void rebind(simmpi::Comm comm) { comm_ = std::move(comm); }

  /// Record the exchange span into `t` (not owned; may be null). Set once
  /// during job construction, before any exchange.
  void set_trace(metrics::TraceRecorder* t) noexcept { trace_ = t; }

 private:
  /// Stamp `ts` with this rank as owner and upsert it into both tables.
  void record(TaskStatus ts);

  simmpi::Comm comm_;
  TaskTable local_;
  TaskTable global_;
  OnlineLinearFit fit_;
  metrics::TraceRecorder* trace_ = nullptr;
};

}  // namespace ftmr::core
