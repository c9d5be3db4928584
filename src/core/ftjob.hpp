// ftjob.hpp — the FT-MRMPI job engine.
//
// This is the paper's primary contribution assembled: the task runner with
// record-level commit points (Sec. 3.2, Algorithm 1), distributed masters
// (3.3), the automated load balancer (3.4), asynchronous record/chunk
// checkpointing with local+copier placement (4.1), and the two fault-
// tolerance models:
//
//   * checkpoint/restart (4.1) — a custom MPI error handler flushes state
//     and calls MPI_Abort; the process manager tears the job down; the user
//     resubmits; the new job primes itself from checkpoints and skips
//     processed records.
//   * detect/resume (4.2) — ULFM: the detecting rank revokes the work
//     communicator, survivors shrink, agree, redistribute the dead
//     ranks' work (work-conserving: read their checkpoints; non-work-
//     conserving: re-execute their tasks), and resume in place with fewer
//     processes. Continuous failures shrink repeatedly.
//
// Execution model. A job is a sequence of map-shuffle-reduce *stages*
// driven by a user callback (the driver). Keys hash into a fixed set of
// P0 = initial-comm-size partitions; partitions (not ranks) are the unit of
// reduce work and of post-failure redistribution. The driver is replayed
// after every recovery; completed stages fast-forward from retained or
// recovered state, the current stage re-enters mid-phase and skips
// committed records. All of this is deterministic in virtual time.
#pragma once

#include <functional>
#include <memory>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "core/balancer.hpp"
#include "core/checkpoint.hpp"
#include "core/interfaces.hpp"
#include "core/map_stores.hpp"
#include "core/master.hpp"
#include "core/recovery_plan.hpp"
#include "mr/convert.hpp"
#include "mr/kv.hpp"
#include "mr/shuffle.hpp"
#include "simmpi/comm.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {

enum class FtMode {
  kNone,              // baseline behaviour: a failure aborts the job
  kCheckpointRestart, // Sec. 4.1
  kDetectResumeWC,    // Sec. 4.2, work-conserving
  kDetectResumeNWC,   // Sec. 4.2, non-work-conserving
};

struct FtJobOptions {
  FtMode mode = FtMode::kDetectResumeWC;
  CkptOptions ckpt{};
  std::string input_dir = "input";
  std::string output_dir = "output";
  double map_cost_per_record = 2e-7;
  int ppn = 8;
  bool two_pass_convert = true;
  size_t convert_segment_bytes = 4096;
  bool load_balance = true;
  /// Checkpoint/restart: read recovery state from the shared tier instead
  /// of the node-local disk (the Fig. 15 recovery-source ablation).
  bool restart_read_shared = false;
  /// TEST-ONLY fault: deliberately break recovery by adopting checkpointed
  /// record cursors while dropping the KV data they cover (both the
  /// work-conserving adoption path and checkpoint/restart priming). The
  /// resumed job then skips records it never re-emits — a silent-data-loss
  /// bug by construction. The schedule explorer's mutation sanity check
  /// flips this flag to prove its invariants can actually fail; it must
  /// never be set outside tests (see testing/explorer.hpp).
  bool testing_break_recovery = false;
  /// TEST-ONLY fault: deliberately break cross-iteration checkpoint reuse.
  /// The iterative engine (core/iterjob.hpp) invalidates the retained state
  /// of an already-completed round on the first post-failure driver replay,
  /// forcing it to re-execute. Re-execution is deterministic, so the final
  /// output stays byte-identical — only the iteration-reuse invariants
  /// (testing/invariants.hpp) can catch it. The schedule explorer's
  /// mutation sanity check flips this flag to prove those invariants can
  /// actually fail; it must never be set outside tests.
  bool testing_break_iteration_reuse = false;
  /// Optional output formatter (Table 1: FileRecordWriter). When set,
  /// write_output() serializes each final record through it (e.g. a
  /// TsvRecordWriter produces "key<TAB>value" text); when unset, output is
  /// the library's length-prefixed binary encoding. The views alias the
  /// output buffer's arena and are valid only for the duration of the call.
  std::function<void(std::string_view key, std::string_view value,
                     std::string& sink)> output_writer;
  /// Per-rank byte budget for intermediate KV/KMV residency. Map output,
  /// shuffle-received partitions, and the convert result always live in
  /// spill-backed buffers; with a budget they page under `spill_dir`, the
  /// shuffle exchanges data in budget-bounded rounds, and shuffle-end
  /// partition checkpoints stream page-by-page — peak residency stays
  /// O(budget) however large the dataset. 0 = the buffers never spill. See
  /// DESIGN.md "Out-of-core KV".
  size_t memory_budget = 0;
  /// Scratch namespace on the node-local tier for spill pages.
  std::string spill_dir = "spill";
  /// Spill page size; clamped so one page always fits the shared budget.
  size_t spill_page_bytes = 1 << 20;
};

/// User logic of one stage, view-typed (the Table-1 templates adapt onto
/// this via ftjob_adapters.hpp). All key/value views alias engine-owned
/// arenas and are valid only for the duration of the call — callbacks must
/// copy anything they keep.
struct StageFns {
  /// Map one input record; returns number of KV pairs emitted.
  std::function<int32_t(std::string_view key, std::string_view value,
                        mr::KvBuffer& out)> map;
  /// Reduce one key group; returns number of KV pairs emitted.
  std::function<int32_t(std::string_view key,
                        std::span<const std::string_view> values,
                        mr::KvBuffer& out)> reduce;
  /// Optional combiner: locally pre-aggregates each partition's KV pairs
  /// before the shuffle (classic MapReduce optimization; must be
  /// associative/commutative with `reduce`). Same signature as reduce.
  /// Cuts shuffle volume and shuffle-end partition checkpoints.
  std::function<int32_t(std::string_view key,
                        std::span<const std::string_view> values,
                        mr::KvBuffer& out)> combine;
  /// Optional custom input reader (Table 1: FileRecordReader). The factory
  /// is invoked per map task; default is the line-oriented TextLineReader.
  /// Only used for file-input stages.
  std::function<std::unique_ptr<FileRecordReader<int64_t, std::string>>()>
      make_reader;
  /// Optional per-stage cost overrides (<0: the job's map_cost_per_record
  /// and the engine's reduce cost per value).
  double map_cost_per_record = -1.0;
  double reduce_cost_per_value = -1.0;
};

/// Thrown internally when an MPI-level failure is observed in detect/resume
/// mode; caught by FtJob::run, which recovers and replays the driver.
struct FailureDetected {
  Status cause;
};

/// Thread model: one FtJob per rank, confined to that rank's thread. The
/// only cross-thread objects it touches are the shared StorageSystem (its
/// stats/injector state is internally locked) and the simmpi Job state
/// behind the communicators (guarded by the job-wide mutex). All stage
/// state, KV buffers, and time buckets are rank-private by construction.
class FtJob {
 public:
  /// Driver: calls job.run_stage(...) once per stage, in a fixed order, and
  /// finally job.write_output(...). Replayed verbatim after recoveries.
  using Driver = std::function<Status(FtJob&)>;

  // Phase progression within a stage (core/checkpoint.hpp's StagePhase,
  // which also fixes the checkpoint kinds each phase reads back). Public so
  // the iterative engine can classify a replay encounter (fast-forward vs
  // re-entry) via stage_phase().
  using enum StagePhase;

  FtJob(simmpi::Comm& world, storage::StorageSystem* fs, FtJobOptions opts);

  /// Execute the job (driver + recovery loop). In checkpoint/restart mode a
  /// failure ends with MPI_Abort (this call never returns on that path —
  /// the AbortError propagates); the caller resubmits via Runtime::run and
  /// the fresh FtJob primes itself from checkpoints.
  Status run(const Driver& driver);

  /// One map-shuffle-reduce stage. `kv_input=false`: map reads the input
  /// chunks in options.input_dir. `kv_input=true`: map iterates the
  /// previous stage's output partitions (iterative jobs). `output`, if
  /// non-null, receives this rank's reduce output for the stage.
  Status run_stage(const StageFns& fns, bool kv_input, mr::KvBuffer* output);

  /// Write this rank's final output (its owned partitions of the last
  /// stage) under options.output_dir.
  Status write_output();

  // -- introspection --
  [[nodiscard]] const TimeBuckets& times() const noexcept { return times_; }
  [[nodiscard]] TimeBuckets& mutable_times() noexcept { return times_; }
  /// This rank's trace recorder. Phase spans (cat "phase") mirror every
  /// seconds-valued TimeBuckets charge 1:1; component spans/instants
  /// (cats "ckpt", "copier", "prefetch", "master", "shuffle") ride along.
  /// Recording is always on and stores 32-byte records of interned ids;
  /// events() builds the strings only when something reads the trace.
  /// Merge into a collector after the rank threads join (the recorder is
  /// internally locked, but the convention keeps exports deterministic).
  [[nodiscard]] metrics::TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] simmpi::Comm& work_comm() noexcept { return wc_; }
  [[nodiscard]] int initial_size() const noexcept { return p0_; }
  [[nodiscard]] int node() const noexcept;
  [[nodiscard]] const std::vector<int>& partition_owners() const noexcept {
    return owners_.part_owner;
  }
  [[nodiscard]] DistributedMaster& master() noexcept { return *master_; }
  [[nodiscard]] CheckpointManager& ckpt() noexcept { return *ckpt_; }
  [[nodiscard]] bool resumed_from_checkpoint() const noexcept {
    return primed_from_ckpt_;
  }
  [[nodiscard]] int recoveries() const noexcept { return recoveries_; }
  /// Resident-byte accounting across every spill-backed buffer this rank
  /// opened; `peak` is the high-water mark a memory_budget promises to
  /// bound (without one it is the in-core intermediate-data peak).
  [[nodiscard]] const mr::ResidencyMeter& residency() const noexcept {
    return meter_;
  }
  [[nodiscard]] const FtJobOptions& options() const noexcept { return opts_; }
  // Invariant probes (read-only views for the schedule explorer and the
  // redistribution-invariant tests; see testing/invariants.hpp).
  /// Stage-0 file tasks reassigned away from their hash-default owner
  /// (task id -> inheriting global rank), accumulated across recoveries.
  [[nodiscard]] const std::map<uint64_t, int>& task_reassignments() const noexcept {
    return owners_.task_reassign;
  }
  /// Global ranks this rank knows to be dead (post-census union).
  [[nodiscard]] const std::set<int>& known_dead() const noexcept {
    return known_dead_;
  }
  /// Stage-0 input chunk names, in task-id order (empty until the first
  /// file-input stage listed the input directory).
  [[nodiscard]] const std::vector<std::string>& input_chunks() const noexcept {
    return chunks_;
  }
  /// Phase of a stage this rank holds state for (a Phase value), or -1 when
  /// the stage has no state yet. Lets the iterative engine tell a replay
  /// fast-forward (kPhaseDone) from a partial re-entry from first
  /// execution before the driver calls run_stage().
  [[nodiscard]] int stage_phase(int stage) const noexcept {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? -1 : it->second.phase;
  }
  /// Bytes held in map and reduce checkpoint deltas not yet written. Zero
  /// whenever checkpoints are off (no delta is kept) and once every task
  /// and partition has flushed its tail.
  [[nodiscard]] size_t pending_delta_bytes() const noexcept;
  /// Map stores (resident and parked) this rank holds for a stage. A
  /// detect/resume rank keeps them, parked, from its map boundary until
  /// the stage is done; the other modes free them in the shuffle.
  [[nodiscard]] size_t map_stores_held(int stage) const noexcept {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? 0 : it->second.map_output.size();
  }
  /// The parked ones among them.
  [[nodiscard]] size_t map_stores_parked(int stage) const noexcept {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? 0 : it->second.map_output.parked();
  }
  /// TEST-ONLY: drop a stage's retained state so the next run_stage() call
  /// re-executes it from scratch. This is the iteration-reuse mutation hook
  /// (FtJobOptions::testing_break_iteration_reuse); never call it outside
  /// tests.
  void testing_invalidate_stage(int stage) { stages_.erase(stage); }

 private:
  /// Reduce cost per value of a stage that sets no override.
  static constexpr double kReduceCostPerValue = 1e-7;
  /// Cost of skipping one committed record (or reduce entry) on resume.
  static constexpr double kSkipCostPerRecord = 1e-8;

  /// A committed cursor and the delta checkpoint chain behind it: input
  /// records for a map task, KMV entries for a reduce partition.
  struct Progress {
    uint64_t pos = 0;            // committed cursor
    uint64_t last_ckpt_pos = 0;  // cursor at the last checkpoint
    bool done = false;
    mr::KvBuffer pending_delta;  // emitted since the last checkpoint
  };

  struct TaskProgress : Progress {
    // Emitted KV, partitioned (P0), until the task completes and moves it
    // into StageState::map_output.
    std::vector<mr::KvBuffer> parts;
  };

  struct ReduceProgress : Progress {
    mr::KvBuffer out;
    /// The partition's convert result, streamed into reduce (survives a
    /// FailureDetected unwind so re-entry resumes mid-stream).
    std::unique_ptr<mr::SpillableKmvBuffer> kmv;
  };

  struct StageState {
    StagePhase phase = kPhaseMap;
    // Task-id space marker: file-input stages key `tasks` by input chunk,
    // kv-input stages by partition. Recovery must restore a dead rank's map
    // progress in the right space (set by run_stage on every entry).
    bool kv_input = false;
    std::map<uint64_t, TaskProgress> tasks;
    // Completed map tasks' output, by partition (parked by detect/resume
    // at the map boundary).
    MapStores map_output;
    // Shuffle-received data, per owned partition; consumed by the convert.
    std::map<int, mr::SpillableKvBuffer> partitions;
    std::set<int> partitions_missing;  // orphans needing NWC rebuild
    std::map<int, ReduceProgress> reduce;
    std::map<int, mr::KvBuffer> outputs;  // reduce output per owned partition
  };

  // -- helpers --
  /// Route a status: OK passes; failure classes throw FailureDetected (or
  /// flush+abort in CR mode); anything else is returned.
  Status check(Status s);
  [[nodiscard]] bool is_failure(const Status& s) const noexcept;
  /// Write the pending delta of a map task (TaskProgress) or a reduce
  /// partition (ReduceProgress) as one checkpoint covering
  /// [last_ckpt_pos, pos), then clear it and advance last_ckpt_pos. Not
  /// routed through check(): the C/R error handler inside check() calls it.
  template <class P>
  Status flush_delta(int stage, uint64_t id, P& pr);
  /// flush_delta routed through check() and charged to the ckpt bucket.
  template <class P>
  Status checkpoint_delta(int stage, uint64_t id, P& pr);
  /// Algorithm 1's commit point at cursor pr.pos, shared by the map and
  /// reduce loops: the due record checkpoint, then on every 64th cursor the
  /// master's progress update and the failed-rank check. A non-OK status
  /// (routed through check) ends the task.
  template <class P>
  Status commit(int stage, uint64_t id, P& pr);
  /// Charge the resume skip over pr.pos committed records (entries).
  void charge_skip(const Progress& pr);
  /// Census allgather: each rank contributes its ids (u32 count + i32 ids)
  /// and `out` becomes the union over all ranks. One op.
  Status allgather_union(std::span<const int> mine, std::set<int>& out);
  Status map_phase(const StageFns& fns, bool kv_input, int stage, StageState& st);
  Status run_one_map_task(const StageFns& fns, bool kv_input, int stage,
                          StageState& st, uint64_t task);
  Status shuffle_phase(const StageFns& fns, int stage, StageState& st);
  Status rebuild_orphan_partitions(const StageFns& fns, int stage,
                                   StageState& st,
                                   const std::vector<int>& missing);
  /// The seal step after an exchange: shrink the stores of `parts` (owned
  /// partitions; nothing more arrives) and, with checkpoints on, checkpoint
  /// each and drain.
  Status seal_partitions(int stage, StageState& st, std::span<const int> parts);
  Status reduce_phase(const StageFns& fns, int stage, StageState& st);
  Status reduce_partition(const StageFns& fns, int stage, StageState& st,
                          int p, ReduceProgress& rp);
  /// Spill namespace for one component of one stage on this rank; the
  /// per-rank budget is split evenly between the KV side (map output or
  /// received partitions) and the convert/KMV side. Without a budget the
  /// config never spills (it only carries the residency meter).
  [[nodiscard]] mr::SpillConfig spill_config(int stage,
                                             std::string_view what) const;
  /// Detect/resume: survivors rebuild orphaned partitions from the map
  /// stores they kept, so the stores live until the stage is done.
  [[nodiscard]] bool rebuilds_orphans() const noexcept {
    return opts_.mode == FtMode::kDetectResumeWC ||
           opts_.mode == FtMode::kDetectResumeNWC;
  }
  /// Makes the stage's spill store for map-output partition p (budget
  /// shared across all P0 partitions).
  [[nodiscard]] MapStores::Make make_map_store(int stage) const;
  /// The unbounded shuffle round's blocks: every map store whole, parked
  /// images read straight from their run or, where nothing rebuilds from
  /// the stores, resident arenas handed over and released with the rows.
  Status fill_whole_stores(const StageFns& fns, StageState& st,
                           std::vector<mr::ExchangeRow>& rows);
  /// The stage's spill store for owned partition p (created on first use,
  /// budget shared across this rank's owned partitions).
  mr::SpillableKvBuffer& partition_store(StageState& st, int stage, int p);
  /// The exchange delivery both shuffle paths use: each received block is
  /// appended as a page to its owned-partition spill store.
  mr::ExchangeDeliver into_partitions(StageState& st, int stage);
  /// Shuffle-end checkpoint of owned partition p (see DESIGN.md
  /// "Out-of-core KV" for the writer choice).
  Status checkpoint_partition(StageState& st, int stage, int p);
  void recover();
  /// Apply a detect/resume recovery plan (core/recovery_plan.hpp): the new
  /// owner tables, the NWC drop or rebuild, and each WC read through load()
  /// and adopt_stage(). `horizon` bounds the drained checkpoints it reads.
  void apply_plan(const RecoveryPlan& plan, double horizon);
  void prime_from_own_checkpoints();
  /// The one load step of recovery and restart priming: read what `read`
  /// names into `rec`, charging the time to `bucket`.
  Status load(const CkptRead& read, bool from_shared, double horizon,
              const char* bucket, RankRecovery& rec);
  /// The one adoption step of recovered checkpoint state, shared by
  /// work-conserving recovery and checkpoint/restart priming (the callers
  /// set st.phase, choose what to adopt and load `rec` with the kinds
  /// st.phase consumes, kinds_read_at). By st.phase: kPhaseDone adopts
  /// the stage outputs of `parts`; kPhaseMap adopts each of `tasks` whose
  /// recovered cursor is newer than the one held, with its KV split into
  /// the P0 parts (testing_break_recovery keeps the cursor and drops the
  /// KV); kPhaseShuffleDone adopts the partitions of `parts` and their
  /// reduce progress, or a finished partition's output snapshot in place
  /// of a lost partition snapshot. Returns the partitions of `parts` it
  /// could adopt neither way.
  std::vector<int> adopt_stage(StageState& st, int stage, RankRecovery& rec,
                               const std::set<uint64_t>& tasks,
                               std::span<const int> parts);
  /// Partitions this rank owns, ascending.
  [[nodiscard]] const std::vector<int>& owned_partitions() const noexcept {
    return owners_.owned;
  }
  /// Global rank that runs stage-0 file task t.
  [[nodiscard]] int task_owner(uint64_t t) const;
  [[nodiscard]] std::vector<uint64_t> my_task_ids(bool kv_input) const;
  /// List the stage-0 input chunks once.
  Status list_chunks();
  [[nodiscard]] int owner_rel(int partition) const;  // rel rank on wc_
  [[nodiscard]] double current_map_cost(const StageFns& f) const {
    return f.map_cost_per_record >= 0 ? f.map_cost_per_record
                                      : opts_.map_cost_per_record;
  }
  [[nodiscard]] static double current_reduce_cost(const StageFns& f) {
    return f.reduce_cost_per_value >= 0 ? f.reduce_cost_per_value
                                        : kReduceCostPerValue;
  }
  /// Charge wc_.now()-t0 into `bucket` AND record the matching phase span,
  /// so the trace reproduces the TimeBuckets decomposition exactly.
  void charge_span(const char* bucket, double t0);
  /// Advance the clock by a pre-computed cost and charge it the same way:
  /// the span covers [now-cost, now].
  void charge_cost(const char* bucket, double cost);

  simmpi::Comm world_;  // never shrinks; failure census
  simmpi::Comm wc_;     // work comm (shrinks on recovery)
  storage::StorageSystem* fs_;
  FtJobOptions opts_;
  int p0_;  // initial size == partition count
  std::unique_ptr<DistributedMaster> master_;
  std::unique_ptr<CheckpointManager> ckpt_;

  std::vector<std::string> chunks_;        // stage-0 input chunk names
  Owners owners_;
  std::set<int> known_dead_;               // global ranks

  std::map<int, StageState> stages_;
  int stage_cursor_ = 0;
  int last_stage_ = -1;
  bool primed_from_ckpt_ = false;
  int recoveries_ = 0;
  TimeBuckets times_;
  // Mutated through SpillConfig::meter by the buffers spill_config() opens
  // (accounting state, like times_; spill_config itself stays const).
  mutable mr::ResidencyMeter meter_;
  metrics::TraceRecorder trace_;
  double map_bytes_done_ = 0.0;  // load-balancer observation feed
  double map_vtime_spent_ = 0.0;
};

}  // namespace ftmr::core
