// recovery_plan.hpp — detect/resume recovery (paper Sec. 4.2) as a value.
//
// plan_recovery() decides who inherits the dead ranks' partitions and
// stage-0 tasks and what this rank reads (work-conserving, WC) or re-runs
// (NWC), from inputs FtJob gathered first. It does no communication and no
// I/O, so every survivor derives the identical owner tables, and a test
// can check a plan at any rank count. FtJob::apply_plan() runs it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/regression.hpp"
#include "core/checkpoint.hpp"

namespace ftmr::core {

struct PlanStage {
  int stage = 0;
  StagePhase phase = kPhaseMap;
  bool kv_input = false;  // its map tasks are partitions, not input chunks
};

/// Who runs what.
struct Owners {
  std::vector<int> part_owner;            // partition -> global rank
  std::vector<int> owned;                 // this rank's partitions, ascending
  std::map<uint64_t, int> task_reassign;  // stage-0 task -> new global rank
};

struct RecoveryInputs {
  int me = 0;                   // this rank (global)
  bool work_conserving = true;  // false: NWC
  std::vector<int> new_dead;    // dead since the last plan, ascending
  std::set<int> dead;           // every dead rank, new_dead included
  std::vector<int> live;        // shrunken comm: rel rank -> global rank
  Owners owners;
  std::vector<int64_t> chunk_bytes;  // stage-0 chunk sizes by task (<=0: 1)
  std::vector<LinearModel> models;   // balancer model per rel rank
  std::vector<PlanStage> stages;     // ascending
};

struct RecoveryPlan {
  // After recovery: survivors keep their work, and each orphan goes where
  // the balancer predicts the earliest finish.
  Owners owners;
  std::set<uint64_t> tasks;     // inherited stage-0 file tasks
  std::vector<int> partitions;  // inherited partitions, ascending
  // WC: one read per (newly dead rank, stage), in that order, of the kinds
  // the survivor's phase of the stage consumes, covering the inherited work.
  // A stage of which this rank inherited nothing has no read.
  std::vector<CkptRead> reads;
  // NWC: a job past its first stage drops every stage. In stage 0 after
  // the map phase, `rebuild` marks every orphaned partition (`missing`) for
  // the rebuild and seeds the inherited `tasks` for re-execution.
  bool drop_stages = false;
  bool rebuild = false;
  std::vector<int> missing;

  /// A stage's inherited map tasks: the file tasks, or the partitions on a
  /// kv-input stage.
  [[nodiscard]] std::set<uint64_t> tasks_of(bool kv_input) const {
    return kv_input ? std::set<uint64_t>(partitions.begin(), partitions.end()) : tasks;
  }
};

[[nodiscard]] RecoveryPlan plan_recovery(const RecoveryInputs& in);

}  // namespace ftmr::core
