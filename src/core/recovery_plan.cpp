#include "core/recovery_plan.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "core/balancer.hpp"

namespace ftmr::core {

namespace {

/// The one reassignment step: orphaned items of the given weights go to the
/// survivors whose predicted finish, seeded with `finish`, stays level.
/// Returns each item's new owner as a global rank.
std::vector<int> reassign(const RecoveryInputs& in, const std::vector<double>& weights,
                          std::vector<double> finish) {
  std::vector<int> owner = LoadBalancer::assign(weights, in.models, std::move(finish));
  for (int& o : owner) o = in.live[static_cast<size_t>(o)];
  return owner;
}

}  // namespace

RecoveryPlan plan_recovery(const RecoveryInputs& in) {
  RecoveryPlan plan;
  plan.owners = in.owners;
  Owners& to = plan.owners;
  const int p0 = static_cast<int>(to.part_owner.size());

  // The dead ranks' partitions. Survivors keep their own; seed each one's
  // predicted finish with the number of partitions it already owns.
  std::vector<int> orphan_parts;
  std::vector<double> held(static_cast<size_t>(p0), 0.0);  // by global rank
  for (int p = 0; p < p0; ++p) {
    const int g = to.part_owner[static_cast<size_t>(p)];
    if (in.dead.count(g)) {
      orphan_parts.push_back(p);
    } else {
      held[static_cast<size_t>(g)] += 1.0;
    }
  }
  std::vector<double> finish(in.live.size());
  for (size_t r = 0; r < finish.size(); ++r) {
    finish[r] = held[static_cast<size_t>(in.live[r])];
  }
  const std::vector<int> part_to =
      reassign(in, std::vector<double>(orphan_parts.size(), 1.0), std::move(finish));
  for (size_t i = 0; i < orphan_parts.size(); ++i) {
    to.part_owner[static_cast<size_t>(orphan_parts[i])] = part_to[i];
    if (part_to[i] == in.me) plan.partitions.push_back(orphan_parts[i]);
  }
  const auto kept = static_cast<ptrdiff_t>(to.owned.size());
  to.owned.insert(to.owned.end(), plan.partitions.begin(), plan.partitions.end());
  std::inplace_merge(to.owned.begin(), to.owned.begin() + kept, to.owned.end());

  // The dead ranks' stage-0 file tasks, weighted by chunk size.
  std::vector<uint64_t> orphan_tasks;
  std::vector<double> weights;
  for (uint64_t t = 0; t < in.chunk_bytes.size(); ++t) {
    const auto it = in.owners.task_reassign.find(t);
    const bool reassigned = it != in.owners.task_reassign.end();
    if (in.dead.count(reassigned ? it->second : assign_task_to_rank(t, p0))) {
      orphan_tasks.push_back(t);
      weights.push_back(in.chunk_bytes[t] > 0 ? static_cast<double>(in.chunk_bytes[t])
                                              : 1.0);
    }
  }
  const std::vector<int> task_to =
      reassign(in, weights, std::vector<double>(in.live.size(), 0.0));
  for (size_t i = 0; i < orphan_tasks.size(); ++i) {
    to.task_reassign[orphan_tasks[i]] = task_to[i];
    if (task_to[i] == in.me) plan.tasks.insert(orphan_tasks[i]);
  }

  if (in.work_conserving) {
    // Past the map phase a read covers the inherited partitions; in it, the
    // inherited map tasks, which on a kv-input stage are partitions too. A
    // survivor that inherited none of a stage's work reads nothing of it.
    for (int d : in.new_dead) {
      for (const PlanStage& s : in.stages) {
        std::set<uint64_t> ids = plan.tasks_of(s.kv_input || s.phase != kPhaseMap);
        if (ids.empty()) continue;
        plan.reads.push_back({s.stage, d, kinds_read_at(s.phase), false, std::move(ids)});
      }
    }
    return plan;
  }

  // NWC (Sec. 4.2.2): the lost work is re-executed. A completed stage whose
  // outputs lived (partly) in dead memory cannot be reconstructed without
  // its inputs, so a job past its first stage falls all the way back to
  // stage 0 — previously finished work is lost, exactly the behaviour Figs.
  // 11/12 show under continuous failures. A map-phase failure needs
  // nothing more: the dead tasks re-run from scratch on their new owners,
  // whose map loop now lists them. After the map phase the orphaned
  // partitions are rebuilt from the survivors' retained map outputs plus
  // the re-executed dead map tasks.
  const bool first_stage = in.stages.size() == 1 && in.stages[0].stage == 0 &&
                           in.stages[0].phase != kPhaseDone;
  if (!first_stage) {
    plan.drop_stages = !in.stages.empty();
  } else if (in.stages[0].phase != kPhaseMap) {
    plan.rebuild = true;
    plan.missing = std::move(orphan_parts);
  }
  return plan;
}

}  // namespace ftmr::core
