// recovery_plan_test.cpp — the detect/resume recovery planner.
//
// plan_recovery() is a pure function, so most of these tests plan recovery
// at 8192 ranks without starting a job. Each checks the plan's soundness:
// every orphaned partition and task gets exactly one live owner, survivors
// keep their own work, this rank's partitions stay ascending, and the
// checkpoint reads cover exactly the inherited work, with no read of a
// stage the rank inherited nothing of. One 8-rank job checks
// that a real work-conserving kill ends with the owner tables the planner
// computes from the same inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "common/hash.hpp"
#include "core/ftjob.hpp"
#include "core/recovery_plan.hpp"
#include "simmpi/runtime.hpp"

namespace ftmr::core {
namespace {

constexpr int kRanks = 8192;

/// A job of `p0` ranks that lost `dead` (all newly), seen from rank `me`:
/// identity owners, two input chunks per rank of uneven sizes, and a fitted
/// model per survivor that differs from rank to rank.
RecoveryInputs inputs_at(int p0, const std::set<int>& dead, int me,
                         std::vector<PlanStage> stages, bool work_conserving = true) {
  RecoveryInputs in;
  in.me = me;
  in.work_conserving = work_conserving;
  in.new_dead.assign(dead.begin(), dead.end());
  in.dead = dead;
  for (int g = 0; g < p0; ++g) {
    if (!dead.count(g)) in.live.push_back(g);
    in.owners.part_owner.push_back(g);
  }
  if (!dead.count(me)) in.owners.owned.push_back(me);
  for (int t = 0; t < 2 * p0; ++t) in.chunk_bytes.push_back(1000 + (t * 37) % 500);
  for (size_t rel = 0; rel < in.live.size(); ++rel) {
    LinearModel m;
    m.a = 1e-3 * static_cast<double>(rel % 7);
    m.b = 1e-6 * static_cast<double>(1 + rel % 5);
    m.n = 8;
    in.models.push_back(m);
  }
  in.stages = std::move(stages);
  return in;
}

int task_owner(const Owners& o, uint64_t t) {
  const auto it = o.task_reassign.find(t);
  const int p0 = static_cast<int>(o.part_owner.size());
  return it != o.task_reassign.end() ? it->second : assign_task_to_rank(t, p0);
}

/// The four soundness checks of one rank's plan.
void expect_sound(const RecoveryInputs& in, const RecoveryPlan& plan) {
  const Owners& before = in.owners;
  const Owners& after = plan.owners;
  const std::set<int> live(in.live.begin(), in.live.end());
  ASSERT_EQ(after.part_owner.size(), before.part_owner.size());

  // Every orphan gets one live owner; survivors keep their own work.
  std::vector<int> inherited_parts;
  for (size_t p = 0; p < before.part_owner.size(); ++p) {
    const int was = before.part_owner[p];
    const int now = after.part_owner[p];
    if (in.dead.count(was)) {
      EXPECT_TRUE(live.count(now)) << "partition " << p << " went to dead rank " << now;
      if (now == in.me) inherited_parts.push_back(static_cast<int>(p));
    } else {
      EXPECT_EQ(now, was) << "partition " << p << " left its live owner";
    }
  }
  std::set<uint64_t> inherited_tasks;
  for (uint64_t t = 0; t < in.chunk_bytes.size(); ++t) {
    const int was = task_owner(before, t);
    const int now = task_owner(after, t);
    if (in.dead.count(was)) {
      EXPECT_TRUE(live.count(now)) << "task " << t << " went to dead rank " << now;
      if (now == in.me) inherited_tasks.insert(t);
    } else {
      EXPECT_EQ(now, was) << "task " << t << " left its live owner";
    }
  }
  EXPECT_EQ(plan.partitions, inherited_parts);
  EXPECT_EQ(plan.tasks, inherited_tasks);

  // This rank's partitions: exactly those it owns now, ascending.
  std::vector<int> mine;
  for (size_t p = 0; p < after.part_owner.size(); ++p) {
    if (after.part_owner[p] == in.me) mine.push_back(static_cast<int>(p));
  }
  EXPECT_EQ(after.owned, mine);
  EXPECT_TRUE(std::is_sorted(after.owned.begin(), after.owned.end()));

  // The reads: under WC one per (newly dead rank, stage) of which this rank
  // inherited work, none under NWC, each of its phase's kinds and exactly
  // the inherited work.
  if (!in.work_conserving) {
    EXPECT_TRUE(plan.reads.empty());
    return;
  }
  const std::set<uint64_t> part_ids(inherited_parts.begin(), inherited_parts.end());
  size_t i = 0;
  for (int d : in.new_dead) {
    for (const PlanStage& s : in.stages) {
      const bool by_task = s.phase == kPhaseMap && !s.kv_input;
      const std::set<uint64_t>& ids = by_task ? inherited_tasks : part_ids;
      if (ids.empty()) continue;  // nothing of this stage inherited
      ASSERT_LT(i, plan.reads.size()) << "no read of stage " << s.stage;
      const CkptRead& r = plan.reads[i++];
      EXPECT_EQ(r.rank, d);
      EXPECT_EQ(r.stage, s.stage);
      EXPECT_EQ(r.kinds, kinds_read_at(s.phase));
      EXPECT_FALSE(r.every_id);
      EXPECT_EQ(r.ids, ids) << "stage " << s.stage << " of dead rank " << d;
    }
  }
  EXPECT_EQ(plan.reads.size(), i);
}

/// Plans for each rank in `ranks`, checks each, and checks that they agree
/// on the owner tables and split the orphans between them.
std::vector<RecoveryPlan> plan_for(const std::set<int>& dead,
                                   const std::set<int>& ranks,
                                   const std::vector<PlanStage>& stages,
                                   bool work_conserving = true) {
  std::vector<RecoveryPlan> plans;
  for (int me : ranks) {
    const RecoveryInputs in = inputs_at(kRanks, dead, me, stages, work_conserving);
    plans.push_back(plan_recovery(in));
    expect_sound(in, plans.back());
    EXPECT_EQ(plans.back().owners.part_owner, plans.front().owners.part_owner);
    EXPECT_EQ(plans.back().owners.task_reassign, plans.front().owners.task_reassign);
  }
  return plans;
}

/// The ranks that inherit something in a plan of `dead`, plus one that
/// inherits nothing.
std::set<int> heirs(const std::set<int>& dead, const std::vector<PlanStage>& stages) {
  const int probe = *dead.rbegin() == kRanks - 1 ? 0 : kRanks - 1;
  const RecoveryPlan plan = plan_recovery(inputs_at(kRanks, dead, probe, stages));
  std::set<int> out{probe};
  for (int d : dead) out.insert(plan.owners.part_owner[static_cast<size_t>(d)]);
  for (const auto& [t, g] : plan.owners.task_reassign) out.insert(g);
  return out;
}

/// The owner of stage-0 task t at the start of a job; a rank chosen this
/// way has at least one input chunk to orphan.
int owner_of_task(uint64_t t) { return assign_task_to_rank(t, kRanks); }

/// Input chunks the ranks in `dead` held at the start of a job.
size_t chunks_of(const std::set<int>& dead) {
  size_t n = 0;
  for (uint64_t t = 0; t < 2 * kRanks; ++t) n += dead.count(owner_of_task(t));
  return n;
}

std::vector<int> owned_by(const Owners& o, int me) {
  std::vector<int> mine;
  for (size_t p = 0; p < o.part_owner.size(); ++p) {
    if (o.part_owner[p] == me) mine.push_back(static_cast<int>(p));
  }
  return mine;
}

TEST(RecoveryPlan, OneDeadRankAtScale) {
  const std::set<int> dead{owner_of_task(0)};
  const std::vector<PlanStage> stages{{0, kPhaseMap, false}};
  const std::set<int> ranks = heirs(dead, stages);
  ASSERT_GE(ranks.size(), 2u);
  size_t parts = 0, tasks = 0, readers = 0;
  for (const RecoveryPlan& p : plan_for(dead, ranks, stages)) {
    parts += p.partitions.size();
    tasks += p.tasks.size();
    // In the map phase a survivor reads the dead rank's map checkpoints
    // only if it inherited one of its tasks: exactly one read, else none.
    EXPECT_EQ(p.reads.size(), p.tasks.empty() ? 0u : 1u);
    if (!p.reads.empty()) ++readers;
  }
  EXPECT_EQ(parts, 1u);  // the dead rank's one partition, inherited once
  EXPECT_EQ(tasks, chunks_of(dead));  // and each of its chunks, once
  EXPECT_GE(readers, 1u);
  EXPECT_LT(readers, ranks.size());  // heirs() adds a rank that inherits nothing
}

TEST(RecoveryPlan, TwoDeadRanksAtScale) {
  const std::set<int> dead{owner_of_task(0), owner_of_task(1)};
  ASSERT_EQ(dead.size(), 2u);
  const std::vector<PlanStage> stages{{0, kPhaseShuffleDone, false}};
  const std::vector<RecoveryPlan> plans = plan_for(dead, heirs(dead, stages), stages);
  size_t parts = 0, tasks = 0;
  for (const RecoveryPlan& p : plans) {
    parts += p.partitions.size();
    tasks += p.tasks.size();
  }
  EXPECT_EQ(parts, 2u);
  EXPECT_EQ(tasks, chunks_of(dead));

  // A later failure of an heir: what it inherited is orphaned again with
  // its own work, and the reads cover only the newly dead rank.
  RecoveryInputs second = inputs_at(kRanks, dead, 0, stages);
  second.owners = plans.front().owners;
  const int heir = second.owners.part_owner[static_cast<size_t>(*dead.begin())];
  second.new_dead = {heir};
  second.dead.insert(heir);
  second.live.erase(std::find(second.live.begin(), second.live.end(), heir));
  second.models.pop_back();
  second.me = second.live.front();
  const int next = plan_recovery(second).owners.part_owner[static_cast<size_t>(heir)];
  for (int me : {second.live.front(), next}) {
    second.me = me;
    second.owners.owned = owned_by(plans.front().owners, me);
    const RecoveryPlan plan = plan_recovery(second);
    expect_sound(second, plan);
    if (me == next) {
      EXPECT_FALSE(plan.partitions.empty());
    }
    EXPECT_EQ(plan.reads.size(), plan.partitions.empty() ? 0u : 1u);
  }
}

TEST(RecoveryPlan, KvInputStageReadsByPartition) {
  const std::set<int> dead{owner_of_task(2)};
  // Stage 0 read files and is done; stage 1 maps the previous stage's
  // partitions, so its map deltas are keyed, read and adopted by partition.
  const std::vector<PlanStage> stages{{0, kPhaseDone, false}, {1, kPhaseMap, true}};
  size_t readers = 0;
  for (const RecoveryPlan& plan : plan_for(dead, heirs(dead, stages), stages)) {
    if (plan.partitions.empty()) {
      EXPECT_TRUE(plan.reads.empty());  // inherited file tasks only
      continue;
    }
    ++readers;
    ASSERT_EQ(plan.reads.size(), 2u);
    EXPECT_EQ(plan.reads[1].kinds, static_cast<unsigned>(kKindMap));
    EXPECT_EQ(plan.reads[1].ids, plan.tasks_of(/*kv_input=*/true));
  }
  EXPECT_EQ(readers, 1u);  // the dead rank's one partition has one heir
}

TEST(RecoveryPlan, NonWorkConservingMultiStageDropsEveryStage) {
  const std::set<int> dead{owner_of_task(3)};
  const std::vector<PlanStage> stages{{0, kPhaseDone, false}, {1, kPhaseMap, true}};
  for (const RecoveryPlan& plan : plan_for(dead, heirs(dead, stages), stages, false)) {
    EXPECT_TRUE(plan.drop_stages);
    EXPECT_FALSE(plan.rebuild);
    EXPECT_TRUE(plan.missing.empty());
  }
  // One stage past its map phase instead: every orphan is rebuilt there.
  const std::vector<PlanStage> one{{0, kPhaseShuffleDone, false}};
  for (const RecoveryPlan& plan : plan_for(dead, heirs(dead, one), one, false)) {
    EXPECT_FALSE(plan.drop_stages);
    EXPECT_TRUE(plan.rebuild);
    EXPECT_EQ(plan.missing, std::vector<int>(dead.begin(), dead.end()));
  }
}

// The planner agrees with a job: an 8-rank work-conserving kill (load
// balancer off, so every survivor's model is the default) ends with the
// owner tables plan_recovery() computes from the same census and chunks.
TEST(RecoveryPlan, MatchesAnEightRankWorkConservingKill) {
  constexpr int kP = 8;
  constexpr int kVictim = 5;
  storage::TempDir tmp("ftmr-plan");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  for (int i = 0; i < 2 * kP; ++i) {
    std::string text;
    for (int j = 0; j < 20 + 7 * i; ++j) {
      text += "w" + std::to_string((i + j) % 11) + "\n";
    }
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%04d", i);
    ASSERT_TRUE(fs.write_file(storage::Tier::kShared, 0, std::string("input/") + name,
                              as_bytes_view(text))
                    .ok());
  }
  StageFns fns;
  fns.map = [](std::string_view, std::string_view line, mr::KvBuffer& out) {
    out.add(line, "1");
    return int32_t{1};
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) {
    out.add(key, std::to_string(values.size()));
    return int32_t{1};
  };
  FtJobOptions opts;
  opts.mode = FtMode::kDetectResumeWC;
  opts.ppn = 2;
  opts.load_balance = false;
  simmpi::JobOptions jo;
  jo.kills.push_back({kVictim, 4e-3, -1});
  std::mutex mu;
  std::map<int, std::vector<int>> owned;
  std::vector<int> part_owner;
  std::map<uint64_t, int> task_reassign;
  std::vector<std::string> chunks;
  simmpi::Runtime::run(kP, [&](simmpi::Comm& c) {
    FtJob job(c, &fs, opts);
    const Status s = job.run([&](FtJob& j) {
      if (auto st = j.run_stage(fns, false, nullptr); !st.ok()) return st;
      return j.write_output();
    });
    if (c.global_rank() == kVictim) return;
    EXPECT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(job.known_dead(), std::set<int>{kVictim});
    std::lock_guard<std::mutex> lock(mu);
    part_owner = job.partition_owners();
    task_reassign = job.task_reassignments();
    chunks = job.input_chunks();
    for (int p = 0; p < kP; ++p) {
      if (part_owner[static_cast<size_t>(p)] == c.global_rank()) {
        owned[c.global_rank()].push_back(p);
      }
    }
  }, jo);
  ASSERT_EQ(chunks.size(), static_cast<size_t>(2 * kP));

  RecoveryInputs in;
  in.new_dead = {kVictim};
  in.dead = {kVictim};
  for (int g = 0; g < kP; ++g) {
    if (g != kVictim) in.live.push_back(g);
    in.owners.part_owner.push_back(g);
  }
  for (const std::string& name : chunks) {
    in.chunk_bytes.push_back(fs.file_size(storage::Tier::kShared, 0, "input/" + name));
  }
  in.models.assign(in.live.size(), LinearModel{});
  in.stages = {{0, kPhaseMap, false}};
  for (int me : in.live) {
    in.me = me;
    in.owners.owned = {me};
    const RecoveryPlan plan = plan_recovery(in);
    expect_sound(in, plan);
    EXPECT_EQ(plan.owners.part_owner, part_owner);
    EXPECT_EQ(plan.owners.task_reassign, task_reassign);
    EXPECT_EQ(plan.owners.owned, owned[me]) << "rank " << me;
  }
}

}  // namespace
}  // namespace ftmr::core
