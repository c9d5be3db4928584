// Extended engine coverage: the combiner extension, alternative checkpoint
// placements end-to-end, clusters without local disks, prefetch-assisted
// restart, a randomized kill-time sweep, shuffle re-entry, and every FT mode
// on both sides of the memory-budget rule.
#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "core/checkpoint.hpp"
#include "core/ftjob.hpp"
#include "mr/accounting.hpp"
#include "mr/spill.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::JobResult;
using simmpi::Runtime;

struct Cluster {
  explicit Cluster(bool local_disk = true) : tmp("ftmr-extra") {
    storage::StorageOptions so;
    so.root = tmp.path();
    so.has_local_disk = local_disk;
    fs = std::make_unique<storage::StorageSystem>(so);
    apps::TextGenOptions tg;
    tg.nchunks = 16;
    tg.lines_per_chunk = 32;
    EXPECT_TRUE(apps::generate_text(*fs, tg, &expected_words).ok());
    expected.clear();
    for (auto& [w, c] : expected_words) expected[w] = c;
  }
  std::map<std::string, int64_t> read_output() {
    std::vector<std::string> parts;
    EXPECT_TRUE(fs->list_dir(storage::Tier::kShared, 0, "output", parts).ok());
    std::map<std::string, int64_t> counts;
    for (const auto& name : parts) {
      Bytes data;
      EXPECT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, "output/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
        counts[k] += std::strtoll(v.c_str(), nullptr, 10);
      }
    }
    return counts;
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
  std::map<std::string, int64_t> expected_words;
  std::map<std::string, int64_t> expected;
};

StageFns wc_fns(bool with_combiner) {
  StageFns fns = apps::wordcount_stage();
  if (with_combiner) fns.combine = fns.reduce;  // sum is associative
  return fns;
}

Status driver_of(FtJob& job, const StageFns& fns) {
  if (auto s = job.run_stage(fns, false, nullptr); !s.ok()) return s;
  return job.write_output();
}

// ---------------------------------------------------------------------------
// Combiner
// ---------------------------------------------------------------------------

TEST(Combiner, OutputIdenticalAndShuffleSmaller) {
  Cluster cl;
  double saved = -1.0;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(true);
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, fns); }).ok());
    if (c.rank() == 0) saved = job.times().get("combine_saved_bytes");
  });
  EXPECT_EQ(cl.read_output(), cl.expected);
  // Zipf text has heavy duplication: the combiner must shrink the blocks.
  EXPECT_GT(saved, 0.0);
}

TEST(Combiner, SurvivesFailureMidMap) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(true);
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Combiner, SurvivesNwcRebuild) {
  // Failure in the reduce phase with NWC forces the orphan-partition
  // rebuild path, which must re-apply the combiner.
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-2, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeNWC;
    o.ppn = 2;
    o.ckpt.enabled = false;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(true);
    fns.reduce_cost_per_value = 2e-4;  // stretch the reduce phase
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// ---------------------------------------------------------------------------
// Checkpoint placements end-to-end
// ---------------------------------------------------------------------------

TEST(Placement, SharedDirectRecoversAfterFailure) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({0, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kSharedDirect;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 0) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Placement, LocalOnlyStillCorrectUnderResume) {
  // Local-only checkpoints are invisible to survivors (the dead rank's
  // local disk is not shared), so WC degrades to re-execution via the
  // rebuild fallback — output must still be exact.
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({3, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kLocalOnly;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 3) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Placement, NoLocalDiskClusterUsesSharedDirect) {
  // Sec. 4.1.3 drawback: some clusters have no local disks. The library
  // must run with direct-to-shared checkpoints there.
  Cluster cl(/*local_disk=*/false);
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kSharedDirect;
    FtJob job(c, cl.fs.get(), o);
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
  });
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Placement, NoLocalDiskWithLocalPlacementFailsCleanly) {
  Cluster cl(/*local_disk=*/false);
  Runtime::run(2, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kLocalWithCopier;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    // Surfaced as a configuration error, not crashed and not silently
    // degraded to checkpoint-less execution: the first record checkpoint
    // ends the map phase before it charges any time.
    EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
    EXPECT_EQ(job.times().get("map"), 0.0);
  });
}

TEST(Placement, RestartFromSharedWithPrefetch) {
  // Fig. 15 path through the real engine: restart reads recovery state
  // from the shared tier via the prefetcher.
  Cluster cl;
  FtJobOptions o;
  o.mode = FtMode::kCheckpointRestart;
  o.ppn = 2;
  o.ckpt.location = CkptOptions::Location::kSharedDirect;
  o.ckpt.prefetch_recovery = true;
  o.restart_read_shared = true;
  o.ckpt.records_per_ckpt = 16;
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({1, 8e-3, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, cl.fs.get(), o);
      (void)job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// ---------------------------------------------------------------------------
// Randomized kill-time sweep: correctness must hold wherever the failure
// lands in the job's timeline.
// ---------------------------------------------------------------------------

// gtest names each case by dumping the object's bytes, so the gap after
// `mode` is an explicit zero field: indeterminate padding bytes would make
// the test names differ from build to build.
struct SweepCase {
  FtMode mode;
  int32_t padding = 0;
  double kill_vtime;
};
static_assert(sizeof(SweepCase) ==
              sizeof(FtMode) + sizeof(int32_t) + sizeof(double));

class KillSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KillSweep, OutputAlwaysExact) {
  const SweepCase tc = GetParam();
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, tc.kill_vtime, -1});
  Runtime::run(6, [&](Comm& c) {
    FtJobOptions o;
    o.mode = tc.mode;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    if (tc.mode == FtMode::kDetectResumeNWC) o.ckpt.enabled = false;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(false);
    fns.reduce_cost_per_value = 1e-4;
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Times, KillSweep,
    ::testing::Values(
        SweepCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 2e-3},
        SweepCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 9e-3},
        SweepCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 2.2e-2},
        SweepCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 4e-2},
        SweepCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 2e-3},
        SweepCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 9e-3},
        SweepCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 2.2e-2},
        SweepCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 4e-2}));

// A rank killed right after the shuffle's alltoall, before the stage
// records shuffle-done: the re-entered shuffle must not absorb any receive
// twice. The kill is named by event in a golden run and scheduled by op
// index, so it lands at the same point of the job on every run.
TEST(ShuffleReentry, KillAfterAlltoallKeepsCountsExact) {
  constexpr int kRanks = 6;
  constexpr int kVictim = 2;
  FtJobOptions o;
  o.mode = FtMode::kDetectResumeWC;
  o.ppn = 2;
  o.ckpt.records_per_ckpt = 16;
  o.ckpt.memory_replication_k = 2;
  // Each run gets its own cluster (same deterministic input), so the kill
  // run cannot recover from the golden run's checkpoints.
  auto run = [&](Cluster& cl, const simmpi::JobOptions& base, bool keep_trace) {
    simmpi::JobOptions jo = base;
    jo.on_rank_death = [&cl](int r) { cl.fs->memory().wipe_rank(r); };
    std::vector<metrics::TraceEvent> victim_events;
    std::mutex mu;
    Runtime::run(kRanks, [&](Comm& c) {
      FtJob job(c, cl.fs.get(), o);
      Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
      if (c.global_rank() != kVictim || jo.kills.empty()) {
        EXPECT_TRUE(s.ok()) << s.to_string();
        EXPECT_EQ(job.recoveries(), jo.kills.empty() ? 0 : 1);
      }
      if (keep_trace && c.global_rank() == kVictim) {
        std::lock_guard<std::mutex> lock(mu);
        victim_events = job.trace().events();
      }
    }, jo);
    return victim_events;
  };
  // Golden run: the victim's shuffle.alltoall span is stamped with its op
  // count when the exchange completes; the kill fires at its next op.
  Cluster golden_cl;
  const std::vector<metrics::TraceEvent> golden = run(golden_cl, {}, true);
  int64_t alltoall_op = -1;
  for (const metrics::TraceEvent& e : golden) {
    if (e.name == "shuffle.alltoall" && e.dur >= 0.0) alltoall_op = e.op;
  }
  ASSERT_GE(alltoall_op, 1);

  Cluster cl;
  simmpi::JobOptions kill;
  kill.kills.push_back({kVictim, -1.0, alltoall_op + 1});
  const mr::RecordLedger before = mr::ledger_snapshot(kRanks);
  (void)run(cl, kill, false);
  const mr::RecordLedger flow = mr::ledger_snapshot(kRanks).delta_since(before);
  EXPECT_EQ(cl.read_output(), cl.expected);
  EXPECT_GT(flow.map_emitted, 0.0);
  EXPECT_EQ(flow.map_emitted, flow.shuffle_received);
}

// Two simultaneous failures (same virtual instant).
TEST(MultiFailure, TwoRanksDieTogether) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 6e-3, -1});
  jo.kills.push_back({4, 6e-3, -1});
  JobResult r = Runtime::run(6, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 1 && c.global_rank() != 4) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.work_comm().size(), 4);
    }
  }, jo);
  EXPECT_EQ(r.killed_count(), 2);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// ---------------------------------------------------------------------------
// Out-of-core FtJob: map output, shuffle receive, and reduce conversion run
// through the paged stores on both sides of the budget rule — at budget 0
// they never spill, at 16 KiB every phase pages through the local tier.
// Results must be exact and every fault-tolerance mode must keep working.
// ---------------------------------------------------------------------------

FtJobOptions budget_opts(FtMode mode, size_t budget) {
  FtJobOptions o;
  o.mode = mode;
  o.ppn = 2;
  o.memory_budget = budget;  // 16 KiB is far below the ~100KB dataset
  o.spill_page_bytes = 4 << 10;
  return o;
}

std::map<std::string, Bytes> read_raw_outputs(Cluster& cl) {
  std::vector<std::string> parts;
  EXPECT_TRUE(
      cl.fs->list_dir(storage::Tier::kShared, 0, "output", parts).ok());
  std::map<std::string, Bytes> raw;
  for (const auto& name : parts) {
    EXPECT_TRUE(cl.fs
                    ->read_file(storage::Tier::kShared, 0, "output/" + name,
                                raw[name])
                    .ok());
  }
  return raw;
}

void expect_output_identical_to_in_core(size_t budget) {
  // Deterministic textgen -> both clusters hold the same input; the run
  // under test must produce byte-for-byte the in-core output part files.
  Cluster in_core, tested;
  ASSERT_EQ(in_core.expected, tested.expected);
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, in_core.fs.get(), budget_opts(FtMode::kNone, 0));
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
  });
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, tested.fs.get(), budget_opts(FtMode::kNone, budget));
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
  });
  EXPECT_EQ(tested.read_output(), tested.expected);
  EXPECT_EQ(read_raw_outputs(in_core), read_raw_outputs(tested));
  // A budget run must actually have paged through the local scratch tier,
  // or this test would vacuously compare two in-core runs.
  if (budget > 0) {
    EXPECT_GT(tested.fs->stats(storage::Tier::kLocal).bytes_written,
              in_core.fs->stats(storage::Tier::kLocal).bytes_written);
  }
}

void expect_recovery_from_kill_mid_map(size_t budget) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o = budget_opts(FtMode::kDetectResumeWC, budget);
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

void expect_recovery_from_kill_mid_reduce(size_t budget) {
  // A late kill lands in the reduce phase: survivors adopt the dead rank's
  // partitions (absorbed into the paged stores) and the streamed reduce
  // re-enters at the committed cursor.
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-2, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o = budget_opts(FtMode::kDetectResumeWC, budget);
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(false);
    fns.reduce_cost_per_value = 2e-4;  // stretch the reduce phase
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

void expect_nwc_rebuilds_orphans(size_t budget) {
  // Reduce-phase kill without checkpoints: the dead rank's partitions are
  // rebuilt from the survivors' retained map output stores.
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-2, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o = budget_opts(FtMode::kDetectResumeNWC, budget);
    o.ckpt.enabled = false;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(false);
    fns.reduce_cost_per_value = 2e-4;
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.recoveries(), 1);
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

void expect_checkpoint_restart_resumes(size_t budget) {
  // CR restart must be able to prime from the shuffle-end partition
  // checkpoints (streamed under a budget, framed whole without one).
  Cluster cl;
  FtJobOptions o = budget_opts(FtMode::kCheckpointRestart, budget);
  o.ckpt.location = CkptOptions::Location::kSharedDirect;
  o.ckpt.prefetch_recovery = true;
  o.restart_read_shared = true;
  o.ckpt.records_per_ckpt = 16;
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({1, 8e-3, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, cl.fs.get(), o);
      (void)job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// Under the budget every phase pages through the local tier; at budget 0
// the same paged stores stay in memory.
constexpr size_t kPagedBudget = size_t{16} << 10;

TEST(OutOfCoreFtJob, OutputByteIdenticalToInCore) {
  expect_output_identical_to_in_core(kPagedBudget);
}
TEST(OutOfCoreFtJob, RecoversFromKillMidMap) {
  expect_recovery_from_kill_mid_map(kPagedBudget);
}
TEST(OutOfCoreFtJob, RecoversFromKillMidReduce) {
  expect_recovery_from_kill_mid_reduce(kPagedBudget);
}
TEST(OutOfCoreFtJob, NonWorkConservingRebuildsOrphans) {
  expect_nwc_rebuilds_orphans(kPagedBudget);
}
TEST(OutOfCoreFtJob, CheckpointRestartResumesPaged) {
  expect_checkpoint_restart_resumes(kPagedBudget);
}

TEST(ZeroBudgetFtJob, OutputByteIdenticalToInCore) {
  expect_output_identical_to_in_core(0);
}
TEST(ZeroBudgetFtJob, RecoversFromKillMidMap) {
  expect_recovery_from_kill_mid_map(0);
}
TEST(ZeroBudgetFtJob, RecoversFromKillMidReduce) {
  expect_recovery_from_kill_mid_reduce(0);
}
TEST(ZeroBudgetFtJob, NonWorkConservingRebuildsOrphans) {
  expect_nwc_rebuilds_orphans(0);
}
TEST(ZeroBudgetFtJob, CheckpointRestartResumesPaged) {
  expect_checkpoint_restart_resumes(0);
}

// ---------------------------------------------------------------------------
// Paged checkpoint writer: streamed file must be byte-identical to the
// in-core writer's, so every existing loader reads it unchanged.
// ---------------------------------------------------------------------------

TEST(PagedCheckpoint, ByteIdenticalToInCoreWriter) {
  storage::TempDir tmp_a("ftmr-paged-a"), tmp_b("ftmr-paged-b");
  storage::StorageOptions so_a, so_b;
  so_a.root = tmp_a.path();
  so_b.root = tmp_b.path();
  storage::StorageSystem fs_a(so_a), fs_b(so_b);
  Bytes flat, paged;
  Runtime::run(1, [&](Comm& c) {
    mr::KvBuffer kv;
    mr::SpillableKvBuffer skv(&fs_b, 0, "spill/ckpt", /*page_bytes=*/512,
                              /*memory_budget=*/1024);
    for (int i = 0; i < 200; ++i) {
      std::string k = "key-" + std::to_string(i % 37);
      std::string v(static_cast<size_t>(1 + i % 53), static_cast<char>('a' + i % 26));
      kv.add(k, v);
      ASSERT_TRUE(skv.add(k, v).ok());
    }
    ASSERT_GT(skv.spilled_page_count(), 0u);  // the stream really pages
    CkptOptions o;
    o.location = CkptOptions::Location::kLocalOnly;
    CheckpointManager mgr_a(&fs_a, 0, 0, o, 1);
    CheckpointManager mgr_b(&fs_b, 0, 0, o, 1);
    ASSERT_TRUE(mgr_a.partition_ckpt(c, 1, 3, kv).ok());
    ASSERT_TRUE(mgr_b.partition_ckpt_paged(c, 1, 3, skv).ok());
    const std::string path = "ck/r0/part_s001_p000000000003_q000000";
    ASSERT_TRUE(fs_a.read_file(storage::Tier::kLocal, 0, path, flat).ok());
    ASSERT_TRUE(fs_b.read_file(storage::Tier::kLocal, 0, path, paged).ok());
  });
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(flat, paged);
}

TEST(PagedCheckpoint, EmptyAndJumboPartitionsMatchWholeFrame) {
  // Both writers open the frame with the same header helper; the streamed
  // file must equal the whole frame for an empty partition and for one
  // whose jumbo (>= 2 KiB) values overflow a page on their own.
  struct Case {
    const char* name;
    std::vector<std::pair<std::string, std::string>> records;
  };
  std::vector<Case> cases = {{"empty", {}}, {"jumbo", {}}};
  for (int i = 0; i < 12; ++i) {
    cases[1].records.emplace_back(
        "k" + std::to_string(i),
        std::string(i % 3 == 0 ? 2048 + 700 * static_cast<size_t>(i) : 5,
                    static_cast<char>('a' + i)));
  }
  for (const Case& tc : cases) {
    storage::TempDir tmp_a("ftmr-paged-a"), tmp_b("ftmr-paged-b");
    storage::StorageOptions so_a, so_b;
    so_a.root = tmp_a.path();
    so_b.root = tmp_b.path();
    storage::StorageSystem fs_a(so_a), fs_b(so_b);
    Bytes flat, paged;
    Runtime::run(1, [&](Comm& c) {
      mr::KvBuffer kv;
      mr::SpillableKvBuffer skv(&fs_b, 0, "spill/ckpt", /*page_bytes=*/1024,
                                /*memory_budget=*/2048);
      for (const auto& [k, v] : tc.records) {
        kv.add(k, v);
        ASSERT_TRUE(skv.add(k, v).ok());
      }
      CkptOptions o;
      o.location = CkptOptions::Location::kLocalOnly;
      CheckpointManager mgr_a(&fs_a, 0, 0, o, 1);
      CheckpointManager mgr_b(&fs_b, 0, 0, o, 1);
      ASSERT_TRUE(mgr_a.partition_ckpt(c, 0, 9, kv).ok());
      ASSERT_TRUE(mgr_b.partition_ckpt_paged(c, 0, 9, skv).ok());
      const std::string path = "ck/r0/part_s000_p000000000009_q000000";
      ASSERT_TRUE(fs_a.read_file(storage::Tier::kLocal, 0, path, flat).ok());
      ASSERT_TRUE(fs_b.read_file(storage::Tier::kLocal, 0, path, paged).ok());
    });
    ASSERT_FALSE(flat.empty()) << tc.name;
    EXPECT_EQ(flat, paged) << tc.name;
    Bytes payload;
    EXPECT_TRUE(unframe_checkpoint(paged, payload).ok()) << tc.name;
  }
}

}  // namespace
}  // namespace ftmr::core
