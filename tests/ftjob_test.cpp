// Integration tests for the FT-MRMPI engine: all fault-tolerance models
// must produce output identical to a failure-free run, under failures
// injected in every phase, including continuous failures and multi-stage
// (iterative) jobs. This is the paper's core correctness claim.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <charconv>
#include <filesystem>
#include <map>
#include <tuple>
#include <vector>

#include "common/hash.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"
#include "storage/segment_store.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::JobResult;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// Shared wordcount world
// ---------------------------------------------------------------------------

struct World {
  explicit World(int nchunks = 12, int nlines = 40) : tmp("ftmr-ftjob") {
    storage::StorageOptions so;
    so.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(so);
    for (int i = 0; i < nchunks; ++i) {
      std::string text;
      for (int j = 0; j < nlines; ++j) {
        const std::string w1 = "w" + std::to_string((i * 13 + j) % 50);
        const std::string w2 = "x" + std::to_string(j % 40);
        text += w1 + " " + w2 + " common\n";
        expected[w1]++;
        expected[w2]++;
        expected["common"]++;
      }
      char name[32];
      std::snprintf(name, sizeof(name), "chunk_%04d", i);
      EXPECT_TRUE(fs->write_file(storage::Tier::kShared, 0,
                                 std::string("input/") + name,
                                 as_bytes_view(text)).ok());
    }
  }

  std::map<std::string, int64_t> read_output(const std::string& dir = "output") {
    std::vector<std::string> parts;
    EXPECT_TRUE(fs->list_dir(storage::Tier::kShared, 0, dir, parts).ok());
    std::map<std::string, int64_t> counts;
    for (const auto& name : parts) {
      Bytes data;
      EXPECT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        if (!r.get_string(k).ok() || !r.get_string(v).ok()) {
          ADD_FAILURE() << "corrupt output in " << name;
          break;
        }
        counts[k] += std::strtoll(v.c_str(), nullptr, 10);
      }
    }
    return counts;
  }

  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
  std::map<std::string, int64_t> expected;
};

StageFns wordcount_fns(double reduce_cost = -1.0) {
  StageFns fns;
  fns.map = [](std::string_view, std::string_view line,
               mr::KvBuffer& out) -> int32_t {
    int32_t n = 0;
    size_t pos = 0;
    while (pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string_view::npos) end = line.size();
      if (end > pos) {
        out.add(line.substr(pos, end - pos), "1");
        ++n;
      }
      pos = end + 1;
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int64_t sum = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      sum += n;
    }
    out.add(key, std::to_string(sum));
    return 1;
  };
  fns.reduce_cost_per_value = reduce_cost;
  return fns;
}

Status wordcount_driver(FtJob& job, const StageFns& fns) {
  if (auto s = job.run_stage(fns, /*kv_input=*/false, nullptr); !s.ok()) return s;
  return job.write_output();
}

FtJobOptions base_opts(FtMode mode) {
  FtJobOptions o;
  o.mode = mode;
  o.ckpt.records_per_ckpt = 25;
  o.ppn = 2;
  if (mode == FtMode::kDetectResumeNWC || mode == FtMode::kNone) {
    o.ckpt.enabled = false;  // NWC does not checkpoint (Sec. 4.2.2)
  }
  return o;
}

// ---------------------------------------------------------------------------
// Failure-free: all modes agree with expected output
// ---------------------------------------------------------------------------

class ModeSweep : public ::testing::TestWithParam<FtMode> {};

TEST_P(ModeSweep, FailureFreeOutputCorrect) {
  World w;
  const FtJobOptions opts = base_opts(GetParam());
  std::vector<Bytes> tables(4);  // each rank's encoded global table
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    EXPECT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(job.recoveries(), 0);
    const TaskTable& global = job.master().global_table();
    EXPECT_EQ(global.size(), 12u) << "rank " << c.rank();
    EXPECT_EQ(global.done_count(), 12u) << "rank " << c.rank();
    tables[static_cast<size_t>(c.rank())] = global.encode();
  });
  EXPECT_EQ(r.finished_count(), 4);
  EXPECT_EQ(w.read_output(), w.expected);
  // The map-boundary exchange leaves every master with the same table.
  for (size_t i = 1; i < tables.size(); ++i) EXPECT_EQ(tables[i], tables[0]);
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeSweep,
                         ::testing::Values(FtMode::kNone,
                                           FtMode::kCheckpointRestart,
                                           FtMode::kDetectResumeWC,
                                           FtMode::kDetectResumeNWC));

// Without checkpoints no map or reduce delta is ever written, so none may
// be kept: a retained delta is a second copy of the rank's whole output.
TEST(NoCheckpoints, MapAndReduceKeepNoDelta) {
  for (FtMode mode : {FtMode::kNone, FtMode::kDetectResumeWC}) {
    World w;
    FtJobOptions opts = base_opts(mode);
    opts.ckpt.enabled = false;
    std::atomic<size_t> held{0};
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
      EXPECT_TRUE(s.ok()) << s.to_string();
      held += job.pending_delta_bytes();
    });
    EXPECT_EQ(r.finished_count(), 4);
    EXPECT_EQ(held.load(), 0u) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(w.read_output(), w.expected);
  }
}

// ---------------------------------------------------------------------------
// Baseline (kNone): a failure kills the whole job
// ---------------------------------------------------------------------------

TEST(NoFt, FailureAbortsJob) {
  World w;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-3, -1});
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kNone));
    (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
  }, jo);
  EXPECT_TRUE(r.aborted);
}

// ---------------------------------------------------------------------------
// Detect/resume: failures in every phase, WC and NWC
// ---------------------------------------------------------------------------

// gtest names each case by dumping the object's bytes, so the gap after
// `mode` is an explicit zero field: indeterminate padding bytes would make
// the test names differ from build to build.
struct DrCase {
  FtMode mode;
  int32_t padding = 0;
  double kill_vtime;
  const char* label;
};
static_assert(sizeof(DrCase) == sizeof(FtMode) + sizeof(int32_t) +
                                    sizeof(double) + sizeof(const char*));

class DetectResume : public ::testing::TestWithParam<DrCase> {};

TEST_P(DetectResume, OutputSurvivesFailure) {
  const DrCase tc = GetParam();
  World w;
  FtJobOptions opts = base_opts(tc.mode);
  simmpi::JobOptions jo;
  jo.kills.push_back({2, tc.kill_vtime, -1});
  std::atomic<int> recoveries{0};
  // Map calls per rank and input line; each rank writes only its own slot.
  std::vector<std::map<std::string, int>> mapped(4);
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    // Slow reduce so late kill times land inside the reduce phase.
    StageFns fns = wordcount_fns(5e-4);
    fns.map = [&, inner = fns.map](std::string_view key, std::string_view line,
                                   mr::KvBuffer& out) {
      mapped[static_cast<size_t>(c.global_rank())][std::string(line)]++;
      return inner(key, line, out);
    };
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      recoveries = job.recoveries();
    }
  }, jo);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_EQ(r.finished_count(), 3);
  EXPECT_GE(recoveries.load(), 1);
  EXPECT_EQ(w.read_output(), w.expected) << tc.label;

  // Every World line is distinct. A recovered task cursor never moves
  // behind what a rank already mapped, so no survivor maps a line twice.
  // Work-conserving adoption resumes inherited tasks at the dead rank's
  // checkpointed cursor, so the survivors map fewer lines than the input
  // holds; the non-work-conserving model re-executes them all.
  size_t survivor_maps = 0;
  for (int rank : {0, 1, 3}) {
    for (const auto& [line, n] : mapped[static_cast<size_t>(rank)]) {
      EXPECT_EQ(n, 1) << tc.label << ": rank " << rank << " mapped '" << line
                      << "' " << n << " times";
      survivor_maps += static_cast<size_t>(n);
    }
  }
  const size_t lines = 12 * 40;
  if (tc.mode == FtMode::kDetectResumeWC) {
    EXPECT_LT(survivor_maps, lines) << tc.label;
  } else {
    EXPECT_EQ(survivor_maps, lines) << tc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Phases, DetectResume,
    ::testing::Values(
        DrCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 4e-3,
               .label = "wc-mid-map"},
        DrCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 1e-1,
               .label = "wc-mid-reduce"},
        DrCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 4e-3,
               .label = "nwc-mid-map"},
        DrCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 1e-1,
               .label = "nwc-mid-reduce"},
        DrCase{.mode = FtMode::kDetectResumeWC, .kill_vtime = 2e-2,
               .label = "wc-around-shuffle"},
        DrCase{.mode = FtMode::kDetectResumeNWC, .kill_vtime = 2e-2,
               .label = "nwc-around-shuffle"}));

TEST(DetectResume, ContinuousFailuresShrinkRepeatedly) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 5e-3, -1});
  jo.kills.push_back({3, 6e-2, -1});
  jo.kills.push_back({5, 1.2e-1, -1});
  JobResult r = Runtime::run(6, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run(
        [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
    if (c.global_rank() != 1 && c.global_rank() != 3 && c.global_rank() != 5) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.work_comm().size(), 3);
    }
  }, jo);
  EXPECT_EQ(r.killed_count(), 3);
  EXPECT_EQ(r.finished_count(), 3);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(DetectResume, ChunkGranularityAlsoRecovers) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.ckpt.granularity = CkptOptions::Granularity::kChunk;
  simmpi::JobOptions jo;
  jo.kills.push_back({0, 5e-3, -1});
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    if (c.global_rank() != 0) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(r.finished_count(), 3);
  EXPECT_EQ(w.read_output(), w.expected);
}

// A work-conserving kill in the reduce phase: the survivors adopt the dead
// rank's partition snapshots and reduce progress, so they read none of its
// map deltas (adoption after the shuffle would discard them).
TEST(DetectResume, ReducePhaseKillReadsNoMapDeltaOfTheDeadRank) {
  World w;
  // Checkpoints written straight to the shared tier: no drain copies, so
  // WC recovery is the only reader of the dead rank's files there.
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.ckpt.location = CkptOptions::Location::kSharedDirect;
  storage::FaultInjectorConfig fc;
  fc.shared.p_read_fail = 1.0;
  fc.path_filter = checkpoint_rank_dir(2) + "/map_";
  w.fs->set_fault_injector(fc);
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 1e-1, -1});
  std::atomic<int> recoveries{0};
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run(
        [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      recoveries += job.recoveries();
    }
  }, jo);
  w.fs->clear_fault_injector();
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_EQ(recoveries.load(), 3);
  std::vector<std::string> dead;
  ASSERT_TRUE(w.fs->list_dir(storage::Tier::kShared, 1, checkpoint_rank_dir(2),
                             dead).ok());
  EXPECT_TRUE(std::any_of(dead.begin(), dead.end(), [](const std::string& n) {
    return n.rfind("map_", 0) == 0;
  }));
  EXPECT_EQ(w.fs->fault_stats().read_failures, 0);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(DetectResume, LoadBalancerOffStillCorrect) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.load_balance = false;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    if (c.global_rank() != 2) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(w.read_output(), w.expected);
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: abort + resubmit loop
// ---------------------------------------------------------------------------

TEST(CheckpointRestart, RestartResumesAndFinishes) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  // Written concurrently by the rank threads of one submission.
  std::atomic<bool> resumed{false};
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({1, 8e-3, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      if (submissions > 1 && job.resumed_from_checkpoint()) resumed = true;
      (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5) << "restart loop did not converge";
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_TRUE(resumed);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(CheckpointRestart, FailureInReducePhaseRestartSkipsMap) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({3, 1e-1, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      (void)job.run(
          [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(CheckpointRestart, SurvivesTwoConsecutiveFailedSubmissions) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({0, 6e-3, -1});
    if (submissions == 2) jo.kills.push_back({2, 2e-2, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 6);
  }
  // The second kill usually aborts the second submission too (3 total),
  // but detection timing can let it slip past a fast restart; the invariant
  // is that at least one restart happened and the output stayed exact.
  EXPECT_GE(submissions, 2);
  EXPECT_LE(submissions, 3);
  EXPECT_EQ(w.read_output(), w.expected);
}

// -- the restart read plan: priming reads only what its resume phase uses --

// Checkpoint files of `stage` in every rank's directory on `tier`, counted
// by kind.
std::map<std::string, int> ckpt_files(storage::StorageSystem& fs,
                                      storage::Tier tier, int nranks, int ppn,
                                      int stage = 0) {
  std::map<std::string, int> n;
  for (int rank = 0; rank < nranks; ++rank) {
    std::vector<std::string> names;
    if (!fs.list_dir(tier, rank / ppn, checkpoint_rank_dir(rank), names).ok()) {
      continue;
    }
    for (const std::string& name : names) {
      CkptFileName f;
      if (parse_checkpoint_name(name, f) && f.stage == stage) n[f.kind]++;
    }
  }
  return n;
}

// Every read of a file whose path contains `path_part` fails on both file
// tiers: the injector's read_failures then counts the reads tried.
void fail_reads_of(storage::StorageSystem& fs, std::string path_part) {
  storage::FaultInjectorConfig fc;
  fc.local.p_read_fail = 1.0;
  fc.shared.p_read_fail = 1.0;
  fc.path_filter = std::move(path_part);
  fs.set_fault_injector(fc);
}

// A resubmission that only constructs its FtJob, which is where a
// checkpoint/restart job primes itself; returns each rank's stage-0 phase.
std::vector<int> prime_only(World& w, const FtJobOptions& opts, int nranks) {
  std::vector<int> phases(static_cast<size_t>(nranks), -1);
  Runtime::run(nranks, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    phases[static_cast<size_t>(c.global_rank())] = job.stage_phase(0);
  });
  return phases;
}

// A kill in the reduce phase: every rank agrees to resume after the
// shuffle, so the restart reads each rank's partition snapshot, reduce
// deltas and finished outputs once, and not one map delta.
TEST(CheckpointRestart, ReducePhaseRestartReadsNoMapCheckpoint) {
  World w;
  const FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  const auto submit = [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
  };
  simmpi::JobOptions jo;
  jo.kills.push_back({3, 1e-1, -1});
  ASSERT_TRUE(Runtime::run(4, submit, jo).aborted);
  std::map<std::string, int> files =
      ckpt_files(*w.fs, storage::Tier::kLocal, 4, opts.ppn);
  ASSERT_GT(files["map"], 0);
  ASSERT_EQ(files["part"], 4);

  const int64_t before = w.fs->stats(storage::Tier::kLocal).read_ops;
  EXPECT_EQ(prime_only(w, opts, 4), std::vector<int>(4, FtJob::kPhaseShuffleDone));
  EXPECT_EQ(w.fs->stats(storage::Tier::kLocal).read_ops - before,
            files["part"] + files["red"] + files["out"]);

  EXPECT_FALSE(Runtime::run(4, submit).aborted);
  EXPECT_EQ(w.read_output(), w.expected);
}

// Loses, between submissions, the partition snapshot of the first rank
// whose reduce had (`finished`: its output snapshot exists) or had not
// finished: removed from its node-local tier, or (`corrupt`) overwritten
// in both tiers so that no valid copy is left. Returns that rank.
int lose_partition_snapshot(World& w, int ppn, bool finished, bool corrupt) {
  for (int rank = 0; rank < 4; ++rank) {
    const std::string dir = checkpoint_rank_dir(rank);
    const int node = rank / ppn;
    std::vector<std::string> names;
    EXPECT_TRUE(w.fs->list_dir(storage::Tier::kLocal, node, dir, names).ok());
    std::string part;
    bool done = false;
    for (const std::string& n : names) {
      if (n.rfind("out_", 0) == 0) done = true;
      if (n.rfind("part_", 0) == 0) part = n;
    }
    if (done != finished || part.empty()) continue;
    if (!corrupt) {
      EXPECT_TRUE(w.fs->remove(storage::Tier::kLocal, node, dir + "/" + part).ok());
      return rank;
    }
    const Bytes junk = to_bytes("not a checkpoint");
    EXPECT_TRUE(
        w.fs->write_file(storage::Tier::kLocal, node, dir + "/" + part, junk).ok());
    std::vector<std::string> shared;
    EXPECT_TRUE(w.fs->list_dir(storage::Tier::kShared, node, dir, shared).ok());
    int copies = 0;
    for (const std::string& n : shared) {
      if (n.rfind(part + "_d", 0) != 0) continue;
      EXPECT_TRUE(
          w.fs->write_file(storage::Tier::kShared, node, dir + "/" + n, junk).ok());
      copies++;
    }
    EXPECT_EQ(copies, 1);
    return rank;
  }
  return -1;
}

// A C/R wordcount killed mid-reduce (rank 3 at 0.1 s of a slow reduce),
// resubmitted after one rank's partition snapshot is lost.
struct LostSnapshotRun {
  int victim = -1;
  int submissions_ok = 0;
  std::vector<int> phases;  // each rank's stage-0 phase once primed
  int maps = 0;             // map calls of the resubmission
  int64_t reprocessed = 0;  // integrity().segments_reprocessed, summed
  int64_t quarantined = 0;  // integrity().files_quarantined, summed
};

LostSnapshotRun run_with_lost_snapshot(World& w, bool finished, bool corrupt) {
  const FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  LostSnapshotRun out;
  out.phases.assign(4, -1);
  std::atomic<int> maps{0};
  std::atomic<int64_t> reprocessed{0}, quarantined{0};
  StageFns fns = wordcount_fns(5e-4);
  fns.map = [&maps, inner = fns.map](std::string_view key, std::string_view line,
                                     mr::KvBuffer& kv) {
    maps++;
    return inner(key, line, kv);
  };
  const auto submit = [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    out.phases[static_cast<size_t>(c.global_rank())] = job.stage_phase(0);
    (void)job.run([&](FtJob& j) { return wordcount_driver(j, fns); });
    reprocessed += job.ckpt().integrity().segments_reprocessed;
    quarantined += job.ckpt().integrity().files_quarantined;
  };
  simmpi::JobOptions jo;
  jo.kills.push_back({3, 1e-1, -1});
  if (!Runtime::run(4, submit, jo).aborted) return out;
  out.victim = lose_partition_snapshot(w, opts.ppn, finished, corrupt);
  if (out.victim < 0) return out;
  maps = 0;
  reprocessed = 0;
  quarantined = 0;
  if (!Runtime::run(4, submit).aborted) out.submissions_ok++;
  out.maps = maps.load();
  out.reprocessed = reprocessed.load();
  out.quarantined = quarantined.load();
  return out;
}

// The victim had not finished its reduce: it cannot claim shuffle-done, so
// the job agrees on the map phase and only then reads the map deltas.
// Every task resumes at its checkpointed cursor, so nothing is mapped
// again, and the shuffle rebuilds the lost partition.
TEST(CheckpointRestart, LostPartitionSnapshotResumesInMapPhase) {
  for (const bool corrupt : {false, true}) {
    World w;
    const LostSnapshotRun r = run_with_lost_snapshot(w, /*finished=*/false, corrupt);
    ASSERT_GE(r.victim, 0) << "corrupt=" << corrupt;
    EXPECT_EQ(r.submissions_ok, 1) << "corrupt=" << corrupt;
    EXPECT_EQ(r.phases, std::vector<int>(4, FtJob::kPhaseMap)) << "corrupt=" << corrupt;
    EXPECT_EQ(r.maps, 0) << "corrupt=" << corrupt;
    EXPECT_EQ(r.reprocessed, 0) << "corrupt=" << corrupt;
    EXPECT_EQ(r.quarantined, corrupt ? 1 : 0);
    EXPECT_EQ(w.read_output(), w.expected) << "corrupt=" << corrupt;
  }
}

// The victim had finished its reduce: it claims done, the job agrees to
// resume after the shuffle, and the victim keeps its output snapshot as
// the finished reduce of the partition whose snapshot is gone.
TEST(CheckpointRestart, FinishedRankWithLostSnapshotKeepsItsOutput) {
  for (const bool corrupt : {false, true}) {
    World w;
    const LostSnapshotRun r = run_with_lost_snapshot(w, /*finished=*/true, corrupt);
    ASSERT_GE(r.victim, 0) << "corrupt=" << corrupt;
    EXPECT_EQ(r.submissions_ok, 1) << "corrupt=" << corrupt;
    EXPECT_EQ(r.phases, std::vector<int>(4, FtJob::kPhaseShuffleDone))
        << "corrupt=" << corrupt;
    EXPECT_EQ(r.maps, 0) << "corrupt=" << corrupt;
    EXPECT_EQ(w.read_output(), w.expected) << "corrupt=" << corrupt;
  }
}

// ---------------------------------------------------------------------------
// Multi-stage (iterative) jobs
// ---------------------------------------------------------------------------

// Stage 2 regroups word counts by word-length bucket.
StageFns bucket_fns() {
  StageFns fns;
  fns.map = [](std::string_view key, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    out.add("len" + std::to_string(key.size() % 3), value);
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int64_t sum = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      sum += n;
    }
    out.add(key, std::to_string(sum));
    return 1;
  };
  return fns;
}

Status two_stage_driver(FtJob& job) {
  if (auto s = job.run_stage(wordcount_fns(), false, nullptr); !s.ok()) return s;
  if (auto s = job.run_stage(bucket_fns(), true, nullptr); !s.ok()) return s;
  return job.write_output();
}

std::map<std::string, int64_t> bucket_expected(
    const std::map<std::string, int64_t>& wc) {
  std::map<std::string, int64_t> out;
  for (const auto& [word, count] : wc) {
    out["len" + std::to_string(word.size() % 3)] += count;
  }
  return out;
}

TEST(MultiStage, FailureFreeTwoStages) {
  World w;
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kDetectResumeWC));
    ASSERT_TRUE(job.run(two_stage_driver).ok());
  });
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

TEST(MultiStage, WcFailureInSecondStageKeepsFirstStageWork) {
  World w;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-2, -1});  // stage 0 finishes around 3e-2
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kDetectResumeWC));
    Status s = job.run(two_stage_driver);
    if (c.global_rank() != 1) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

// A stage's map stores serve only its own shuffle and orphan rebuild: a
// detect/resume rank keeps them, parked, until the stage is done and then
// drops them, so an iterative job holds one stage's worth, not one per
// round. The other modes free them in the shuffle.
TEST(MultiStage, MapStoresHeldOnlyForTheUnfinishedStage) {
  for (FtMode mode : {FtMode::kDetectResumeWC, FtMode::kDetectResumeNWC,
                      FtMode::kCheckpointRestart, FtMode::kNone}) {
    World w;
    const bool keeps = mode == FtMode::kDetectResumeWC ||
                       mode == FtMode::kDetectResumeNWC;
    std::atomic<int> bad{0};
    Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), base_opts(mode));
      // Seen from inside each stage's reduce: what this rank holds of the
      // stage being reduced and of the stage before it.
      const auto probe = [&job, &bad, keeps](StageFns fns, int stage) {
        fns.reduce = [&job, &bad, keeps, stage, inner = fns.reduce](
                         std::string_view key,
                         std::span<const std::string_view> values,
                         mr::KvBuffer& out) {
          const size_t held = job.map_stores_held(stage);
          if ((keeps ? held == 0 || job.map_stores_parked(stage) != held
                     : held != 0) ||
              (stage > 0 && job.map_stores_held(stage - 1) != 0)) {
            bad++;
          }
          return inner(key, values, out);
        };
        return fns;
      };
      Status s = job.run([&](FtJob& j) {
        if (auto st = j.run_stage(probe(wordcount_fns(), 0), false, nullptr);
            !st.ok()) {
          return st;
        }
        if (auto st = j.run_stage(probe(bucket_fns(), 1), true, nullptr);
            !st.ok()) {
          return st;
        }
        return j.write_output();
      });
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.map_stores_held(0) + job.map_stores_held(1), 0u);
    });
    EXPECT_EQ(bad.load(), 0) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
  }
}

TEST(MultiStage, NwcFailureInSecondStageRestartsFromScratchButFinishes) {
  World w;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 4e-2, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kDetectResumeNWC));
    Status s = job.run(two_stage_driver);
    if (c.global_rank() != 2) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

TEST(MultiStage, CrRestartResumesAtSecondStage) {
  const FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  // Two-stage driver that hands back this rank's stage-0 output and counts
  // stage-0 map calls.
  const auto driver = [](FtJob& job, mr::KvBuffer& out0,
                         std::atomic<int>& stage0_maps) {
    StageFns fns = wordcount_fns();
    fns.map = [&stage0_maps, inner = fns.map](std::string_view key,
                                              std::string_view line,
                                              mr::KvBuffer& out) {
      stage0_maps++;
      return inner(key, line, out);
    };
    if (auto s = job.run_stage(fns, false, &out0); !s.ok()) return s;
    if (auto s = job.run_stage(bucket_fns(), true, nullptr); !s.ok()) return s;
    return job.write_output();
  };
  // Failure-free stage-0 output of every rank: what a primed completed
  // stage must hand back byte for byte.
  std::vector<mr::KvBuffer> reference(4);
  {
    World ref;
    std::atomic<int> maps{0};
    Runtime::run(4, [&](Comm& c) {
      FtJob job(c, ref.fs.get(), opts);
      mr::KvBuffer& out0 = reference[static_cast<size_t>(c.global_rank())];
      ASSERT_TRUE(job.run([&](FtJob& j) { return driver(j, out0, maps); }).ok());
    });
  }

  World w;
  int submissions = 0;
  std::atomic<int> primed_done{0}, identical{0}, resumed_stage0_maps{0};
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({0, 4e-2, -1});
    std::atomic<int> stage0_maps{0};
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      if (job.stage_phase(0) == FtJob::kPhaseDone) primed_done++;
      mr::KvBuffer out0;
      const Status s =
          job.run([&](FtJob& j) { return driver(j, out0, stage0_maps); });
      if (s.ok() && out0 == reference[static_cast<size_t>(c.global_rank())]) {
        identical++;
      }
    }, jo);
    if (!r.aborted) {
      resumed_stage0_maps = stage0_maps.load();
      break;
    }
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
  // The kill lands in stage 1: the restart primes stage 0 as completed,
  // never maps it again, and resumes at stage 1 with stage 0's output
  // identical to the failure-free run's.
  EXPECT_EQ(primed_done.load(), 4);
  EXPECT_EQ(resumed_stage0_maps.load(), 0);
  EXPECT_EQ(identical.load(), 4);
}

// A restart that resumes at stage 1 primes stage 0 as completed from its
// output snapshots alone: none of stage 0's map deltas, partition
// snapshots or reduce deltas is read.
TEST(MultiStage, CrRestartReadsOnlyOutputsOfACompletedStage) {
  World w;
  const FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  const auto submit = [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    (void)job.run(two_stage_driver);
  };
  simmpi::JobOptions jo;
  jo.kills.push_back({0, 4e-2, -1});  // in stage 1
  ASSERT_TRUE(Runtime::run(4, submit, jo).aborted);
  std::map<std::string, int> stage0 =
      ckpt_files(*w.fs, storage::Tier::kLocal, 4, opts.ppn);
  for (const char* kind : {"map", "part", "red", "out"}) {
    ASSERT_GT(stage0[kind], 0) << kind;
  }
  for (const char* kind : {"map", "part", "red", "out"}) {
    const int64_t before = w.fs->fault_stats().read_failures;
    fail_reads_of(*w.fs, std::string(kind) + "_s000_");
    const auto phases = prime_only(w, opts, 4);
    w.fs->clear_fault_injector();
    const int64_t tried = w.fs->fault_stats().read_failures - before;
    if (std::string_view(kind) == "out") {
      EXPECT_GT(tried, 0);  // the control: outputs are read
    } else {
      EXPECT_EQ(tried, 0) << kind;
      EXPECT_EQ(phases, std::vector<int>(4, FtJob::kPhaseDone)) << kind;
    }
  }
  EXPECT_FALSE(Runtime::run(4, submit).aborted);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

// ---------------------------------------------------------------------------
// Commit point: record checkpoints, tail flushes and the C/R abort flush
// ---------------------------------------------------------------------------

// Delta checkpoint files ("map" per task, "red" per partition) that every
// rank wrote to its node-local tier, counted by (kind, id).
std::map<std::pair<std::string, uint64_t>, int> delta_files(
    storage::StorageSystem& fs, int nranks, int ppn) {
  std::map<std::pair<std::string, uint64_t>, int> n;
  for (int rank = 0; rank < nranks; ++rank) {
    std::vector<std::string> names;
    if (!fs.list_dir(storage::Tier::kLocal, rank / ppn,
                     checkpoint_rank_dir(rank), names)
             .ok()) {
      continue;
    }
    for (const std::string& name : names) {
      CkptFileName f;
      if (parse_checkpoint_name(name, f) && (f.kind == "map" || f.kind == "red")) {
        n[{f.kind, f.id}]++;
      }
    }
  }
  return n;
}

// Failure-free: a task (partition) writes one delta every records_per_ckpt
// committed records (reduce entries) plus a tail for the rest; chunk
// granularity writes the tail only.
// ---------------------------------------------------------------------------
// Parked map stores: every reader after the map boundary
// ---------------------------------------------------------------------------

// A detect/resume rank parks its sealed map stores in the segment store at
// the map boundary. The shuffle reads them from there; a shuffle re-entry,
// the patch-up re-execution and the orphan rebuild load them back. Parking
// is host I/O only, so each run below must also book exactly the file-tier
// traffic of the same run with the stores on the heap: the pinned counters
// were recorded that way. One worker thread and op-indexed kills make them
// repeat.

StageFns combining(StageFns fns) {
  fns.combine = fns.reduce;  // a sum: associative and commutative
  return fns;
}

/// The op index at which rank `victim` records its first trace event
/// `name` in a failure-free run: a kill after that many ops lands in the
/// operation the event follows.
int64_t golden_op(FtMode mode, const StageFns& fns, int victim,
                  const std::string& name) {
  World w;
  simmpi::JobOptions jo;
  jo.worker_threads = 1;
  int64_t op = -1;
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(mode));
    EXPECT_TRUE(job.run([&](FtJob& j) { return wordcount_driver(j, fns); }).ok());
    if (c.global_rank() != victim) return;
    for (const metrics::TraceEvent& e : job.trace().events()) {
      if (e.name == name) {
        op = e.op;
        break;
      }
    }
  }, jo);
  EXPECT_GT(op, 0) << name;
  return op;
}

struct TierPin {
  storage::TierStats local, shared;
  /// checkpoint_hash() of the run: a partition snapshot's bytes follow the
  /// order its records arrived in, so this pins the record order too.
  uint64_t ckpt_hash = 0;
};

/// A hash of the names and bytes of every shared-tier checkpoint file (not
/// a CRC: each file ends in its own CRC, which a CRC over it cancels).
uint64_t checkpoint_hash(storage::StorageSystem& fs) {
  std::vector<std::string> names;
  EXPECT_TRUE(fs.list_dir(storage::Tier::kShared, 0, "ck", names).ok());
  uint64_t h = 0;
  for (const std::string& name : names) {
    Bytes data;
    EXPECT_TRUE(fs.read_file(storage::Tier::kShared, 0, "ck/" + name, data).ok());
    h = mix64(h ^ fnv1a(name));
    h = mix64(h ^ fnv1a(data));
  }
  return h;
}

void expect_tiers(storage::StorageSystem& fs, const TierPin& pin,
                  const std::string& label) {
  const storage::TierStats lo = fs.stats(storage::Tier::kLocal);
  const storage::TierStats sh = fs.stats(storage::Tier::kShared);
  EXPECT_EQ(lo.bytes_written, pin.local.bytes_written) << label;
  EXPECT_EQ(lo.bytes_read, pin.local.bytes_read) << label;
  EXPECT_EQ(lo.write_ops, pin.local.write_ops) << label;
  EXPECT_EQ(lo.read_ops, pin.local.read_ops) << label;
  EXPECT_EQ(sh.bytes_written, pin.shared.bytes_written) << label;
  EXPECT_EQ(sh.bytes_read, pin.shared.bytes_read) << label;
  EXPECT_EQ(sh.write_ops, pin.shared.write_ops) << label;
  EXPECT_EQ(sh.read_ops, pin.shared.read_ops) << label;
  EXPECT_EQ(checkpoint_hash(fs), pin.ckpt_hash) << label;
}

/// Kill rank 2 when it reaches its first `event` (op-indexed, one worker
/// thread); with `lose_partitions`, every read of its partition snapshots
/// fails, so work-conserving recovery falls back to the orphan rebuild.
/// Checks the output against the failure-free ground truth and the tiers
/// and checkpoint bytes against `pin`.
void expect_parked_recovery(FtMode mode, const StageFns& fns, const char* event,
                            bool lose_partitions, const TierPin& pin,
                            const std::string& label) {
  const int64_t op = golden_op(mode, fns, 2, event);
  World w;
  if (lose_partitions) {
    storage::FaultInjectorConfig fc;
    fc.local.p_read_fail = 1.0;
    fc.shared.p_read_fail = 1.0;
    fc.path_filter = checkpoint_rank_dir(2) + "/part_";
    w.fs->set_fault_injector(fc);
  }
  simmpi::JobOptions jo;
  jo.worker_threads = 1;
  jo.kills.push_back({2, /*vtime=*/-1.0, /*after_ops=*/op});
  std::atomic<int> recoveries{0};
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(mode));
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << label << ": " << s.to_string();
      recoveries += job.recoveries();
    }
  }, jo);
  w.fs->clear_fault_injector();
  EXPECT_EQ(r.killed_count(), 1) << label;
  EXPECT_EQ(recoveries.load(), 3) << label;
  EXPECT_EQ(w.read_output(), w.expected) << label;
  if (lose_partitions) {
    EXPECT_GT(w.fs->fault_stats().read_failures, 0) << label;
  }
  expect_tiers(*w.fs, pin, label);
}

TEST(ParkedMapStores, ShuffleReentryAfterAKillInTheExchange) {
  expect_parked_recovery(FtMode::kDetectResumeWC, wordcount_fns(),
                         "shuffle.alltoall", false,
                         {{41124, 41124, 36, 36}, {90370, 60428, 88, 67},
                          2889613060010584910u},
                         "wc");
  expect_parked_recovery(FtMode::kDetectResumeNWC, wordcount_fns(),
                         "shuffle.alltoall", false,
                         {{0, 0, 0, 0}, {8122, 11033, 16, 21}}, "nwc");
}

TEST(ParkedMapStores, OrphanRebuildAfterAReducePhaseKill) {
  expect_parked_recovery(FtMode::kDetectResumeWC, wordcount_fns(), "reduce",
                         true,
                         {{53149, 50083, 49, 48}, {108288, 61468, 112, 70},
                          2706660865526353074u},
                         "wc");
  expect_parked_recovery(FtMode::kDetectResumeWC, combining(wordcount_fns()),
                         "reduce", true,
                         {{36758, 35606, 49, 48}, {79334, 46991, 112, 70},
                          7004919106802832923u},
                         "wc+combine");
  expect_parked_recovery(FtMode::kDetectResumeNWC, wordcount_fns(), "reduce",
                         false, {{0, 0, 0, 0}, {8122, 11033, 16, 21}}, "nwc");
  expect_parked_recovery(FtMode::kDetectResumeNWC, combining(wordcount_fns()),
                         "reduce", false, {{0, 0, 0, 0}, {8122, 11033, 16, 21}},
                         "nwc+combine");
}

// A store appended to after parking is loaded back and parked again in a
// run of its own; the whole-store blocks still come in partition order,
// each in record order, read once per run. Parked bytes stay booked.
TEST(ParkedMapStores, WholeBlocksSpanEveryRunInPartitionOrder) {
  World w(0);
  mr::ResidencyMeter meter;
  const MapStores::Make make = [&meter](int) {
    mr::SpillConfig cfg;
    cfg.meter = &meter;
    return mr::SpillableKvBuffer(cfg);
  };
  std::map<int, std::vector<std::string>> want;
  MapStores stores;
  const auto add = [&](int p, int n) {
    mr::SpillableKvBuffer* store = nullptr;
    ASSERT_TRUE(stores.open(p, make, store).ok());
    for (int i = 0; i < n; ++i) {
      const std::string key = "p" + std::to_string(p) + "i" + std::to_string(want[p].size());
      ASSERT_TRUE(store->add(key, "v").ok());
      want[p].push_back(key);
    }
  };
  for (int p : {0, 2, 3, 5}) add(p, p + 1);
  add(4, 0);  // empty: stays resident
  want.erase(4);
  const size_t booked = meter.current;
  stores.park(w.fs->segments(), &meter);
  EXPECT_EQ(stores.parked(), 4u);
  EXPECT_EQ(stores.size(), 5u);
  EXPECT_EQ(meter.current, booked);

  // Loaded back, appended to and parked again in a second run: the first
  // run's remaining images no longer start at its offset 0.
  add(0, 3);
  EXPECT_EQ(stores.parked(), 3u);
  stores.park(w.fs->segments(), &meter);
  EXPECT_EQ(stores.parked(), 4u);

  std::map<int, std::vector<std::string>> got;
  std::vector<int> order;
  ASSERT_TRUE(stores
                  .whole_blocks(false,
                                [&](mr::ExchangeBlock&& b) {
                                  mr::KvBuffer kv;
                                  if (auto s = mr::KvBuffer::deserialize(b.wire, kv);
                                      !s.ok()) {
                                    return s;
                                  }
                                  order.push_back(b.partition);
                                  for (size_t i = 0; i < kv.size(); ++i) {
                                    got[b.partition].emplace_back(kv.view(i).key);
                                  }
                                  return Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(got, want);

  mr::SpillableKvBuffer* store = nullptr;
  ASSERT_TRUE(stores.find(3, make, store).ok());
  ASSERT_NE(store, nullptr);
  std::vector<std::string> keys;
  ASSERT_TRUE(store->for_each([&](mr::KvView kv) { keys.emplace_back(kv.key); }).ok());
  EXPECT_EQ(keys, want[3]);
  ASSERT_TRUE(stores.find(1, make, store).ok());
  EXPECT_EQ(store, nullptr);
  EXPECT_EQ(stores.parked(), 3u);
  stores.clear();
  EXPECT_EQ(meter.current, 0u);
}

TEST(CommitPoint, DeltaFilesPerTaskAndPartition) {
  constexpr int kRanks = 4;
  constexpr int kChunks = 12;
  constexpr int64_t kLines = 40;
  struct Case {
    const char* label;
    CkptOptions::Granularity granularity;
    int64_t records_per_ckpt;
  };
  const Case cases[] = {
      {"record-16", CkptOptions::Granularity::kRecord, 16},
      {"record-beyond-input", CkptOptions::Granularity::kRecord, 1000},
      {"chunk", CkptOptions::Granularity::kChunk, 16},
  };
  for (const Case& tc : cases) {
    World w(kChunks, static_cast<int>(kLines));
    FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
    opts.ckpt.granularity = tc.granularity;
    opts.ckpt.records_per_ckpt = tc.records_per_ckpt;
    JobResult r = Runtime::run(kRanks, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
      EXPECT_TRUE(s.ok()) << s.to_string();
    });
    ASSERT_EQ(r.finished_count(), kRanks) << tc.label;
    // Every map record and every reduce entry emits, so each commit adds
    // to the pending delta.
    const auto deltas = [&](int64_t commits) -> int {
      if (tc.granularity == CkptOptions::Granularity::kChunk) {
        return commits > 0 ? 1 : 0;
      }
      return static_cast<int>((commits + tc.records_per_ckpt - 1) /
                              tc.records_per_ckpt);
    };
    std::map<std::pair<std::string, uint64_t>, int> want;
    for (uint64_t t = 0; t < kChunks; ++t) want[{"map", t}] = deltas(kLines);
    std::map<int, int64_t> entries;  // distinct keys per partition
    for (const auto& [word, count] : w.expected) {
      entries[partition_of_key(word, kRanks)]++;
    }
    for (const auto& [p, n] : entries) {
      want[{"red", static_cast<uint64_t>(p)}] = deltas(n);
    }
    EXPECT_EQ(delta_files(*w.fs, kRanks, opts.ppn), want) << tc.label;
  }
}

// The host footprint of a checkpointing job: every checkpoint, drained copy,
// input chunk and output partition is a run of the storage system's one host
// file, and the job writes each file whole, as one extent. So the file's
// allocated bytes are at most the live logical bytes plus a block per file
// (drained copies share their checkpoint's run, so the logical bytes count
// it twice), and about none once every file is removed.
TEST(HostFootprint, WcJobKeepsOneHostFileOfLiveBytes) {
  constexpr int kRanks = 8;
  World w(16, 40);
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.ckpt.records_per_ckpt = 8;
  ASSERT_EQ(opts.ckpt.location, CkptOptions::Location::kLocalWithCopier);
  JobResult r = Runtime::run(kRanks, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    EXPECT_TRUE(s.ok()) << s.to_string();
  });
  ASSERT_EQ(r.finished_count(), kRanks);
  EXPECT_EQ(w.read_output(), w.expected);
  // Logical files and their bytes, per tier and node.
  const int nodes = kRanks / opts.ppn;
  size_t files = 0;
  uint64_t live = 0;
  const auto census = [&](storage::Tier tier, int node) {
    std::vector<std::string> names;
    ASSERT_TRUE(w.fs->list_dir(tier, node, "", names).ok());
    files += names.size();
    for (const std::string& n : names) {
      live += static_cast<uint64_t>(w.fs->file_size(tier, node, n));
    }
  };
  census(storage::Tier::kShared, 0);
  for (int node = 0; node < nodes; ++node) census(storage::Tier::kLocal, node);
  // The one host file and the bytes allocated to it.
  const auto host = [&] {
    size_t count = 0;
    uint64_t block = 0, allocated = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(w.tmp.path())) {
      struct stat st {};
      if (!e.is_regular_file() || ::stat(e.path().c_str(), &st) != 0) continue;
      count++;
      block = static_cast<uint64_t>(st.st_blksize);
      allocated += static_cast<uint64_t>(st.st_blocks) * 512;
    }
    return std::tuple(count, block, allocated);
  };
  const auto [host_files, block, allocated] = host();
  EXPECT_EQ(host_files, 1u);
  EXPECT_GT(files, 100u);
  EXPECT_LE(allocated, live + files * block)
      << files << " logical files of " << live << " bytes";
  ASSERT_TRUE(w.fs->remove(storage::Tier::kShared, 0, "").ok());
  for (int node = 0; node < nodes; ++node) {
    ASSERT_TRUE(w.fs->remove(storage::Tier::kLocal, node, "").ok());
  }
  EXPECT_LE(std::get<2>(host()), block);
}

// The same with k = 2 memory replicas: a replica is an extent of the same
// host file, sharing its checkpoint file's run, so the file's allocated
// bytes are at most the live logical bytes plus the bytes the replicas
// hold plus a block per file or replica, and about none once every file is
// removed and every replica wiped.
TEST(HostFootprint, WcJobWithMemoryReplicasKeepsOneHostFile) {
  constexpr int kRanks = 8;
  World w(16, 40);
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.ckpt.records_per_ckpt = 8;
  opts.ckpt.memory_replication_k = 2;
  JobResult r = Runtime::run(kRanks, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    EXPECT_TRUE(s.ok()) << s.to_string();
  });
  ASSERT_EQ(r.finished_count(), kRanks);
  EXPECT_EQ(w.read_output(), w.expected);
  const int nodes = kRanks / opts.ppn;
  uint64_t extents = 0, live = 0;
  const auto census = [&](storage::Tier tier, int node) {
    std::vector<std::string> names;
    ASSERT_TRUE(w.fs->list_dir(tier, node, "", names).ok());
    extents += names.size();
    for (const std::string& n : names) {
      live += static_cast<uint64_t>(w.fs->file_size(tier, node, n));
    }
  };
  census(storage::Tier::kShared, 0);
  for (int node = 0; node < nodes; ++node) census(storage::Tier::kLocal, node);
  storage::ReplicaStore& memory = w.fs->memory();
  uint64_t replicas = 0, held = 0;
  for (const std::string& path : memory.all_paths()) {
    for (int h : memory.holders_of(path)) {
      storage::SegmentStore::Extent e;
      ASSERT_TRUE(memory.get(h, path, e).ok());
      replicas++;
      held += e.len;
    }
  }
  EXPECT_GT(replicas, 100u);
  extents += replicas;
  const auto host = [&] {
    size_t count = 0;
    uint64_t block = 0, allocated = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(w.tmp.path())) {
      struct stat st {};
      if (!e.is_regular_file() || ::stat(e.path().c_str(), &st) != 0) continue;
      count++;
      block = static_cast<uint64_t>(st.st_blksize);
      allocated += static_cast<uint64_t>(st.st_blocks) * 512;
    }
    return std::tuple(count, block, allocated);
  };
  const auto [host_files, block, allocated] = host();
  EXPECT_EQ(host_files, 1u);
  EXPECT_LE(allocated, live + held + extents * block)
      << extents << " files and replicas of " << live << " + " << held << " bytes";
  ASSERT_TRUE(w.fs->remove(storage::Tier::kShared, 0, "").ok());
  for (int node = 0; node < nodes; ++node) {
    ASSERT_TRUE(w.fs->remove(storage::Tier::kLocal, node, "").ok());
  }
  memory.wipe_all();
  EXPECT_LE(std::get<2>(host()), block);
}

// The C/R error handler flushes before MPI_Abort. At record granularity the
// detecting rank writes each pending map or reduce delta; at chunk
// granularity, which commits whole chunks only, it writes none. Two ranks,
// so the one survivor is the rank that detects and aborts. It waits at its
// first map (or reduce) call until the victim is dead, and so detects at its
// next commit point with a delta pending.
TEST(CommitPoint, CrAbortFlushesPendingDeltasAtRecordGranularityOnly) {
  constexpr int kRanks = 2;
  const auto make_world = [] { return World(8, 200); };
  // Every line is distinct, so the reduce has far more than 64 entries per
  // partition.
  const auto line_fns = [] {
    StageFns fns = wordcount_fns(5e-4);
    fns.map = [](std::string_view, std::string_view line, mr::KvBuffer& out) {
      out.add(line, "1");
      return 1;
    };
    return fns;
  };

  // The victim's failure-free virtual time at its first map call and over
  // its reduce calls places each kill inside that phase.
  double victim_map = -1.0, victim_reduce_first = -1.0, victim_reduce_last = -1.0;
  {
    World w = make_world();
    Runtime::run(kRanks, [&](Comm& c) {
      FtJob job(c, w.fs.get(), base_opts(FtMode::kCheckpointRestart));
      StageFns fns = line_fns();
      if (c.global_rank() == 1) {
        fns.map = [&, inner = fns.map](std::string_view k, std::string_view v,
                                       mr::KvBuffer& out) {
          if (victim_map < 0) victim_map = c.now();
          return inner(k, v, out);
        };
        fns.reduce = [&, inner = fns.reduce](
                         std::string_view k, std::span<const std::string_view> v,
                         mr::KvBuffer& out) {
          if (victim_reduce_first < 0) victim_reduce_first = c.now();
          victim_reduce_last = c.now();
          return inner(k, v, out);
        };
      }
      ASSERT_TRUE(job.run([&](FtJob& j) { return wordcount_driver(j, fns); }).ok());
    });
  }
  ASSERT_GT(victim_map, 0.0);
  ASSERT_GT(victim_reduce_last, victim_reduce_first);

  for (const bool in_reduce : {false, true}) {
    for (const auto granularity : {CkptOptions::Granularity::kRecord,
                                   CkptOptions::Granularity::kChunk}) {
      const bool record = granularity == CkptOptions::Granularity::kRecord;
      const std::string label = std::string(in_reduce ? "reduce" : "map") +
                                (record ? "/record" : "/chunk");
      World w = make_world();
      FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
      opts.ckpt.granularity = granularity;
      simmpi::JobOptions jo;
      jo.kills.push_back(
          {1, in_reduce ? (victim_reduce_first + victim_reduce_last) / 2 : victim_map,
           -1});
      // The survivor's pending delta bytes and checkpoint count, as seen at
      // its last map/reduce call and once the abort unwinds.
      std::atomic<size_t> seen_pending{0}, abort_pending{0};
      std::atomic<int> seen_count{0}, abort_count{-1};
      JobResult r = Runtime::run(kRanks, [&](Comm& c) {
        FtJob job(c, w.fs.get(), opts);
        StageFns fns = line_fns();
        bool waited = false;
        const auto observe = [&](bool wait) {
          // Bounded: a victim that never dies fails the test, not hangs it.
          for (int i = 0; wait && !waited && i < 1000000 &&
                          c.failed_ranks().empty();
               ++i) {
          }
          waited = waited || wait;
          seen_pending = job.pending_delta_bytes();
          seen_count = job.ckpt().count();
        };
        if (c.global_rank() == 0) {
          fns.map = [&, inner = fns.map](std::string_view k, std::string_view v,
                                         mr::KvBuffer& out) {
            observe(!in_reduce);
            return inner(k, v, out);
          };
          fns.reduce = [&, inner = fns.reduce](
                           std::string_view k, std::span<const std::string_view> v,
                           mr::KvBuffer& out) {
            observe(in_reduce);
            return inner(k, v, out);
          };
        }
        try {
          (void)job.run([&](FtJob& j) { return wordcount_driver(j, fns); });
        } catch (const simmpi::AbortError&) {
          if (c.global_rank() == 0) {
            abort_pending = job.pending_delta_bytes();
            abort_count = job.ckpt().count();
          }
          throw;
        }
      }, jo);
      ASSERT_TRUE(r.aborted) << label;
      ASSERT_GE(abort_count.load(), 0) << label << ": survivor did not abort";
      if (record) {
        // One delta was pending (the current task's or partition's); the
        // handler wrote it and left nothing behind.
        EXPECT_GT(seen_pending.load(), 0u) << label;
        EXPECT_EQ(abort_count.load(), seen_count.load() + 1) << label;
        EXPECT_EQ(abort_pending.load(), 0u) << label;
      } else {
        EXPECT_EQ(abort_count.load(), seen_count.load()) << label;
        EXPECT_GT(abort_pending.load(), 0u) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Virtual-time sanity: FT overhead exists but is bounded
// ---------------------------------------------------------------------------

TEST(Overhead, CheckpointingCostsSomethingButNotTooMuch) {
  World base_w, ft_w;
  double t_base = 0, t_ft = 0;
  {
    FtJobOptions o = base_opts(FtMode::kNone);
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, base_w.fs.get(), o);
      ASSERT_TRUE(
          job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); }).ok());
    });
    t_base = r.makespan();
  }
  {
    FtJobOptions o = base_opts(FtMode::kCheckpointRestart);
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, ft_w.fs.get(), o);
      ASSERT_TRUE(
          job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); }).ok());
    });
    t_ft = r.makespan();
  }
  EXPECT_GT(t_ft, t_base);            // checkpointing is not free...
  EXPECT_LT(t_ft, t_base * 3.0);      // ...but it is bounded
}

}  // namespace
}  // namespace ftmr::core
