// Integration tests for the FT-MRMPI engine: all fault-tolerance models
// must produce output identical to a failure-free run, under failures
// injected in every phase, including continuous failures and multi-stage
// (iterative) jobs. This is the paper's core correctness claim.
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <map>

#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
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
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    EXPECT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(job.recoveries(), 0);
  });
  EXPECT_EQ(r.finished_count(), 4);
  EXPECT_EQ(w.read_output(), w.expected);
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
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    // Slow reduce so late kill times land inside the reduce phase.
    Status s = job.run(
        [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
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
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({0, 4e-2, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      (void)job.run(two_stage_driver);
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
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
